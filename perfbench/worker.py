"""One workload in one fresh process; started by run.py, never by hand.

Roles:
  setup  import invpos, build the first inputs, run the warm-up case, then
         time the host-speed kernel and exit;
  main   the same set-up, then closed-loop cases for --seconds (untraced),
         each case followed by one run of the host-speed kernel;
  trace  the same set-up, then for --seconds each case twice on the same
         inputs, untraced and traced in alternating order, so that the traced
         values can be compared bit for bit and the tracing overhead measured.

The parent pins every thread pool to one thread in this process's
environment before numpy is imported.  The last line of standard output is
one JSON object; ``ready_at`` (wall clock) marks the end of set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
INVPOS_MODULES = ("geometry", "fields", "coverage", "energy", "positivity", "symmetrize", "lizhu", "cli")


def import_invpos():
    """Import every invpos module from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib

    import invpos

    if Path(invpos.__file__).resolve().parent != (src / "invpos").resolve():
        raise ImportError(f"invpos was imported from {invpos.__file__}, not from {src}")
    for name in INVPOS_MODULES:
        importlib.import_module(f"invpos.{name}")


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# On a shared host the same work can take twice as long in a slow phase as
# in a fast one, in phases of seconds to minutes.  Each case is therefore
# timed next to a fixed kernel of interpreter loops, small numpy operations,
# an FFT and scipy quad calls (no invpos code), and its time is scaled by
# REFERENCE_S over the kernel's time around it: the case's time at the host
# speed at which the kernel takes REFERENCE_S.  On the 2-vCPU host the
# benchmark was tuned on, the kernel took 1.9 to 3.9 ms as the speed drifted.
REFERENCE_S = 2.0e-3
SETUP_KERNEL_RUNS = 5


class HostSpeed:
    """Times the reference kernel; ``factor`` turns wall times into
    reference-speed times."""

    def __init__(self):
        import numpy as np
        from scipy.integrate import quad

        self._np, self._quad = np, quad
        self._cube = np.random.default_rng(0).standard_normal((32, 32, 32))
        self._line = np.linspace(0.0, 1.0, 2048)
        self.sample()  # the first run pays for FFT planning

    def sample(self) -> float:
        """Wall seconds of one run of the kernel."""
        np = self._np
        start = time.perf_counter()
        np.fft.rfftn(self._cube)
        total = 0.0
        for i in range(3000):
            total += (i * 0.5) ** 0.5
        for _ in range(5):
            self._quad(lambda y: 1.0 / (1.0 + y * y), 0.0, 50.0)
        for _ in range(100):
            np.clip(self._line * 2.0 - 0.5, 0.0, 1.0).mean()
        return time.perf_counter() - start

    @staticmethod
    def factor(samples) -> float:
        return REFERENCE_S / (sum(samples) / len(samples))


class Cases:
    """Runs and verifies the cases of one workload and keeps their records."""

    def __init__(self, workload, seed):
        import workloads

        self.workload = workload
        self.inputs = lambda index: workloads.case_inputs(workload, seed, index)
        self.reference = []
        if REFERENCE.exists():
            ref = json.loads(REFERENCE.read_text())
            if ref["seed"] == seed:
                self.reference = ref["workloads"].get(workload.name, [])
        self.records = []

    def call(self, inp):
        """(values or None, error message or None, seconds) of one run."""
        start = time.perf_counter()
        try:
            values = self.workload.run(inp)
        except Exception:  # a raising case is a failed case, not a crash
            return None, traceback.format_exc(limit=3).strip().splitlines()[-1], time.perf_counter() - start
        return values, None, time.perf_counter() - start

    def verify(self, index, params, inp, values, error):
        """Failure messages of one case: its checks, then its reference."""
        if error is not None:
            return [f"raised {error}"]
        fails = self.workload.check(inp, values)
        if index < len(self.reference):
            ref = self.reference[index]
            if ref["params"] != json.loads(json.dumps(params)):
                fails.append("inputs differ from the reference inputs of this seed")
            for key, tol in self.workload.tolerances(ref["values"]).items():
                got, want = values[key], ref["values"][key]
                if tol is None and got != want:
                    fails.append(f"{key} {got!r} differs from reference {want!r}")
                elif tol is not None and not abs(got - want) <= tol:
                    fails.append(f"{key} {got!r} moved from reference {want!r} by more than {tol:.3g}")
        return fails

    def record(self, index, params, inp, values, seconds, fails):
        """Keeps one case; ``notes`` are the workload's findings that do not fail it."""
        notes = self.workload.notes(inp, values) if values is not None and hasattr(self.workload, "notes") else []
        self.records.append({"index": index, "seconds": seconds, "params": params, "values": values,
                             "failures": fails, "notes": notes})


def run_role(args) -> dict:
    import workloads

    # Set-up is read at the mean host speed of kernel runs at its two ends.
    speed = HostSpeed()
    early = [speed.sample() for _ in range(SETUP_KERNEL_RUNS)]
    out_dir = OUT / f"cli-{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, str(out_dir))
    cases = Cases(workload, args.seed)
    try:
        params, inp = cases.inputs(0)
        values, error, seconds = cases.call(inp)
        cases.record(0, params, inp, values, seconds, cases.verify(0, params, inp, values, error))
        result = {"ready_at": time.time(), "warmup": cases.records.pop()}
        result["setup_speed"] = HostSpeed.factor(early + [speed.sample() for _ in range(SETUP_KERNEL_RUNS)])
        if args.role == "setup":
            return result
        result["provenance"] = provenance()
        result.update(timed_loop(cases, args.seconds, speed) if args.role == "main" else traced_loop(cases, args))
        result["cases"] = cases.records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def timed_loop(cases, seconds, speed) -> dict:
    """Closed-loop cases for ``seconds``.  Each record gains ``segment``, the
    wall time of its input generation, call and checks, and ``speed``, the
    host-speed factor from the kernel runs just before and after it."""
    start = time.perf_counter()
    before = speed.sample()
    index = 1
    while time.perf_counter() - start < seconds:
        began = time.perf_counter()
        params, inp = cases.inputs(index)
        values, error, took = cases.call(inp)
        cases.record(index, params, inp, values, took, cases.verify(index, params, inp, values, error))
        cases.records[-1]["segment"] = time.perf_counter() - began
        after = speed.sample()
        cases.records[-1]["speed"] = HostSpeed.factor((before, after))
        before = after
        index += 1
    return {"loop_seconds": time.perf_counter() - start}


def traced_loop(cases, args) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    mismatches = []
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < args.seconds:
        params, inp = cases.inputs(index)
        runs = {}
        for traced in (False, True) if index % 2 else (True, False):
            if traced:
                with tracer.recording(index):
                    runs[traced] = cases.call(inp)
            else:
                runs[traced] = cases.call(inp)
        (plain, error, plain_s), (values, traced_error, took) = runs[False], runs[True]
        if json.dumps(plain, sort_keys=True) != json.dumps(values, sort_keys=True) or error != traced_error:
            mismatches.append(index)
        untraced_s += plain_s
        traced_s += took
        cases.record(index, params, inp, values, took, cases.verify(index, params, inp, values, traced_error))
        index += 1
    n = len(cases.records)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_file)
    summary = tracing.summarize(tracer.spans, n)
    fired = {name for name, stats in summary["spans"].items() if stats["calls"] > 0}
    return {
        "layers": summary,
        "case_s": traced_s / max(n, 1),
        "overhead_share": traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
        "value_mismatches": mismatches,
        "missing_spans": [name for name in cases.workload.spans if name not in fired],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "main", "trace"), required=True)
    args = parser.parse_args(argv)
    try:
        import_invpos()
    except ImportError as exc:
        print(f"cannot import invpos from this checkout: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run_role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
