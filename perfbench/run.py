"""invpos benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload positivity-3d --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; invpos is imported from its src/.  Each
workload runs in fresh processes with every thread pool pinned to one thread
(closed loop, one client: a case starts when the previous one returns).

--trace 0 prints the end-to-end metrics.  Set-up (imports, input generation
and one warm-up case) is measured in three fresh processes, two that stop
after set-up and the measured one, and the median is reported.  Every time
is read at a fixed reference host speed: it is scaled by the speed factor of
a fixed kernel timed next to it (worker.HostSpeed), because the shared host's
speed drifts.  The plain wall-clock figures are printed beside them.
--trace 1 runs each case untraced and traced on the same inputs, prints the
per-layer metrics and fails unless the traced values are bit-identical and
every span mapped to the workload fired.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when a result was
printed, whether or not it is correct; any other exit prints no result.
See perfbench/baseline.md for the workloads, the layer map and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("positivity-3d", "oracle-1d", "symmetrize-2d", "hemiball-1d")
SETUP_RUNS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_p50_s", "s"),
    ("case_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_share", "ratio"),
)

# Statistics reported per traced span, named "<span>.<statistic>": counts
# per traced case, and times as shares of traced case time (trace.case_s).
SPAN_STATS = (
    ("energy.energy_direct", ("calls", "busy_share", "cells")),
    ("fields.apply_region_map", ("calls", "busy_share")),
    ("fields.coarsen", ("calls",)),
    ("positivity.positivity_defect", ("calls", "self_share")),
    ("positivity.halfspace_representation", ("calls", "busy_share")),
    ("positivity.reflected_energy", ("calls", "busy_share")),
    ("coverage.ball_coverage", ("calls", "busy_share")),
    ("coverage.halfspace_coverage", ("calls", "busy_share")),
    ("coverage.tail_mass_1d", ("calls", "busy_share")),
    ("symmetrize.symmetrization_step", ("calls", "self_share")),
    ("symmetrize.hemiball_radius", ("calls", "busy_share")),
    ("symmetrize.hemispace_offset", ("calls", "busy_share")),
    ("symmetrize.fit_extremizer", ("busy_share",)),
    ("lizhu.solve_mapping_ball", ("calls", "busy_share")),
    ("lizhu.check_mass_identity", ("calls", "busy_share")),
    ("lizhu.mass_in_ball", ("calls", "busy_share")),
    ("cli.parse_config", ("busy_share",)),
    ("cli.run", ("self_share",)),
    ("cli.report_write", ("busy_share",)),
)
STAT_UNITS = {"calls": "calls/case", "busy_share": "ratio", "self_share": "ratio", "cells": "cells/case"}
SPAN_METRICS = tuple((f"{span}.{stat}", STAT_UNITS[stat], span, stat) for span, stats in SPAN_STATS for stat in stats)
OTHER_LAYER_METRICS = (
    ("symmetrize.steps_per_case", "steps/case"),
    ("symmetrize.accepted_step_share", "ratio"),
    ("symmetrize.mass_evals_per_bisection", "evals/bisection"),
    ("trace.case_s", "s/case"),
    ("trace.overhead_share", "ratio"),
)


def spawn(args, role: str, deadline: float) -> tuple:
    """(spawn wall time, parsed last line) of one worker process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    spawned = time.time()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond it) of the highest percentile with
    10 samples beyond it, never below the median."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def end_to_end(args, deadline: float) -> tuple:
    setups, setup_walls = [], []
    for role in ("setup",) * (SETUP_RUNS - 1) + ("main",):
        spawned, main = spawn(args, role, deadline)
        setup_walls.append(main["ready_at"] - spawned)
        setups.append(setup_walls[-1] * main["setup_speed"])
    records = [main["warmup"]] + main["cases"]
    cases = main["cases"]
    times = [r["seconds"] * r["speed"] for r in cases]
    tail_s, pct, beyond = tail(times)
    failed = sum(1 for r in records if r["failures"])
    verified = sum(1 for r in cases if not r["failures"])
    metrics = {
        "cases_per_s": verified / sum(r["segment"] * r["speed"] for r in cases),
        "case_p50_s": statistics.median(times),
        "case_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "verified_share": 1.0 - failed / len(records),
    }
    speeds = sorted(r["speed"] for r in cases)
    notes = [
        f"timed cases {len(times)} ({verified} verified) in {main['loop_seconds']:.2f} s; case_tail_s is p{pct:.0f} "
        f"({len(times)} samples, {beyond} beyond it)",
        f"failed_share = {failed / len(records):.4g} ({failed} of {len(records)} cases, warm-up included)",
        f"host-speed factor median {statistics.median(speeds):.3f} (range {speeds[0]:.3f} to {speeds[-1]:.3f}); "
        f"wall-clock case p50 {statistics.median(r['seconds'] for r in cases):.4g} s, "
        f"{verified / sum(r['segment'] for r in cases):.4g} verified cases per wall second",
        "setup_s samples " + ", ".join(f"{s:.3f}" for s in setups)
        + " (wall " + ", ".join(f"{s:.3f}" for s in setup_walls) + ")",
        "provenance " + json.dumps(main["provenance"]),
    ]
    return records, failed, {name: (metrics[name], unit) for name, unit in END_TO_END}, notes, []


def traced(args, deadline: float) -> tuple:
    _, main = spawn(args, "trace", deadline)
    records = [main["warmup"]] + main["cases"]
    failed = sum(1 for r in records if r["failures"])
    spans = main["layers"]["spans"]
    metrics = {name: (spans.get(span, {}).get(stat, 0.0), unit) for name, unit, span, stat in SPAN_METRICS}
    steps = [r["values"]["steps"] for r in main["cases"] if r["values"] and "steps" in r["values"]]
    accepted = sum(r["values"]["accepted"] for r in main["cases"] if r["values"] and "accepted" in r["values"])
    other = {
        "symmetrize.steps_per_case": sum(steps) / len(steps) if steps else 0.0,
        "symmetrize.accepted_step_share": accepted / sum(steps) if steps and sum(steps) else 0.0,
        "symmetrize.mass_evals_per_bisection": main["layers"]["mass_evals_per_bisection"],
        "trace.case_s": main["case_s"],
        "trace.overhead_share": main["overhead_share"],
    }
    metrics.update({name: (other[name], unit) for name, unit in OTHER_LAYER_METRICS})
    notes = [f"traced cases {len(main['cases'])}; spans written to {main['spans_file']}",
             "provenance " + json.dumps(main["provenance"])]
    notes += [
        f"share of traced case time: {name} {spans[name]['busy_share']:.1%}"
        for name in sorted(spans, key=lambda n: -spans[n]["busy_share"])
        if name != "case"
    ]
    problems = []
    if main["value_mismatches"]:
        problems.append(f"traced values differ from untraced values in cases {main['value_mismatches']}")
    if main["missing_spans"]:
        problems.append(f"spans mapped to {args.workload} did not fire: {main['missing_spans']}")
    return records, failed, metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; inputs are drawn from it (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (HERE.parent / "src" / "invpos").is_dir():
        print(f"src/invpos not found next to {HERE.name}/: not an invpos checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        records, failed, metrics, notes, problems = (traced if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for index, msg in [(r["index"], msg) for r in records for msg in r["failures"]][:20]:
        print(f"  FAILED case {index}: {msg}")
    noted = [(r["index"], msg) for r in records for msg in r["notes"]]
    if noted:
        print(f"  {len(noted)} of {len(records)} cases have notes (findings that do not fail a case):")
    for index, msg in noted[:20]:
        print(f"  NOTE case {index}: {msg}")
    for problem in problems:
        print(f"  SELF-TEST FAILED: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
