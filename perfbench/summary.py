"""Run every workload and print all end-to-end metrics with their units.

    python3 perfbench/summary.py                      # seeds 0 and 1, then one traced run each
    python3 perfbench/summary.py --seeds 0-9 --no-trace   # run-to-run spread against the bounds

For each workload and seed this calls run.py (so each run is its own set of
fresh processes), then prints per metric the median, the quartiles and the
quartile spread as a share of the median, next to the bound that
BENCHMARK.json fixes.  With tracing it adds one traced run per workload on
the first seed, the layer shares of case time, and whether the dominant
layers predicted for each workload hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, WORKLOADS

ROOT = HERE.parent

# Predicted dominant layers: (workload, description, span groups that must
# each cover at least the given share of traced case time).
PREDICTIONS = (
    ("positivity-3d", "energy_direct dominates", ((("energy.energy_direct.busy_share",), 0.5),)),
    ("oracle-1d", "halfspace_representation dominates", ((("positivity.halfspace_representation.busy_share",), 0.5),)),
    (
        "hemiball-1d",
        "coverage and lizhu bisection dominate",
        # The bisection share is that of its mass evaluations, not of the
        # lizhu calls around them, which make up the whole case.
        (
            (("coverage.ball_coverage.busy_share", "coverage.tail_mass_1d.busy_share"), 0.5),
            (("lizhu.mass_in_ball.busy_share",), 0.5),
        ),
    ),
    (
        "symmetrize-2d",
        "energy and bisection both take substantial shares",
        (
            (("energy.energy_direct.busy_share",), 0.2),
            (("symmetrize.hemiball_radius.busy_share", "symmetrize.hemispace_offset.busy_share"), 0.2),
        ),
    ),
)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result JSON, provenance) of one run.py call; exits on failure."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    for line in lines[:-1]:
        if line.strip().startswith(("FAILED", "SELF-TEST", "NOTE")):
            print(f"    {workload} seed {seed}: {line.strip()}")
    prov = next((json.loads(ln.split("provenance ", 1)[1]) for ln in lines if ln.strip().startswith("provenance ")), None)
    return json.loads(lines[-1]), prov


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0,1", help="comma list and ranges, e.g. 0-9 or 0,3,7")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        print(f"{workload}: {len(seeds)} runs, correct={all(r['correct'] for r, _ in runs)}, "
              f"failed {sum(r['failed'] for r, _ in runs)} of {sum(r['attempted'] for r, _ in runs)} cases")
        print(f"  provenance {json.dumps(runs[0][1])}")
        print(f"  {'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name in bounds:
            unit = runs[0][0]["metrics"][name]["unit"]
            stats = spread([r["metrics"][name]["value"] for r, _ in runs])
            print(f"  {name:<16}{unit:<7}{stats['median']:>12.5g}{stats['q1']:>12.5g}{stats['q3']:>12.5g}"
                  f"{stats['spread']:>9.2%}{bounds[name]:>7.2f}")
        if not args.no_trace:
            traced, _ = run(workload, seeds[0], seconds, 1)
            layers = {name: m["value"] for name, m in traced["metrics"].items()}
            busy = {name: value for name, value in layers.items() if name.endswith(".busy_share") and value}
            print(f"  traced (seed {seeds[0]}): correct={traced['correct']}, overhead {layers['trace.overhead_share']:.1%}, "
                  f"case {layers['trace.case_s']:.4g} s; busy share of case time:")
            for name, share in sorted(busy.items(), key=lambda kv: -kv[1]):
                print(f"    {name[:-len('.busy_share')]:<40}{share:>7.1%}")
            for target, text, groups in PREDICTIONS:
                if target == workload:
                    shares = [sum(layers.get(n, 0.0) for n in names) for names, _ in groups]
                    held = all(s >= need for s, (_, need) in zip(shares, groups))
                    print(f"  prediction '{text}': {'held' if held else 'NOT HELD'} "
                          f"(shares {', '.join(f'{s:.1%}' for s in shares)})")
    return 0

if __name__ == "__main__":
    sys.exit(main())
