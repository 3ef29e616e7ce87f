"""Record the reference values of the default seed's first cases.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for every workload, the drawn inputs and
the computed values of cases 0..CASES-1 of seed 0.  A benchmark run with seed
0 then fails any of these cases whose value moves from its reference by more
than the tolerance the workload gives for it.  Refuses to record a case that
fails its own checks.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import worker  # noqa: E402  (thread counts are pinned before numpy loads)

SEED = 0
CASES = 100


def main() -> int:
    worker.import_invpos()
    import workloads

    out_dir = worker.OUT / "reference-cli"
    result = {"seed": SEED, "workloads": {}}
    for name in workloads.NAMES:
        workload = workloads.make(name, str(out_dir))
        entries = []
        for index in range(CASES):
            params, inp = workloads.case_inputs(workload, SEED, index)
            values = workload.run(inp)
            fails = workload.check(inp, values)
            if fails:
                print(f"{name} case {index} fails its checks: {fails}", file=sys.stderr)
                return 1
            entries.append({"params": params, "values": values})
        result["workloads"][name] = entries
        print(f"{name}: {CASES} cases recorded")
    shutil.rmtree(out_dir, ignore_errors=True)
    worker.REFERENCE.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
