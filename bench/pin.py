"""Regenerate bench/expected.json: the pinned outcome of every operation.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/pin.py

Runs one pass of each workload at every workload seed (0..PINNED_SEEDS-1)
and records exit code, report verdict, headline values and sha256. Only
re-pin when a behaviour change has been argued for: the pins are what makes
a wrong verdict or a weaker search count as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import (
    EXPECTED_PATH,
    PINNED_SEEDS,
    WORKLOADS,
    operations,
    outcome_of,
)
from worker import run_pass


def pin(workload: str, spec_dir: str) -> dict[str, dict]:
    out = {}
    for wseed in range(PINNED_SEEDS):
        _, results = run_pass(operations(workload, wseed, spec_dir))
        out[str(wseed)] = {op.label: outcome_of(op, code, stdout).to_json()
                           for op, code, stdout, _ in results}
        print(f"{workload} seed {wseed} pinned", file=sys.stderr, flush=True)
    return out


def main() -> int:
    spec_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            ".bench_build", "zecap-bench", "specs")
    os.makedirs(spec_dir, exist_ok=True)
    doc = {"pinned_seeds": PINNED_SEEDS,
           "workloads": {workload: pin(workload, spec_dir) for workload in WORKLOADS}}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
