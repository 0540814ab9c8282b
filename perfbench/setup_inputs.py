"""Set-up step: import dynrmst and write one workload's inputs from the seed.

Run by ``run.py`` in a fresh interpreter, several times per run; its wall
time is the ``setup_s`` metric.
"""

import argparse
from pathlib import Path

import dynrmst  # noqa: F401  (the import is part of the set-up cost)
from workloads import WORKLOADS

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    WORKLOADS[args.workload].generate(Path(args.work), args.seed)
