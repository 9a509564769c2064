"""Print the command lines of a benchmark workload's seeded rounds.

Builds ``bench/workloads.py``'s workload W with seed N and prints, one
``shlex.join`` line per request, the argv of its first R rounds, in the order
the benchmark sends them.  The ``towers`` workload writes its tower files, and
names its ``--out`` files, in the directory D, which is created if missing
and kept afterwards, so the printed lines can be run later.  Nothing under
``bench/`` is written.  The lines feed ``record.py``:

    python tests/golden/workload_argv.py --workload towers --seed 5 --rounds 50 \\
        --dir /tmp/towers5 > argv.txt
    PYTHONPATH=src python tests/golden/record.py --diff HEAD~1 < argv.txt
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "bench"))

from workloads import WORKLOADS  # noqa: E402


def workload_argv(name: str, seed: int, rounds: int, workdir: str) -> list:
    """The argv of every request in the first ``rounds`` rounds."""
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[name](seed, os.path.abspath(workdir))
    return [req.argv for _ in range(rounds) for req in workload.round()]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="print a workload's seeded argv, one per line")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--dir", required=True, help="directory for the towers workload's files")
    args = ap.parse_args()
    for argv in workload_argv(args.workload, args.seed, args.rounds, args.dir):
        print(shlex.join(argv))
