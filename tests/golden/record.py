"""Record golden CLI cases.

Reads command lines from standard input, one per line, split as a shell would
split them; blank lines and lines starting with ``#`` are skipped.  Runs
``elladic.cli.main(argv)`` in-process for each and writes the cases
``{"argv", "exit", "stdout"}`` as a JSON list, in the layout of the golden
files here.  With ``--append`` the cases are added to the end of an existing
file; a command line already in it is refused, so a recorded case is never
silently replaced.  Commands that read tower files must be run from the
directory that holds them.

    PYTHONPATH=src python tests/golden/record.py OUT.json < commands.txt
    PYTHONPATH=src python tests/golden/record.py --append tests/golden/verify_cli.json < commands.txt

Run twice over the same commands with two source trees on ``PYTHONPATH``, it
is also a differential: the two output files are byte-identical exactly when
every command printed the same bytes and exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

from elladic.cli import main


def record(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def run(path: Path, append: bool, lines) -> int:
    cases = json.loads(path.read_text()) if append else []
    seen = {tuple(c["argv"]) for c in cases}
    for line in lines:
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        argv = shlex.split(line)
        if tuple(argv) in seen:
            raise SystemExit(f"already recorded: {shlex.join(argv)}")
        seen.add(tuple(argv))
        cases.append(record(argv))
    path.write_text(json.dumps(cases, indent=1) + "\n")
    return len(cases)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="record golden CLI cases from command lines on stdin")
    ap.add_argument("out", type=Path, help="golden file to write")
    ap.add_argument("--append", action="store_true", help="add to the cases already in OUT")
    args = ap.parse_args()
    print(f"{run(args.out, args.append, sys.stdin)} cases in {args.out}", file=sys.stderr)
