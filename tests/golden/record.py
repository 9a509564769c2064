"""Record and check golden CLI cases.

Reads command lines from standard input, one per line, split as a shell would
split them; blank lines and lines starting with ``#`` are skipped.  Runs
``elladic.cli.main(argv)`` in-process for each and writes the cases
``{"argv", "exit", "stdout"}`` as a JSON list, in the layout of the golden
files here; a case whose argv has ``--out PATH`` also keeps the written file
as ``out_file``.  With ``--append`` the cases are added to the end of an
existing file; a command line already in it is refused, so a recorded case is
never silently replaced.  With ``--check`` nothing is written: every case of
FILE is run again and each argv whose exit status, stdout or ``out_file``
differs is printed, with exit status 1 when there is one.  Each command runs
in a fresh temporary directory that holds a copy of each golden
``tower*.json``, as the golden tests run them.

    PYTHONPATH=src python tests/golden/record.py OUT.json < commands.txt
    PYTHONPATH=src python tests/golden/record.py --append tests/golden/verify_cli.json < commands.txt
    PYTHONPATH=src python tests/golden/record.py --check tests/golden/towers_cli.json

Run twice over the same commands with two source trees on ``PYTHONPATH``, it
is also a differential: the two output files are byte-identical exactly when
every command printed the same bytes and exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from elladic.cli import main

GOLDEN = Path(__file__).resolve().parent


@contextlib.contextmanager
def golden_workdir():
    """A temporary working directory holding the golden tower files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for tower in GOLDEN.glob("tower*.json"):
            shutil.copy(tower, tmp)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def record(argv: list) -> dict:
    out = io.StringIO()
    with golden_workdir():
        with contextlib.redirect_stdout(out):
            code = main(argv)
        case = {"argv": argv, "exit": code, "stdout": out.getvalue()}
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            if path.exists():
                case["out_file"] = path.read_text()
    return case


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


def check(path: Path) -> list:
    """The argv of every case of ``path`` that no longer gives its recorded bytes."""
    return [case["argv"] for case in json.loads(path.read_text()) if record(case["argv"]) != case]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="record golden CLI cases from command lines "
                                             "on stdin, or check a recorded file")
    ap.add_argument("file", type=Path, help="golden file to write, or to check")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--append", action="store_true", help="add to the cases already in FILE")
    mode.add_argument("--check", action="store_true", help="rerun FILE and list differing argv")
    args = ap.parse_args()
    if args.check:
        differing = check(args.file)
        for argv in differing:
            print(shlex.join(argv))
        total = len(json.loads(args.file.read_text()))
        print(f"{args.file}: {total - len(differing)} of {total} cases match", file=sys.stderr)
        sys.exit(1 if differing else 0)
    print(f"{run(args.file, args.append, sys.stdin)} cases in {args.file}", file=sys.stderr)
