"""Record and check golden CLI cases.

Reads command lines from standard input, one per line, split as a shell would
split them; lines starting with ``#`` are skipped, and an empty line is the
empty argv (``shlex.join([])``).  Runs ``elladic.cli.main(argv)`` in-process
for each and writes the cases ``{"argv", "exit", "stdout"}`` as a JSON list,
in the layout of the golden files here; a usage error or ``--help`` ends
``main`` with ``SystemExit``, whose code is the case's exit status.  A case
keeps ``stderr`` when something was written there, and a case whose argv has
``--out PATH`` also keeps the written file as ``out_file``.  With
``--append`` the cases are added to the end of an existing file; a command
line already in it is refused, so a recorded case is never silently
replaced.  With ``--check`` nothing is written: every case of
FILE is run again and each argv whose exit status, stdout, stderr or
``out_file`` differs is printed, with exit status 1 when there is one.  Each
command runs in a fresh temporary directory that holds a copy of each golden
``tower*.json``, as the golden tests run them, and with ``COLUMNS=80``, the
terminal width argparse wraps its usage and help text at.

With ``--diff REV`` it is a differential between git revision REV and the
working tree: REV's ``src`` is unpacked with ``git archive`` into a
temporary directory, the command lines on standard input are recorded once
under REV's ``src`` and once under the working tree's ``src``, each in a
child process (both runs use this script and the working tree's golden
tower files), and every argv whose exit status, stdout, stderr or
``out_file`` differs is printed, with exit status 1 when there is one.  No
git state is written.

Each golden file ``<corpus>.json`` has its command lines beside it as
``<corpus>.argv``, one ``shlex.join`` line per case in the file's order, so
a corpus can be re-run against any revision:

    PYTHONPATH=src python tests/golden/record.py OUT.json < commands.txt
    PYTHONPATH=src python tests/golden/record.py --append tests/golden/verify_cli.json < commands.txt
    PYTHONPATH=src python tests/golden/record.py --check tests/golden/towers_cli.json
    PYTHONPATH=src python tests/golden/record.py --diff HEAD~1 < tests/golden/verify_cli.argv
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from unittest import mock

from elladic.cli import main

GOLDEN = Path(__file__).resolve().parent
REPO = GOLDEN.parent.parent


@contextlib.contextmanager
def golden_workdir():
    """A temporary working directory holding the golden tower files, with
    ``COLUMNS`` pinned to 80."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        for tower in GOLDEN.glob("tower*.json"):
            shutil.copy(tower, tmp)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def record(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with golden_workdir():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        case = {"argv": argv, "exit": code, "stdout": out.getvalue()}
        if err.getvalue():
            case["stderr"] = err.getvalue()
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            if path.exists():
                case["out_file"] = path.read_text()
    return case


def command_lines(lines):
    """The argv of each command line, skipping ``#`` lines."""
    return [shlex.split(line) for line in lines if not line.lstrip().startswith("#")]


def run(path: Path, append: bool, lines) -> int:
    cases = json.loads(path.read_text()) if append else []
    seen = {tuple(c["argv"]) for c in cases}
    for argv in command_lines(lines):
        if tuple(argv) in seen:
            raise SystemExit(f"already recorded: {shlex.join(argv)}")
        seen.add(tuple(argv))
        cases.append(record(argv))
    path.write_text(json.dumps(cases, indent=1) + "\n")
    return len(cases)


def check(path: Path) -> list:
    """The argv of every case of ``path`` that no longer gives its recorded bytes."""
    return [case["argv"] for case in json.loads(path.read_text()) if record(case["argv"]) != case]


def record_under(src: Path, commands: str, out: Path) -> list:
    """The cases of ``commands`` recorded by a child process that imports
    ``elladic`` from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, str(out)], input=commands, text=True,
                          env=env, stderr=subprocess.PIPE)
    if proc.returncode:
        raise SystemExit(f"recording under {src} failed:\n{proc.stderr}")
    return json.loads(out.read_text())


def diff(rev: str, lines) -> list:
    """The argv of every command line whose case differs between revision
    ``rev`` and the working tree; a repeated command line is run once."""
    argvs = list(dict.fromkeys(map(tuple, command_lines(lines))))
    commands = "".join(shlex.join(argv) + "\n" for argv in argvs)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode:
            raise SystemExit(f"cannot check out {rev}")
        tree = Path(tmp) / "tree"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        old = record_under(tree / "src", commands, Path(tmp) / "old.json")
        new = record_under(REPO / "src", commands, Path(tmp) / "new.json")
    return [a["argv"] for a, b in zip(old, new) if a != b]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="record golden CLI cases from command lines "
                                             "on stdin, or check a recorded file")
    ap.add_argument("file", type=Path, nargs="?", help="golden file to write, or to check")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--append", action="store_true", help="add to the cases already in FILE")
    mode.add_argument("--check", action="store_true", help="rerun FILE and list differing argv")
    mode.add_argument("--diff", metavar="REV",
                      help="run stdin's commands under REV's src and the working tree's, "
                           "and list differing argv (FILE is not given)")
    args = ap.parse_args()
    if (args.diff is None) == (args.file is None):
        ap.error("give FILE, or --diff REV without FILE")
    if args.diff is not None:
        differing = diff(args.diff, sys.stdin)
        for argv in differing:
            print(shlex.join(argv))
        print(f"{len(differing)} differing argv against {args.diff}", file=sys.stderr)
        sys.exit(1 if differing else 0)
    if args.check:
        differing = check(args.file)
        for argv in differing:
            print(shlex.join(argv))
        total = len(json.loads(args.file.read_text()))
        print(f"{args.file}: {total - len(differing)} of {total} cases match", file=sys.stderr)
        sys.exit(1 if differing else 0)
    print(f"{run(args.file, args.append, sys.stdin)} cases in {args.file}", file=sys.stderr)
