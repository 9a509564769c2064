"""Record the digits the current commit claims for every lvalue-measure request.

    python3 bench/record_floors.py      # from the checkout root, a few minutes

The lvalue-measure workload draws from a finite set of requests, so the claim
of each can be recorded once; ``check.py`` then fails any response that claims
fewer digits.  The file was written at the commit that introduced the
benchmark; re-record it only when the workload's request set changes.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import elladic.cli as cli  # noqa: E402
from check import claimed, default_floors_path  # noqa: E402
from run import git_revision  # noqa: E402
from workloads import measure_floor_key, measure_universe  # noqa: E402


def main():
    floors = {}
    for req in measure_universe():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(req.argv))
        if rc != 0:
            raise SystemExit(f"{req.key} exited {rc}: {buf.getvalue()}")
        floors[measure_floor_key(req)] = claimed(json.loads(buf.getvalue())["value"])
    with open(default_floors_path(), "w") as fh:
        json.dump({"commit": git_revision(os.getcwd()),
                   "key": "command ell level beta s c",
                   "lvalue-measure": floors}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {len(floors)} requests")


if __name__ == "__main__":
    main()
