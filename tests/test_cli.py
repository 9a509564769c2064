import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from elladic import cli
from elladic.cli import main
from elladic.measures import bernoulli_measure, tower_to_json
from elladic.ncseries import ReducedSeries


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


class TestBasicCommands:
    def test_bernoulli_number(self, capsys):
        code, doc = run_cli(["bernoulli", "--k", "12"], capsys)
        assert code == 0
        assert doc["value"] == "-691/2730"

    def test_bernoulli_poly(self, capsys):
        code, doc = run_cli(["bernoulli", "--k", "2", "--t", "1/3"], capsys)
        assert code == 0 and doc["value"] == "-1/18"

    def test_teichmuller(self, capsys):
        code, doc = run_cli(
            ["teichmuller", "--ell", "5", "--u", "2", "--prec", "2"], capsys
        )
        assert code == 0
        assert doc["value"] == {"ell": 5, "valuation": 0, "unit": 7, "precision": 2}

    def test_teichmuller_domain_error(self, capsys):
        code, doc = run_cli(["teichmuller", "--ell", "5", "--u", "10"], capsys)
        assert code == 1
        assert "not a unit" in doc["error"]

    def test_kl_value(self, capsys):
        code, doc = run_cli(
            ["kl", "--ell", "5", "--beta", "2", "--s", "2", "--c", "2",
             "--level", "6", "--json"],
            capsys,
        )
        assert code == 0
        v = doc["value"]
        assert v["valuation"] == 0
        assert v["unit"] % 25 == 17  # 1/3 mod 25

    def test_kl_interp_method(self, capsys):
        code, doc = run_cli(
            ["kl", "--ell", "5", "--beta", "2", "--s", "1/2", "--method",
             "interp", "--prec", "2"],
            capsys,
        )
        assert code == 0
        assert doc["method"] == "interp" and "value" in doc

    def test_minus_one(self, capsys):
        code, doc = run_cli(
            ["minus-one", "--ell", "5", "--beta", "2", "--s", "2", "--c", "2",
             "--level", "5"],
            capsys,
        )
        assert code == 0
        v = doc["value"]
        # -1/6 is a unit; its residue mod 25 is -(6^-1) = -21 = 4
        assert v["valuation"] == 0 and v["unit"] % 25 == 4

    def test_minus_one_odd_beta_is_domain_error(self, capsys):
        code, doc = run_cli(
            ["minus-one", "--ell", "5", "--beta", "1", "--s", "2"], capsys
        )
        assert code == 1 and "sigma-dependent" in doc["error"]

    def test_hurwitz(self, capsys):
        code, doc = run_cli(
            ["hurwitz", "--ell", "5", "--beta", "2", "--s", "2", "--i", "1",
             "--m", "3"],
            capsys,
        )
        assert code == 0
        v = doc["value"]
        # 1/9 has valuation 0 and unit inverse-of-9
        assert v["valuation"] == 0
        assert v["unit"] * 9 % 5 ** v["precision"] == 1

    def test_dirichlet(self, capsys):
        code, doc = run_cli(
            ["dirichlet", "--ell", "5", "--beta", "1", "--s", "5",
             "--psi", "4:1=1,3=-1"],
            capsys,
        )
        assert code == 0
        v = doc["value"]
        # -1560 = -5 * 312: valuation 1
        assert v["valuation"] == 1
        assert (5 ** v["valuation"] * v["unit"] + 1560) % 5 ** (
            v["valuation"] + v["precision"]
        ) == 0

    def test_zinv_report(self, capsys):
        code, doc = run_cli(
            ["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "2,3"],
            capsys,
        )
        assert code == 0
        assert doc["sign"] == -1
        assert doc["magnitude_matches"] is True


class TestMeasureCommands:
    @pytest.fixture
    def tower_file(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(tower_to_json(bernoulli_measure(2, 5, 3))))
        return str(path)

    def test_validate(self, tower_file, capsys):
        code, doc = run_cli(["measure", "validate", "--in", tower_file], capsys)
        assert code == 0
        assert doc["valid"] and doc["denom_exponent"] == 0

    def test_validate_rejects_broken(self, tmp_path, capsys):
        doc = tower_to_json(bernoulli_measure(2, 5, 2))
        doc["levels"][1][0] = "7/2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["measure", "validate", "--in", str(path)], capsys)
        assert code == 1
        assert "not a distribution" in out["error"]

    def test_pushforward_roundtrip(self, tower_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.json")
        code, doc = run_cli(
            ["measure", "pushforward", "--in", tower_file, "--matrix", "-1",
             "--out", out_path],
            capsys,
        )
        assert code == 0
        assert doc["tower"]["levels"][1] == ["1/2", "1/2", "-1/2", "1/2", "-1/2"]

    def test_integrate(self, tower_file, capsys):
        code, doc = run_cli(
            ["measure", "integrate", "--in", tower_file, "--level", "3",
             "--powers", "1", "--units"],
            capsys,
        )
        assert code == 0
        assert doc["value"]["unit"] % 5 == 1

    @pytest.mark.parametrize("argv", [
        ["validate"], ["transform"], ["pushforward", "--matrix", "1"],
    ], ids=["validate", "transform", "pushforward"])
    def test_empty_tower_is_structured_error(self, argv, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"ell":5,"rank":1,"levels":[]}')
        code, doc = run_cli(["measure", argv[0], "--in", str(path)] + argv[1:], capsys)
        assert code == 1
        assert doc == {"command": "measure", "error": "a tower needs at least one level"}

    def test_transform(self, tower_file, capsys):
        code, doc = run_cli(
            ["measure", "transform", "--in", tower_file, "--kind", "f",
             "--degree", "2"],
            capsys,
        )
        assert code == 0
        assert doc["coeffs"]["0"] == "1/2"


NEGATIVE_PRECISION = [
    ["kl", "--ell", "5", "--beta", "2", "--s", "1/2", "--method", "interp", "--prec=-3"],
    ["kl", "--ell", "5", "--beta", "2", "--s", "6", "--method", "interp", "--prec=-1"],
    ["minus-one", "--ell", "5", "--beta", "2", "--s", "1/2", "--method", "interp", "--prec=-1"],
    ["hurwitz", "--ell", "5", "--beta", "2", "--s", "1/2", "--i", "1", "--m", "3", "--prec=-1"],
    ["dirichlet", "--ell", "5", "--beta", "1", "--s", "1/2", "--psi", "4:1=1,3=-1", "--prec=-1"],
    ["zinv", "--ell", "5", "--beta", "2", "--s", "1/2", "--primes", "2,3", "--prec=-1"],
    ["kl", "--ell", "5", "--beta", "2", "--s", "1/2", "--level=-1"],
    ["minus-one", "--ell", "5", "--beta", "2", "--s", "1/2", "--level=-1"],
]


class TestNegativePrecision:
    """A negative --prec or --level is one JSON error document with exit 1."""

    @pytest.mark.parametrize("argv", NEGATIVE_PRECISION, ids=[" ".join(a) for a in NEGATIVE_PRECISION])
    def test_structured_error(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["command"] == argv[0] and "must be >= 0" in doc["error"]


class TestVerify:
    def test_bch_suite(self, capsys):
        code, doc = run_cli(["verify", "bch", "--degree", "6", "--seed", "7"], capsys)
        assert code == 0 and doc["all_pass"]

    def test_gamma_suite(self, capsys):
        code, doc = run_cli(["verify", "gamma", "--degree", "8"], capsys)
        assert code == 0 and doc["all_pass"]

    def test_inversion_suite(self, capsys):
        code, doc = run_cli(["verify", "inversion", "--degree", "6",
                             "--chi", "3", "--t", "1/4"], capsys)
        assert code == 0 and doc["all_pass"]

    @pytest.mark.parametrize("degree", [7, 8, 9, 10, 11])
    def test_gamma_suite_odd_and_even_degrees(self, degree, capsys):
        code, doc = run_cli(["verify", "gamma", "--degree", str(degree)], capsys)
        assert code == 0 and doc["all_pass"] and doc["degree"] == degree

    @pytest.mark.parametrize("suite", ["bch", "gamma", "inversion"])
    def test_degree_zero_is_not_replaced_by_default(self, suite, capsys):
        code, doc = run_cli(["verify", suite, "--degree", "0"], capsys)
        assert code == 0 and doc["degree"] == 0

    @pytest.mark.parametrize("index", [0, 10])
    def test_perturbed_closed_form_fails_the_bch_suite(self, index, monkeypatch):
        """The one-Y-capped full route still tells a closed form that is off
        by 10^-6 in one b coefficient, at either end of the degree-10 window."""
        exact = cli.bch_reduced

        def perturbed(*args):
            r = exact(*args)
            b = list(r.b)
            b[index] += Fraction(1, 10 ** 6)
            return ReducedSeries(r.degree, r.a, b)

        monkeypatch.setattr(cli, "bch_reduced", perturbed)
        doc = cli.verify_bch(10, 7)
        assert not doc["all_pass"]
        assert {c["discrepancy"] for c in doc["checks"]} == {f"Y*X^{index}"}

    def test_all_suite_passes_its_options_to_every_part(self, capsys):
        code, doc = run_cli(["verify", "all", "--degree", "4", "--chi", "3", "--t", "1/3"], capsys)
        assert code == 0 and doc["suite"] == "all" and doc["all_pass"]
        bch, gamma, inversion = doc["parts"]
        assert [p["suite"] for p in doc["parts"]] == ["bch", "gamma", "inversion"]
        assert [p["degree"] for p in doc["parts"]] == [4, 4, 4]
        assert [c["name"] for c in gamma["checks"]] == ["chi=3"]
        assert {(c["chi"], c["t"]) for c in inversion["checks"]} == {("3", "1/3")}

    @pytest.mark.parametrize("suite", ["bch", "gamma", "inversion", "all"])
    def test_negative_degree_is_structured_error(self, suite, capsys):
        code, doc = run_cli(["verify", suite, "--degree=-1"], capsys)
        assert code == 1
        assert doc == {"command": "verify", "error": "degree must be >= 0"}


# a child interpreter finds the package in src/ whether or not it is installed
SRC = str(Path(__file__).parents[1] / "src")
SRC_ENV = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


class TestContract:
    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elladic.cli", "frobnicate"],
            capture_output=True, env=SRC_ENV,
        )
        assert proc.returncode == 2

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elladic.cli", "bernoulli", "--k", "2", "--zzz"],
            capture_output=True, env=SRC_ENV,
        )
        assert proc.returncode == 2

    def test_byte_identical_output(self, capsys):
        argv = ["verify", "inversion", "--degree", "5", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elladic.cli", "bernoulli", "--k", "0"],
            capture_output=True, env=SRC_ENV,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "1"


GOLDEN = Path(__file__).parent / "golden"


class TestReadmeGolden:
    """Recorded command lines print exactly the recorded bytes.

    Each golden file holds argv, exit status, stdout and (for ``--out``) the
    written file of each case.  ``golden/readme_cli.json`` has the README's
    examples, recorded before the tower constructors were rebuilt on
    ``MeasureTower.from_top``; ``golden/tower.json`` is the ``tower.json`` they
    read.  ``golden/lfunctions_cli.json`` covers the interpolation and
    measure routes of the L-function commands (exact and non-exact weights,
    the beta = 0 pole branch, rational and non-rational characters, domain
    errors), recorded before those routes were folded onto one read-off
    helper and one twist; its cases ``hurwitz --ell 5 --beta 3 --s 3 --i 1
    --m 2`` and ``zinv --ell 5 --beta 1 --s 5 --primes 2,3`` were
    re-recorded when a node that vanishes at an exact weight became the
    exact zero, which those routes had printed as a zero known to some
    digits; its case ``dirichlet --ell 7 --beta 2 --s 8 --psi
    9:1=1,2=3,4=2,8=6,7=4,5=5`` (an odd character at an even weight) was
    re-recorded from ``O(7^22)`` to the exact zero when a generalized
    Bernoulli number of the wrong parity became the exact zero for every
    character.  ``golden/measures_cli.json`` covers ``measure
    validate``, ``pushforward --out``, ``transform --kind p|f`` and
    ``integrate`` (with and without ``--units``; powers, inverses, Teichmuller
    powers, integer, fractional, negative and ``-`` brackets; several levels;
    domain errors) on ``tower.json`` and the rank-2 and rank-3 towers
    ``golden/tower_rank2.json`` and ``golden/tower_rank3.json``, recorded
    before those sums were folded onto one level-sum kernel; its case
    ``integrate --in tower.json --powers 1,1`` was re-recorded when a list
    longer or shorter than the tower rank became a rank-mismatch error.
    """

    CASES = [case for name in ("readme_cli.json", "lfunctions_cli.json", "measures_cli.json")
             for case in json.loads((GOLDEN / name).read_text())]

    @pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
    def test_example_output_is_byte_identical(self, case, tmp_path, monkeypatch, capsys):
        for tower in GOLDEN.glob("tower*.json"):
            shutil.copy(tower, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(case["argv"]) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]
        if "out_file" in case:
            out_path = case["argv"][case["argv"].index("--out") + 1]
            assert (tmp_path / out_path).read_text() == case["out_file"]


TOWER = "tower.json"
ZINV = ["zinv", "--ell", "5", "--beta", "2", "--s", "2"]
INTEGRATE = ["measure", "integrate", "--in", TOWER]
DIRICHLET = ["dirichlet", "--ell", "5", "--beta", "1", "--s", "2"]
REFUSED = [
    (["measure", "transform", "--in", TOWER, "--level=-1"], "level out of range"),
    (["measure", "transform", "--in", TOWER, "--level", "7"], "level out of range"),
    (["measure", "transform", "--in", TOWER, "--kind", "f", "--level", "4"], "level out of range"),
    (["measure", "transform", "--in", TOWER, "--degree=-1"], "degree must be >= 0"),
    (["measure", "transform", "--in", TOWER, "--kind", "f", "--degree=-1"],
     "degree must be >= 0"),
    (["kl", "--ell", "9", "--beta", "0", "--s", "1"], "ell must be an odd prime >= 3, got 9"),
    (["kl", "--ell", "4", "--beta", "0", "--s", "1"], "ell must be an odd prime >= 3, got 4"),
    (ZINV + ["--primes", "1"], "every entry of primes must be a prime, got 1"),
    (ZINV + ["--primes", "4"], "every entry of primes must be a prime, got 4"),
    (ZINV + ["--primes=-3"], "every entry of primes must be a prime, got -3"),
    (ZINV + ["--primes", "2,9"], "every entry of primes must be a prime, got 9"),
    (ZINV + ["--primes", "2,2"], "primes must be distinct"),
    (ZINV + ["--primes", "5"], "primes must differ from ell"),
    (INTEGRATE + ["--powers", "1,7"], "rank mismatch: a rank-1 tower needs 1 --powers entries, got 2"),
    (INTEGRATE + ["--powers", "1,7,9", "--teich", "2,3", "--units"],
     "rank mismatch: a rank-1 tower needs 1 --powers entries, got 3"),
    (INTEGRATE + ["--units", "--inv", "1,0"], "rank mismatch: a rank-1 tower needs 1 --inv entries, got 2"),
    (INTEGRATE + ["--units", "--teich", "1,1"], "rank mismatch: a rank-1 tower needs 1 --teich entries, got 2"),
    (INTEGRATE + ["--units", "--bracket", "1/2,-"],
     "rank mismatch: a rank-1 tower needs 1 --bracket entries, got 2"),
    (["measure", "integrate", "--in", "tower_rank2.json", "--powers", "1"],
     "rank mismatch: a rank-2 tower needs 2 --powers entries, got 1"),
    (["measure", "integrate", "--in", "tower_rank3.json", "--units", "--bracket", "1,2,3,4"],
     "rank mismatch: a rank-3 tower needs 3 --bracket entries, got 4"),
    (["measure", "pushforward", "--in", TOWER], "pushforward needs --matrix"),
    (["teichmuller", "--ell", "5", "--u", "2", "--prec=-1"], "nonzero value needs at least one digit"),
    (["teichmuller", "--ell", "5", "--u", "2", "--prec", "0"], "nonzero value needs at least one digit"),
    (["kl", "--ell", "5", "--beta", "2", "--s", "1/0"], "--s must be a rational number, got '1/0'"),
    (["bernoulli", "--k", "3", "--t", "1/0"], "--t must be a rational number, got '1/0'"),
    (["bernoulli", "--k=-1", "--t", "1/2"], "k must be >= 0"),
    (["verify", "inversion", "--t", "1/0"], "--t must be a rational number, got '1/0'"),
    (["verify", "gamma", "--chi", "1/0"], "--chi must be a rational number, got '1/0'"),
    (INTEGRATE + ["--units", "--bracket", "1/0"], "--bracket must be a rational number, got '1/0'"),
    (DIRICHLET + ["--psi", "3:1=1,2=4,5=1"], "value table entry 5=1: 5 is not a unit in [1, 3)"),
    (DIRICHLET + ["--psi", "3:1=1,2=4,0=3"], "value table entry 0=3: 0 is not a unit in [1, 3)"),
    (DIRICHLET + ["--psi", "3:1=1,2=4,2=1"], "--psi repeats residue 2: 2=4 and 2=1"),
    (DIRICHLET + ["--psi", ":1=1"], "--psi must be m:a=v,... in integers, got ':1=1'"),
    (DIRICHLET + ["--psi", "3:1=1,2"], "--psi must be m:a=v,... in integers, got '3:1=1,2'"),
    (ZINV + ["--primes", "2,x"], "--primes must be comma-separated integers, got '2,x'"),
    (INTEGRATE + ["--powers", "1,x"], "--powers must be comma-separated integers, got '1,x'"),
    (["measure", "pushforward", "--in", TOWER, "--matrix", "a"],
     "--matrix row must be comma-separated integers, got 'a'"),
]


NOT_A_TOWER = 'a tower document is a JSON object with integer "ell" and "rank"'


class TestRefusedInputs:
    """A transform level or degree out of range, a non-prime ell without --c,
    a non-prime zinv modulus entry, an integrand list whose length is not
    the tower rank, a pushforward without --matrix, a teichmuller --prec
    below 1, a rational option or tower value with a zero denominator, an
    integer list option or ``--psi`` that does not parse, a ``--psi`` entry off
    the units or repeating a residue and a tower file of the wrong shape are
    one JSON error document, exit 1."""

    @pytest.mark.parametrize("argv,error", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
    def test_structured_error(self, argv, error, monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"command": argv[0], "error": error}

    @pytest.mark.parametrize("doc,error", [
        ([1, 2], NOT_A_TOWER),
        ({"ell": 5, "rank": "1", "levels": [["1"]]}, NOT_A_TOWER),
        ({"ell": "5", "rank": 1, "levels": [["1"]]}, NOT_A_TOWER),
        ({"ell": 5, "rank": 1, "levels": [[0.5]]},
         '"levels" must be a list of lists of value strings'),
        ({"ell": 5, "rank": 1, "levels": "1"}, '"levels" must be a list of lists of value strings'),
        ({"ell": 5, "rank": 1, "levels": [["1/0"]]}, "a tower value must be a rational number, got '1/0'"),
    ], ids=["list", "string rank", "string ell", "number value", "string levels", "zero denominator"])
    def test_malformed_tower_file(self, doc, error, tmp_path, capsys):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(doc))
        code = main(["measure", "validate", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"command": "measure", "error": error}
