import argparse
import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from elladic import bernoulli, cli, lfunctions, ncseries, padic
from elladic.cli import main
from elladic.measures import bernoulli_measure, tower_to_json
from elladic.ncseries import ReducedSeries, _conv, _Poly


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
        """The power sums in the quotient algebra tell a closed form that is
        off by 10^-6 in one b coefficient, at either end of the degree-10
        window."""
        exact = ncseries.bch_reduced

        def perturbed(*args):
            r = exact(*args)
            b = list(r.b)
            b[index] += Fraction(1, 10 ** 6)
            return ReducedSeries(r.degree, r.a, b)

        monkeypatch.setattr(ncseries, "bch_reduced", perturbed)
        doc = ncseries.verify_bch(10, 7)
        assert not doc["all_pass"]
        assert {c["discrepancy"] for c in doc["checks"]} == {f"Y*X^{index}"}

    def test_product_without_constant_term_fails_the_bch_suite(self, monkeypatch):
        """A quotient product that drops a1(0) b2 from (a1 + Y b1)(a2 + Y b2)
        breaks the mechanical route of the bch suite, which the closed form
        does not use.  The exp and log power sums do not run through the
        product, so the term is read only in e^A e^B, where a1(0) = 1 and b2
        is the Y-part of e^B: every check fails but ``yx-closed-form``, whose
        B = X has none."""

        def broken(self, p, q):
            n = self.degree + 1
            return [_conv(p[0], q[0], n), _conv(p[1], q[0], n)]

        monkeypatch.setattr(ReducedSeries, "_product", broken)
        doc = ncseries.verify_bch(10, 7)
        passed = [c["name"] for c in doc["checks"] if c["pass"]]
        assert not doc["all_pass"] and passed == ["yx-closed-form"]
        assert ({c["discrepancy"] for c in doc["checks"] if not c["pass"]}
                == {"Y*X^0", "Y*X^1"})

    @pytest.mark.parametrize("index", [0, 8])
    def test_perturbed_closed_form_fails_the_inversion_suite(self, index, monkeypatch):
        """The group-product chain and the closed form share their integer
        tables, yet a closed form off by 10^-6 in Y X^0 or Y X^D is told."""
        exact = ncseries.inversion_closed_form

        def perturbed(a, chi, t, D):
            return exact(a, chi, t, D) + ReducedSeries(D, None, [0] * index + [Fraction(1, 10 ** 6)])

        monkeypatch.setattr(ncseries, "inversion_closed_form", perturbed)
        doc = ncseries.verify_inversion(8, 7)
        assert not doc["all_pass"] and not any(c["pass"] for c in doc["checks"])
        assert {c["discrepancy"] for c in doc["checks"]} == {f"Y*X^{index}"}

    def test_perturbed_display_fails_the_inversion_suite(self, monkeypatch):
        exact = ncseries._display_table

        def perturbed(chi, t, D):
            return exact(chi, t, D) + _Poly(D, [0, 0, 0, Fraction(1, 10 ** 6)])

        monkeypatch.setattr(ncseries, "_display_table", perturbed)
        doc = ncseries.verify_inversion(8, 7)
        assert not doc["all_pass"] and not any(c["pass"] for c in doc["checks"])
        assert {c["discrepancy"] for c in doc["checks"]} == {None}

    @staticmethod
    def count_pair_work(monkeypatch) -> dict:
        """Counters of the per-(chi, t) work of ``verify_inversion``: the
        chain's parts, and inside them the loop, the quotient exps and the
        chain's kernel at t = 0 (the closed form builds its own kernel at
        t), and the loop's display check."""
        calls = {"bch_scaled_pair": 0, "_display_table": 0, "_inversion_parts": 0,
                 "exp": 0, "chain_kernel": 0}

        def counted(owner, name, key, when=lambda *args: True):
            exact = getattr(owner, name)

            def wrapper(*args):
                calls[key] += when(*args)
                return exact(*args)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("bch_scaled_pair", "_display_table", "_inversion_parts"):
            counted(ncseries, name, name)
        counted(ReducedSeries, "exp", "exp")
        counted(ncseries, "_kernel_table", "chain_kernel", lambda chi, t, D: t == 0)
        return calls

    def test_inversion_builds_each_loop_once(self, monkeypatch):
        """With --chi and --t every check shares one (chi, t): its loop,
        display check and chain parts are computed once, not once per check."""
        calls = self.count_pair_work(monkeypatch)
        doc = ncseries.verify_inversion(9, 7, chi=3, t="2/7")
        assert doc["all_pass"] and len(doc["checks"]) == 10
        assert calls == {"bch_scaled_pair": 1, "_display_table": 1, "_inversion_parts": 1,
                         "exp": 2, "chain_kernel": 1}

    @pytest.mark.parametrize("chi", [None, 3])
    def test_inversion_builds_each_pair_once(self, chi, monkeypatch):
        """Without --t each distinct (chi, t) has its loop, display check and
        chain parts computed once; seed 7 repeats a pair either way."""
        calls = self.count_pair_work(monkeypatch)
        doc = ncseries.verify_inversion(6, 7, chi=chi)
        pairs = len({(c["chi"], c["t"]) for c in doc["checks"]})
        assert doc["all_pass"] and pairs < len(doc["checks"]) == 10
        assert calls == {"bch_scaled_pair": pairs, "_display_table": pairs,
                         "_inversion_parts": pairs, "exp": 2 * pairs, "chain_kernel": pairs}

    def test_discrepancy_in_the_a_row(self):
        doc = ncseries._check("x", ReducedSeries(3, [0, 1, 2], [1]), ReducedSeries(3, [0, 1, 3], [1]))
        assert doc == {"name": "x", "pass": False, "discrepancy": "X^2"}

    def test_series_of_different_degrees_never_pass(self):
        """Series whose common coefficients agree but whose degrees differ are
        unequal, and the check says where."""
        doc = ncseries._check("x", ReducedSeries(3, [0, 1], [1]), ReducedSeries(4, [0, 1], [1]))
        assert doc == {"name": "x", "pass": False, "discrepancy": "degree 3 vs 4"}

    def test_perturbed_kernel_fails_the_gamma_suite(self, monkeypatch):
        exact = ncseries._kernel_table

        def perturbed(chi, t, D):
            return exact(chi, t, D) + _Poly(D, [0] * D + [Fraction(1, 10 ** 6)])

        monkeypatch.setattr(ncseries, "_kernel_table", perturbed)
        doc = ncseries.verify_gamma(10, 7)
        assert not doc["all_pass"] and not any(c["pass"] for c in doc["checks"])

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

    @pytest.mark.parametrize("argv", [["teichmuller", "--ell=--", "--u", "2"],
                                      ["kl", "--ell", "5", "--beta", "2", "--s=--"]])
    def test_option_given_as_double_dash_is_a_usage_error(self, argv, capsys):
        """Python 3.11's argparse reads ``--opt=--`` as an option with no
        value; it reached the handlers as an empty list and raised."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "an option given as --opt=-- has no value" in captured.err

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
    character; its five cases at beta = 0, s = 0 (two ``kl``, ``minus-one``,
    ``hurwitz`` and ``zinv``) were re-recorded from a value ``O(ell^-3)`` to
    the pole refusal, and ``zinv --ell 5 --beta 2 --s 2 --primes 4999999``
    was appended, with the bytes it printed as a sum over the units below m,
    when the Z[1/m] node became the zeta node times Euler factors; its two
    ``dirichlet --beta 0 --s 0`` cases were re-recorded from ``O(ell^0)`` to
    ``O(ell^2)`` when ``dirichlet``, which has no pole, stopped losing v(k)
    digits to one.
    ``golden/measures_cli.json`` covers ``measure
    validate``, ``pushforward --out``, ``transform --kind p|f`` and
    ``integrate`` (with and without ``--units``; powers, inverses, Teichmuller
    powers, integer, fractional, negative and ``-`` brackets; several levels;
    domain errors) on ``tower.json`` and the rank-2 and rank-3 towers
    ``golden/tower_rank2.json`` and ``golden/tower_rank3.json``, recorded
    before those sums were folded onto one level-sum kernel; its case
    ``integrate --in tower.json --powers 1,1`` was re-recorded when a list
    longer or shorter than the tower rank became a rank-mismatch error.
    ``golden/verify_cli.json`` covers ``verify bch|gamma|inversion|all`` at
    degrees 0-12 (gamma also 14 and 16) over seeds 1-3, without options and
    with ``--chi`` (0, 1, -1 and other rationals) and ``--t`` (0 among
    them), recorded before the quotient algebra moved to integer tables;
    its cases ``verify bch`` at degrees 11-16 (seeds 4 and 1-3) and ``verify
    inversion`` at degrees 13-16 (without options, with ``--chi``, with
    ``--t`` and with both) were added before the quotient power sum took one
    convolution per power and ``verify inversion`` built each (chi, t) pair's
    loop once, using ``golden/record.py``.
    ``golden/towers_cli.json`` covers ``measure validate``, ``pushforward``
    (with and without ``--out``), ``integrate`` (with and without
    ``--units``, ``--teich``, ``--inv`` and ``--bracket``; one domain error
    per tower) and ``transform --kind p|f`` at every level, on one tower file
    per benchmark tower shape (``golden/tower_ell*_rank*.json``: rank 1-3,
    ell 3-7), ``tower_ell5_rank2.json`` spelling its values unreduced, signed,
    padded and as decimals; it was recorded before the tower files were read
    into integer tables and the moments contracted one axis at a time.  Its
    cases on ``golden/tower_spelled_*.json`` (levels mixing plain values with
    unreduced, signed, zero-padded, space-padded, underscored, decimal and
    non-ASCII spellings), on ``golden/tower_refused_*.json`` (``1/-2``,
    ``1/+2``, ``1/0``, ``1,2``, ``""``, a numeral past ``int()``'s digit
    limit and other refused values after a plain level) and ``pushforward
    --out`` with singular and negative matrices at rank 1-3 were added, with
    ``golden/record.py``, before each level was read in bulk and the
    pushforward and restriction mapped cells through per-axis coordinate
    lists.
    ``golden/bernoulli_cli.json`` covers ``bernoulli --k`` for k across
    0-600, with and without ``--t`` (0, 1/2, -3/7, 22/5 and 5), and the
    interpolation routes of ``kl --method interp``, ``hurwitz``,
    ``dirichlet`` (rational and non-rational characters) and ``zinv`` at
    weights 170-1000 and ell 3-13, with exact and non-exact s; it was
    recorded before the Bernoulli numbers moved to an integer tangent-number
    table and every B_k(a/f) sum to one integer kernel; its case ``dirichlet
    --ell 5 --beta 0 --s=-20/9 ... --prec 3`` was re-recorded from
    ``O(5^2)`` to ``O(5^3)`` when ``dirichlet`` stopped losing v(k) digits to
    a pole it does not have.
    ``golden/measure_route_cli.json`` covers ``kl`` and ``minus-one --method
    measure`` at ell 3-13 (levels 1-6 at ell 3-7, 1-5 at ell 11 and 13, and
    ``--level 8`` at ell 5), every beta (odd beta, whose value vanishes, included), integer and
    fractional s, the default, explicit, negative, degenerate and non-unit
    c, several ``--prec`` and the domain errors; it was recorded before the
    unit integral summed half the units over one cached row per (c, ell,
    level).  Its four cases at beta = 0, s = 0 were re-recorded from
    "regularizer degenerate", which no c could mend, to the pole refusal.
    ``golden/usage_cli.json`` covers the parser's edge cases, with their
    stderr and exit status: no argv, unknown commands, an option before the
    command, ``-h`` and ``--help``, missing required options and
    positionals, invalid values, unrecognized trailing options and
    positionals, ``--opt=--``, abbreviated and ambiguous options, ``--`` in
    every place and duplicated options; it was recorded, at ``COLUMNS=80``,
    before ``main`` sent an argv that names a command straight to that
    command's parser.
    """

    CASES = [case for name in ("readme_cli.json", "lfunctions_cli.json", "measures_cli.json",
                               "verify_cli.json", "towers_cli.json", "bernoulli_cli.json",
                               "measure_route_cli.json", "usage_cli.json")
             for case in json.loads((GOLDEN / name).read_text())]

    @pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
    def test_example_output_is_byte_identical(self, case, tmp_path, monkeypatch, capsys):
        for tower in GOLDEN.glob("tower*.json"):
            shutil.copy(tower, tmp_path)
        monkeypatch.chdir(tmp_path)
        # argparse wraps its usage text at the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            case["exit"], case["stdout"], case.get("stderr", ""))
        if "out_file" in case:
            out_path = case["argv"][case["argv"].index("--out") + 1]
            assert (tmp_path / out_path).read_text() == case["out_file"]


@pytest.mark.skipif(shutil.which("git") is None or not (GOLDEN.parents[1] / ".git").exists(),
                    reason="needs a git checkout")
def test_record_diff_against_head_reports_no_difference():
    """``golden/record.py --diff HEAD`` runs each command under HEAD's src
    and the working tree's, in child processes, and adds no git worktree."""
    commands = ("verify bch --degree 4 --seed 2\n# a comment\n\n"
                "bernoulli --k 12\nverify bch --degree 4 --seed 2\n"
                "measure transform --in tower_rank2.json --degree 3\n")
    worktrees = subprocess.run(["git", "-C", str(GOLDEN), "worktree", "list"],
                               capture_output=True, text=True, check=True).stdout
    proc = subprocess.run([sys.executable, str(GOLDEN / "record.py"), "--diff", "HEAD"],
                          input=commands, capture_output=True, text=True, env=SRC_ENV)
    assert (proc.returncode, proc.stdout) == (0, "")
    assert proc.stderr == "0 differing argv against HEAD\n"
    assert subprocess.run(["git", "-C", str(GOLDEN), "worktree", "list"],
                          capture_output=True, text=True, check=True).stdout == worktrees


def test_workload_argv_prints_runnable_requests_and_keeps_the_tower_files(tmp_path, capsys):
    """``golden/workload_argv.py`` prints one line per request of the seeded
    rounds; the tower files it names stay in --dir and every request runs."""
    workdir = tmp_path / "towers"
    proc = subprocess.run([sys.executable, str(GOLDEN / "workload_argv.py"), "--workload",
                           "towers", "--seed", "5", "--rounds", "2", "--dir", str(workdir)],
                          capture_output=True, text=True, check=True)
    argvs = [shlex.split(line) for line in proc.stdout.splitlines()]
    # five requests per tower file and round
    assert len(argvs) == 2 * 5 * len(list(workdir.glob("tower*.json"))) > 0
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    capsys.readouterr()


CORPORA = ["bernoulli_cli", "lfunctions_cli", "measure_route_cli", "measures_cli", "readme_cli",
           "towers_cli", "usage_cli", "verify_cli"]


@pytest.mark.parametrize("corpus", CORPORA)
def test_each_corpus_has_its_argv_list(corpus):
    """``golden/<corpus>.argv`` holds the corpus's command lines, one
    shell-quoted line per case, in the corpus's order."""
    lines = (GOLDEN / f"{corpus}.argv").read_text().splitlines()
    cases = json.loads((GOLDEN / f"{corpus}.json").read_text())
    assert [shlex.split(line) for line in lines] == [case["argv"] for case in cases]


def test_interpolation_routes_run_no_exact_kernel(tmp_path, monkeypatch, capsys):
    """Over 220 seeded ``lvalue-interp`` requests (seed 3, 20 rounds) every
    hurwitz and dirichlet node is read from Bernoulli residues (the kl and
    zinv nodes read B_k off the table): the exact kernel runs once, for the
    one node that is exactly 0 where no symmetry shows it, hurwitz_node(1, 1,
    6, 13) (1/13 = 1 mod 6), through the fallback."""
    proc = subprocess.run([sys.executable, str(GOLDEN / "workload_argv.py"), "--workload",
                           "lvalue-interp", "--seed", "3", "--rounds", "20", "--dir",
                           str(tmp_path)], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    exact = []
    kernel = bernoulli._bernoulli_sums

    def counted(k, f, groups, modulus=None):
        if modulus is None:
            exact.append((line, k, f, groups))
        return kernel(k, f, groups, modulus)

    monkeypatch.setattr(bernoulli, "_bernoulli_sums", counted)
    monkeypatch.setattr(lfunctions, "_bernoulli_sums", counted)
    for line in lines:
        assert main(shlex.split(line)) == 0
    capsys.readouterr()
    assert len(lines) == 220
    assert exact == [("hurwitz --ell 13 --beta 1 --s=18/5 --i 1 --m 6 --prec 1", 1, 6, [[1], [1]])]
    assert lfunctions.hurwitz_node(1, 1, 6, 13) == 0


def test_interpolation_residues_match_the_exact_kernel(tmp_path, monkeypatch, capsys):
    """Over 330 seeded ``lvalue-interp`` requests (seed 3, 30 rounds), every
    modular kernel call returns the exact kernel's group numerators
    D f^k sum B_k(a/f) reduced mod its modulus, with the table's D; more than
    100 distinct requests (the hurwitz and dirichlet ones) reach it."""
    proc = subprocess.run([sys.executable, str(GOLDEN / "workload_argv.py"), "--workload",
                           "lvalue-interp", "--seed", "3", "--rounds", "30", "--dir",
                           str(tmp_path)], capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    kernel = bernoulli._bernoulli_sums
    checked = []

    def compared(k, f, groups, modulus=None):
        got = kernel(k, f, groups, modulus)
        if modulus is not None:
            d, nums = got
            scale = d * f ** k
            exact = [scale * x for x in kernel(k, f, groups)]
            assert d == bernoulli._TABLE[0] and all(x.denominator == 1 for x in exact)
            assert nums == [int(x) % modulus for x in exact], (line, k, f, groups, modulus)
            checked.append(line)
        return got

    monkeypatch.setattr(bernoulli, "_bernoulli_sums", compared)
    monkeypatch.setattr(lfunctions, "_bernoulli_sums", compared)
    for line in lines:
        assert main(shlex.split(line)) == 0
    capsys.readouterr()
    assert len(lines) == 330 and len(set(checked)) > 100


@pytest.mark.parametrize("argv", [
    ["hurwitz", "--ell", "5", "--beta", "5", "--s", "2", "--i", "1", "--m", "3"],
    ["dirichlet", "--ell", "7", "--beta", "-3", "--s", "1/2", "--psi", "3:1=1,2=6"],
    ["zinv", "--ell", "11", "--beta", "24", "--s", "2", "--prec", "3", "--primes", "2"],
], ids=["hurwitz beta ell", "dirichlet beta -3", "zinv beta 24"])
def test_beta_outside_its_range_is_refused_before_any_work(argv, capsys):
    """Every interpolated family refuses a beta outside [0, ell-1) as ``kl``
    does, before its node: zinv's weight-2664 node is never built."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 0.5
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"command": argv[0], "error": "beta must lie in [0, ell-1)"}


def test_primality_of_ell_is_decided_once(monkeypatch, capsys):
    """A Z[1/m] request at ell = 4294967291 builds dozens of values at that
    ell; trial division runs once for ell and once for the prime 3, and a
    composite ell is still refused every time."""
    calls = []
    real = padic.is_odd_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(padic, "is_odd_prime", counted)
    monkeypatch.setattr(lfunctions, "is_odd_prime", counted)
    padic._check_prime.cache_clear()
    argv = ["zinv", "--ell", "4294967291", "--beta", "2", "--s", "2", "--primes", "2,3"]
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(calls) == [3, 4294967291]
    for _ in range(2):
        with pytest.raises(ValueError, match="^ell must be an odd prime >= 3, got 9$"):
            padic.PadicNum(9, 0, 1, 1)
    assert calls[2:] == [9, 9]


def test_minus_one_interp_reads_no_level(capsys):
    """The interpolation route reads no --level: ``minus-one --method interp
    --level 5000`` is served, as the same ``kl`` argv is, with the value of
    the default level, in one JSON document and at once."""
    argv = ["minus-one", "--ell", "5", "--beta", "2", "--s", "2", "--method", "interp"]
    start = time.perf_counter()
    code = main(argv + ["--level", "5000"])
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") == 1 and "error" not in json.loads(out)
    assert main(argv) == 0
    assert capsys.readouterr().out == out


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
    (["kl", "--ell", "5", "--beta", "0", "--s", "2", "--level", "40"],
     "depth too large: ell^depth must be at most 1000000 cells"),
    (["kl", "--ell", "5", "--beta", "1", "--s", "2", "--level", "40"],
     "depth too large: ell^depth must be at most 1000000 cells"),
    (["minus-one", "--ell", "5", "--beta", "2", "--s", "2", "--level", "40"],
     "depth too large: ell^depth must be at most 1000000 cells"),
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
    a measure-route level past the cell budget,
    a non-prime zinv modulus entry, an integrand list whose length is not
    the tower rank, a pushforward without --matrix, a teichmuller --prec
    below 1, a rational option or tower value with a zero denominator, an
    integer list option or ``--psi`` that does not parse, a ``--psi`` entry off
    the units or repeating a residue, a tower file of the wrong shape and a
    tower rank past the cell budget are one JSON error document, exit 1."""

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
        ({"ell": 5, "rank": 1}, '"levels" must be a list of lists of value strings'),
        ({"ell": 5, "rank": 1, "levels": [["1/0"]]}, "a tower value must be a rational number, got '1/0'"),
        ({"ell": 5, "rank": 1, "levels": [["1/-2"]]},
         "a tower value must be a rational number, got '1/-2'"),
        ({"ell": 5, "rank": 1, "levels": [["2/4"]]}, None),
        ({"ell": 5, "rank": 1, "levels": [["0.5"]]}, None),
        ({"ell": 5, "rank": 1, "levels": [["1e1"]]}, None),
        ({"ell": 5, "rank": 1, "levels": [[" 1_0 "]]}, None),
    ], ids=["list", "string rank", "string ell", "number value", "string levels", "no levels",
            "zero denominator", "negative denominator", "unreduced", "decimal", "exponent",
            "padded underscore"])
    def test_malformed_tower_file(self, doc, error, tmp_path, capsys):
        """Every spelling that ``Fraction`` reads is a tower value: ``None``
        marks a file that validates."""
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(doc))
        code = main(["measure", "validate", "--in", str(path)])
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        if error is None:
            assert code == 0
            assert json.loads(out) == {"action": "validate", "valid": True,
                                       "denom_exponent": 0, "depth": 0, "rank": 1}
        else:
            assert code == 1
            assert json.loads(out) == {"command": "measure", "error": error}

    @pytest.mark.parametrize("action", [
        ["validate"], ["integrate"], ["transform", "--degree", "1"], ["pushforward", "--matrix", "1"],
    ], ids=["validate", "integrate", "transform", "pushforward"])
    def test_huge_rank_is_refused_before_any_work(self, action, tmp_path, capsys):
        """A rank-10^9 tower would need rank-long lists and index tuples; it is
        refused by the cell budget, at once."""
        path = tmp_path / "tower.json"
        path.write_text('{"ell":3,"rank":1000000000,"levels":[["1"]]}')
        start = time.perf_counter()
        code = main(["measure", action[0], "--in", str(path)] + action[1:])
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out) == {"command": "measure",
                                   "error": "rank too large: 3^rank must be at most 1000000 cells"}

    @pytest.mark.parametrize("argv,error", [
        (["kl", "--ell", "5", "--beta", "1", "--s", "1/2", "--method", "interp",
          "--prec", "100000000"],
         "precision too large: the weight k = s mod ell^M must be at most 4096"),
        (["kl", "--ell", "13", "--beta", "2", "--s", "5/3", "--method", "interp", "--prec", "4"],
         "precision too large: the weight k = s mod ell^M must be at most 4096"),
        (["teichmuller", "--u", "2", "--ell", "5", "--prec", "100000000"],
         "precision too large: ndigits must be at most 1000 digits"),
        (["bernoulli", "--k", "100000"], "weight too large: k must be at most 4096"),
        (["teichmuller", "--ell", "2305843009213693951", "--u", "2", "--prec", "1"],
         "prime too large: primality is decided up to 4294967296, got 2305843009213693951"),
        (["kl", "--ell", "2305843009213693951", "--beta", "2", "--s", "2", "--method", "interp"],
         "prime too large: primality is decided up to 4294967296, got 2305843009213693951"),
        (["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "1009,1013,1019"],
         "modulus too large: m must be at most 10000000"),
        (["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "2305843009213693951"],
         "modulus too large: m must be at most 10000000"),
        (["dirichlet", "--ell", "5", "--beta", "1", "--s", "2", "--psi", "4000000037:1=1"],
         "modulus too large: m^2 must be at most 1000000"),
    ], ids=["kl prec 10^8", "kl ell 13 prec 4", "teichmuller prec 10^8", "bernoulli k 10^5",
            "teichmuller ell 2^61-1", "kl ell 2^61-1", "zinv three four-digit primes",
            "zinv prime 2^61-1", "dirichlet 10-digit modulus"])
    def test_runaway_weight_or_digits_is_refused_before_any_work(self, argv, error, capsys):
        """Each would run for minutes or exhaust memory: an exact Bernoulli
        number at k = 238010 or past 10^5, ell^(10^8), trial division to
        sqrt(2^61 - 1) (a Z[1/m] modulus past 10^7 is refused before its
        entries are tested), or the unit list and table check of a 10-digit
        modulus."""
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 2
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"command": argv[0], "error": error}

    @pytest.mark.parametrize("argv,error", [
        (["verify", "gamma", "--degree", "4097"], "degree too large: --degree must be at most 32"),
        (["verify", "bch", "--degree", "100000"], "degree too large: --degree must be at most 32"),
        (["verify", "all", "--degree", "100000"], "degree too large: --degree must be at most 32"),
        (["kl", "--ell", "5", "--beta", "2", "--s", "2", "--method", "interp",
          "--prec", "100000000"], "precision too large: --prec must be at most 1000"),
        (["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "2", "--prec", "100000000"],
         "precision too large: --prec must be at most 986"),
        (["minus-one", "--ell", "5", "--beta", "2", "--s", "2", "--method", "measure",
          "--prec", "100000000"], "precision too large: --prec must be at most 996"),
        (["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "2", "--prec", "990"],
         "precision too large: --prec must be at most 986"),
    ], ids=["gamma degree 4097", "bch degree 10^5", "all degree 10^5", "kl exact prec 10^8",
            "zinv exact prec 10^8", "minus-one measure prec 10^8", "zinv exact prec 990"])
    def test_runaway_degree_or_precision_is_refused_before_any_work(self, argv, error, capsys):
        """A verify degree past the degree budget (a Bernoulli table grown to
        its limit, or a bch power sum at degree 10^5), and a --prec whose
        work digits pass the digit budget (ell^(10^8) at an exact weight), are
        refused at once."""
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 2
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"command": argv[0], "error": error}

    @pytest.mark.parametrize("argv", [
        ["verify", "bch", "--degree", "32"],
        ["kl", "--ell", "5", "--beta", "2", "--s", "2", "--method", "interp", "--prec", "1000"],
        ["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "2", "--prec", "986"],
        ["minus-one", "--ell", "5", "--beta", "2", "--s", "2", "--method", "measure",
         "--prec", "996"],
        ["kl", "--ell", "10007", "--beta", "2", "--s", "2", "--method", "interp"],
    ], ids=["bch degree 32", "kl prec 1000", "zinv prec 986", "minus-one prec 996",
            "kl ell 10007"])
    def test_the_largest_degree_or_precision_in_budget_is_served(self, argv, capsys):
        """Each is served in under 2 s; at ell = 10007 the default regulariser
        is found without the order of each candidate mod ell^2."""
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 2
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and "error" not in doc

    def test_a_prime_modulus_near_the_budget_is_served_at_once(self, capsys):
        """The Z[1/m] node is B_k times one Euler factor per prime, so a
        modulus near 10^7 costs no more than m = 2."""
        start = time.perf_counter()
        code = main(["zinv", "--ell", "5", "--beta", "2", "--s", "2", "--primes", "4999999"])
        assert time.perf_counter() - start < 1
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["sign"] == -1

    @pytest.mark.parametrize("kind", ["p", "f"])
    def test_huge_transform_degree_is_refused_before_any_work(self, kind, tmp_path, capsys):
        """C(10^5 + 3, 3) total-degree index tuples are past the cell budget;
        the request is refused before any tuple is built."""
        path = tmp_path / "tower.json"
        path.write_text('{"ell":3,"rank":3,"levels":[["1"]]}')
        start = time.perf_counter()
        code = main(["measure", "transform", "--in", str(path), "--kind", kind,
                     "--degree", "100000"])
        assert time.perf_counter() - start < 3
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "command": "measure",
            "error": "degree too large: C(degree+rank, rank) must be at most 1000000 index tuples"}


# -- argv fuzzing ---------------------------------------------------------------


def outcome(route, argv) -> tuple:
    """(exit status, stdout, stderr) of ``route(argv)``; a usage error ends
    it with ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = route(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_args_route(argv) -> int:
    """The oracle for ``main``: the top-level parser's ``parse_args`` over the
    whole argv, whose subparsers action runs the command's parser over the
    same tokens again, then the request served as ``main`` serves it."""
    parser, _ = cli.build_parser()
    return cli._serve(parser, parser.parse_args(argv))


def subcommands() -> dict:
    """Each command of the command map ``main`` dispatches on, with its
    parser's actions, less ``--help``."""
    _, commands = cli.build_parser()
    return {name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in commands.items()}


SUBCOMMANDS = subcommands()
# every request stays small: these options are always given, and no drawn
# integer passes its bound but the huge primes, which every route refuses or
# serves at once
SIZE_BOUNDS = {"--ell": 13, "--level": 4, "--degree": 6, "--prec": 20}
INTEGERS = {"--ell": st.sampled_from([3, 5, 7, 11, 13]), "--level": st.integers(1, 4),
            "--degree": st.integers(0, 6), "--prec": st.integers(1, 20),
            "--beta": st.integers(0, 4), "--m": st.integers(2, 9)}
NOT_INTEGERS = ["1/0", "", "x", "0.5", "--"]
# a prime whose regulariser an order loop mod ell^2 took seconds to find, and
# one past the prime budget
HUGE_PRIMES = ["10007", "2305843009213693951"]
HOSTILE = ["0", "-1", "-7", "1/0", "0/0", "-3/4", "", "x", "\u0663", "1e2", ",", ";", ":", "=", "-", "--"]
TEXTS = {
    "--s": ["2", "7/3", "1/2", "-5"],
    "--t": ["1/3", "-2"],
    "--chi": ["2", "1/2", "-1"],
    "--psi": ["4:1=1,3=-1", "3:1=1,2=2", "5:2=1", "0:", "1:", "-4:1=1"],
    "--primes": ["2", "2,3", "3,7", "-2", "1"],
    "--matrix": ["1,0;0,1", "2", "1,1;0,1", "0;1", "1,0,0;0,1,0;0,0,1"],
    "--powers": ["1", "0,2", "1,1,1"],
    "--teich": ["1", "0,3", "-1"],
    "--inv": ["1", "1,0", "2"],
    "--bracket": ["2", "-", "1/2,-", "-,-,-"],
    "--in": [str(GOLDEN / name) for name in ("tower.json", "tower_rank2.json", "tower_rank3.json")],
}
# tokens no command's parser reads, so the top-level parser must refuse them
LEFTOVERS = ["extra", "--zzz", "--zzz=1", "--", "-x"]
BAD_FILES = [str(GOLDEN / name) for name in (
    "tower_refused_zero_den.json", "readme_cli.argv", "missing.json", "")] + [str(GOLDEN)]


@st.composite
def argvs(draw, out_dir):
    """An argv of one subcommand: each positional choice and option value is
    mostly one the command can serve (its choices, small integers, sample
    text) and otherwise hostile; a required option is at times left out,
    and a token the command does not read is at times added at the end."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]:
        option = action.option_strings[0] if action.option_strings else None
        if option and option not in SIZE_BOUNDS and draw(st.integers(0, 9)) < (1 if action.required else 5):
            continue
        if action.nargs == 0:
            argv.append(option)
            continue
        if action.choices:
            good, bad = st.sampled_from(list(action.choices)), st.just("bogus")
        elif action.type is int:
            good = INTEGERS.get(option, st.integers(0, 30)).map(str)
            bad = st.integers(-3, SIZE_BOUNDS.get(option, 30)).map(str) | st.sampled_from(
                NOT_INTEGERS + HUGE_PRIMES * (option == "--ell"))
        elif option == "--out":
            good = st.just(str(out_dir / "out.json"))
            bad = st.sampled_from([str(out_dir), str(out_dir / "no" / "out.json")])
        else:
            good = st.sampled_from(TEXTS.get(option, ["1"]))
            bad = st.sampled_from(BAD_FILES if option == "--in" else
                                  HOSTILE + HUGE_PRIMES * (option == "--primes"))
        value = draw(draw(st.sampled_from([good, good, good, bad])))
        if option is None:
            argv.append(value)
        else:
            argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(LEFTOVERS)))
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_argv_exits_with_one_json_document_or_usage(out_dir, data):
    """Any argv built from the parser's own subcommands and options exits 0
    or 1 with exactly one JSON document on stdout, or 2 with argparse usage
    on stderr, and raises nothing else; ``parse_args_route`` gives the same
    exit status, stdout and stderr."""
    argv = data.draw(argvs(out_dir))
    code, out, err = outcome(main, argv)
    if code == 2:
        assert out == "" and err.startswith("usage: elladic"), argv
    else:
        assert code in (0, 1), argv
        assert out.count("\n") == 1, argv
        doc = json.loads(out)
        assert "error" not in doc or code == 1, argv
    assert outcome(parse_args_route, argv) == (code, out, err), argv


USAGE_ARGV = [shlex.split(line) for line in (GOLDEN / "usage_cli.argv").read_text().splitlines()]


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=map(" ".join, USAGE_ARGV))
def test_main_answers_every_usage_case_as_the_top_level_parser_does(argv, tmp_path, monkeypatch):
    """The parser edge cases of ``golden/usage_cli.argv`` (no argv, unknown
    commands, ``-h``, leftover options and positionals, ``--opt=--``,
    abbreviations, ``--``, repeats) give the bytes of ``parse_args_route``."""
    for tower in GOLDEN.glob("tower*.json"):
        shutil.copy(tower, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert outcome(main, argv) == outcome(parse_args_route, argv)


def test_each_served_request_is_parsed_once(monkeypatch, capsys):
    """``main`` sends an argv that names a command to that command's parser
    alone; the top-level parser's ``parse_args`` would parse it twice."""
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    tower = str(GOLDEN / "tower.json")
    for argv in (["kl", "--ell", "5", "--beta", "2", "--s", "2", "--level", "3"],
                 ["verify", "bch", "--degree", "3"],
                 ["measure", "validate", "--in", tower]):
        calls.clear()
        assert main(argv) == 0
        assert calls == [f"elladic {argv[0]}"]
    calls.clear()
    assert outcome(parse_args_route, ["bernoulli", "--k", "2"])[0] == 0
    assert calls == ["elladic", "elladic bernoulli"]
    capsys.readouterr()
