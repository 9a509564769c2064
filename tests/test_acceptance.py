"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from elladic.bernoulli import bernoulli_number, bernoulli_poly
from elladic.lfunctions import (
    DirichletCharacter,
    classical_dirichlet_special,
    dirichlet_node,
    hurwitz_node,
    hurwitz_l,
    kl_node,
    kubota_leopoldt,
    zinv_node,
    zinv_report,
)
from elladic.measures import (
    MeasureTower,
    Word,
    bernoulli_measure,
    congruence_check,
    pushforward_linear,
    random_bounded_tower,
)
from elladic.padic import _frac_val
from elladic.transforms import f_transform, measure_from_p_series, p_series_to_f, p_transform
from elladic.cli import verify_bch, verify_gamma, verify_inversion

from test_transforms import _compose_f_with_matrix, _max_fact_val

F = Fraction


def report(n, text):
    print(f"\n[acceptance] criterion {n:2d}: PASS - {text}")


def frac_val(q, ell):
    return math.inf if q == 0 else _frac_val(F(q), ell)


def test_criterion_01_exact_bernoulli_suite():
    t0 = time.time()
    # recurrence oracle: Akiyama-Tanigawa triangle (independent algorithm)
    a = [F(0)] * 31
    oracle = []
    for m in range(31):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        oracle.append(a[0])
    oracle[1] = -oracle[1]
    for k in range(31):
        assert bernoulli_number(k) == oracle[k]

    for m in range(2, 9):
        for k in range(11):
            s = sum(bernoulli_poly(k, F(i, m)) for i in range(m))
            assert F(m) ** (k - 1) * s == bernoulli_number(k)

    for m in (6, 10, 15, 30):
        primes = [p for p in (2, 3, 5) if m % p == 0]
        for k in (2, 4, 6, 8, 10):
            total = sum(
                bernoulli_poly(k, F(i, m))
                for i in range(1, m)
                if math.gcd(i, m) == 1
            )
            want = bernoulli_number(k)
            for p in primes:
                want *= F(1 - p ** (k - 1), p ** (k - 1))
            assert total == want
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.2f}s"
    report(1, f"exact Bernoulli suite ({elapsed:.2f}s)")


def test_criterion_02_bernoulli_measure_towers():
    checked = 0
    for ell in (3, 5, 7):
        for c in (2, 3):
            if c % ell == 0:
                with pytest.raises(ValueError, match="not a unit"):
                    bernoulli_measure(c, ell, 2)
                continue
            E = bernoulli_measure(c, ell, 5)
            # re-validate explicitly from raw tables
            again = MeasureTower(ell, 1, [list(t) for t in E.levels])
            assert again.denom_exponent == 0
            for n in range(1, 6):
                m = ell ** n
                for i in range(1, m):
                    assert E.value(n, (m - i,)) == -E.value(n, (i,))
            checked += 1
    report(2, f"distribution + antisymmetry for {checked} towers, depth 5")


def test_criterion_03_kubota_leopoldt_values():
    t0 = time.time()
    cases = [(2, 2), (2, 6), (2, 10), (0, 2)]
    for beta, k in cases:
        got = kubota_leopoldt(beta, k, 5, c=2, level=6)
        want = kl_node(k, beta, 5, ndigits=10)
        assert got.congruent(want), (beta, k, got, want)
        assert got.abs_prec >= 2
    v22 = kubota_leopoldt(2, 2, 5, c=2, level=6)
    assert v22.residue(2) == 17 and v22.congruent(F(1, 3))
    v02 = kubota_leopoldt(0, 2, 5, c=2, level=6)
    assert v02.congruent(F(-2, 5)) and v02.valuation == -1
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 3 runtime {elapsed:.2f}s"
    report(3, f"measure route = closed forms at (beta,k) in {cases} ({elapsed:.2f}s)")


def test_criterion_04_regularizer_independence():
    count = 0
    for beta in (0, 2):
        for s in (2, 6, F(1, 2), F(7, 3)):
            a = kubota_leopoldt(beta, s, 5, c=2, level=6)
            b = kubota_leopoldt(beta, s, 5, c=3, level=6)
            assert a.congruent(b), (beta, s, a, b)
            count += 1
    report(4, f"c=2 vs c=3 agreement for {count} (beta, s) pairs at level 6")


def test_criterion_05_kummer_stability():
    psi5 = DirichletCharacter(4, {1: 1, 3: -1}, 5)
    psi3 = DirichletCharacter(4, {1: 1, 3: -1}, 3)
    checked = 0
    for M in (1, 2, 3):
        # desk-scale weight control: large moduli use the smaller prime
        ell = 3 if M == 3 else 5
        psi = psi3 if ell == 3 else psi5
        step = (ell - 1) * ell ** M
        rng = Random(100 + M)
        weights = []
        while len(weights) < 10:
            k = (ell - 1) * rng.randint(1, 40)
            if k % ell and (k + 1) % ell and k not in weights:
                weights.append(k)
        for k in weights:
            values = [
                (kl_node(k, k % (ell - 1), ell, M + 3),
                 kl_node(k + step, k % (ell - 1), ell, M + 3)),
                (hurwitz_node(k, 1, 4, ell), hurwitz_node(k + step, 1, 4, ell)),
                (dirichlet_node(psi, k + 1, ell),
                 dirichlet_node(psi, k + 1 + step, ell)),
                (zinv_node(k, [2], ell), zinv_node(k + step, [2], ell)),
            ]
            for a, b in values:
                if isinstance(a, F):
                    va = frac_val(a, ell)
                    dv = frac_val(a - b, ell)
                else:
                    va = a.valuation if a.unit else 0
                    d = a - b
                    dv = math.inf if d.is_exact_zero or d.unit == 0 else d.valuation
                    if d.unit == 0 and not d.is_exact_zero:
                        dv = d.valuation
                drop = max(0, -(va if va is not math.inf else 0))
                assert dv >= M - drop, (M, ell, k, a, b, dv, drop)
                checked += 1
    report(5, f"|value(k) - value(k+(l-1)l^M)| <= l^-(M-v) in {checked} checks")


def test_criterion_06_hurwitz():
    assert hurwitz_node(2, 1, 3, 5) == F(1, 9)
    assert hurwitz_l(2, 2, 1, 3, 5).congruent(F(1, 9))
    for k, i, m in [(2, 1, 3), (3, 2, 7), (4, 3, 8)]:
        assert hurwitz_node(k, m - i, m, 5) == (-1) ** k * hurwitz_node(k, i, m, 5)
    with pytest.raises(ValueError, match="coprime"):
        hurwitz_node(2, 2, 4, 5)
    with pytest.raises(ValueError, match="divisible"):
        hurwitz_node(2, 1, 10, 5)
    report(6, "L^2(1-2; 1, 3) = 1/9 exactly; symmetry and error paths exercised")


def test_criterion_07_dirichlet():
    psi = DirichletCharacter(4, {1: 1, 3: -1}, 5)
    assert bernoulli_poly(5, F(1, 4)) == F(-25, 1024)
    assert classical_dirichlet_special(psi, 5) == F(5, 2)
    assert dirichlet_node(psi, 5, 5) == (1 - 5 ** 4) * F(5, 2) == -1560
    for k in (1, 5, 9):
        want = (1 - psi.residue(5) * F(5) ** (k - 1)) * \
            classical_dirichlet_special(psi, k)
        assert dirichlet_node(psi, k, 5) == want
    report(7, "classical 5/2 and regularized -1560; Euler factor at k in {1,5,9}")


def test_criterion_08_zinv():
    assert zinv_node(2, [2, 3], 5) == F(-1, 9)
    rep = zinv_report(2, 2, [2, 3], 5)
    assert rep["definition_route"].congruent(F(-1, 9))
    assert rep["magnitude_matches"], "product route magnitude must match"
    assert rep["sign"] in (1, -1)
    # the documented discrepancy: the product shortcut is off by a global sign
    assert rep["sign"] == -1
    report(8, f"definition sum -1/9; product route sign report: {rep['sign']}")


def test_criterion_09_bch_suite():
    doc = verify_bch(degree=10, seed=7)
    assert doc["all_pass"], [c for c in doc["checks"] if not c["pass"]]
    names = [c["name"] for c in doc["checks"]]
    assert "xy-closed-form" in names and "yx-closed-form" in names
    assert sum(1 for n in names if n.startswith("random-")) == 20
    report(9, "20 seeded instances + both closed one-Y product formulas, degree 10")


def test_criterion_10_gamma_kernel():
    doc = verify_gamma(degree=10, seed=7)
    assert doc["all_pass"]
    assert [c["name"] for c in doc["checks"]] == ["chi=2", "chi=3", "chi=1/2"]
    report(10, "kernel coefficients B_k/k!(1-chi^k), odd-input invariance, exact")


def test_criterion_11_inversion_pipeline():
    doc = verify_inversion(degree=8, seed=7)
    assert doc["all_pass"]
    assert len([c for c in doc["checks"] if c["name"].startswith("random-")]) == 10
    report(11, "pipeline minus closed form identically 0 to degree 8, 10 seeds")


def test_criterion_12_congruence_harness():
    words = {
        (1, 1): (Word((0, 7)), Word((0, 13))),
        (1, 2): (Word((0, 5)), Word((0, 23))),
        (2, 1): (Word((0, 7, 11)), Word((0, 13, 29))),
        (2, 2): (Word((0, 5, 7)), Word((0, 23, 25))),
    }
    ran = 0
    for seed in range(50):
        rank = 1 + seed % 2
        M = 1 + (seed // 2) % 2
        mu = random_bounded_tower(3, rank, M + 2, denom_exponent=seed % 2, seed=seed)
        w, v = words[(rank, M)]
        rep = congruence_check(mu, w, v, M)
        assert rep.passed, (seed, rank, M, rep)
        ran += 1
    assert ran == 50

    # a deliberately unbounded family is rejected by validation
    ell, depth = 3, 3
    uniform = [[F(1, ell ** n)] * ell ** n for n in range(depth + 1)]
    with pytest.raises(ValueError, match="not bounded"):
        MeasureTower(ell, 1, uniform)
    report(12, "congruence holds for 50 seeded towers; unbounded tower rejected")


def test_criterion_13_transform_algebra():
    # P roundtrips, exact, depth 3
    from elladic.measures import dirac_tower

    for mu in (bernoulli_measure(2, 5, 3), dirac_tower((11,), 5, 1, 3)):
        full = p_transform(mu, 5 ** 3 - 1, total=False)
        assert measure_from_p_series(full, 5, 3).levels == mu.levels
    mu2 = random_bounded_tower(3, 2, 3, denom_exponent=1, seed=13)
    full2 = p_transform(mu2, 3 ** 3 - 1, total=False)
    assert measure_from_p_series(full2, 3, 3).levels == mu2.levels

    # F = P o (e^X - 1) to degree 8, exact equality of level sums
    for mu in (bernoulli_measure(2, 5, 3), mu2):
        assert p_series_to_f(p_transform(mu, 8), 8) == f_transform(mu, 8)

    # pushforward vs preimage gather and series covariance, level 3, r <= 2
    ell, level = 3, 3
    rng = Random(77)
    for trial in range(20):
        rank = 1 + trial % 2
        mu = random_bounded_tower(ell, rank, level, denom_exponent=1, seed=trial)
        mat = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rank)]
        out = pushforward_linear(mat, mu)
        m = ell ** level
        images = {}
        for coords, v in mu.cells(level):
            img = tuple(
                sum(mat[i][j] * coords[j] for j in range(rank)) % m
                for i in range(rank)
            )
            images.setdefault(img, []).append(v)
        for coords, v in out.cells(level):
            assert v == sum(images.get(coords, []), F(0))

        degree = 5
        lhs = f_transform(out, degree, level)
        rhs = _compose_f_with_matrix(f_transform(mu, degree, level), mat, degree, rank)
        floor = level - mu.denom_exponent - _max_fact_val(degree, ell)
        for key in set(lhs.coeffs) | set(rhs):
            diff = lhs[key] - rhs.get(key, F(0))
            assert diff == 0 or _frac_val(diff, ell) >= floor, (trial, key)
    report(13, "P/F roundtrips, exponential substitution, 20 linear-map checks")
