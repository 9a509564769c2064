from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from elladic import transforms
from elladic.measures import (
    MeasureTower,
    bernoulli_measure,
    dirac_tower,
    pushforward_linear,
    random_bounded_tower,
)
from elladic.padic import _frac_val
from elladic.transforms import (
    IwasawaSeries,
    _multi_indices,
    f_transform,
    measure_from_p_series,
    p_series_to_f,
    p_transform,
)

from quotient_oracle import pmul

F = Fraction


class TestPTransform:
    def test_point_mass_is_binomial_row(self):
        d = dirac_tower((7,), 5, 1, 3)
        P = p_transform(d, 10)
        for k in range(11):
            assert P[(k,)] == comb(7, k)

    def test_zero_measure(self):
        z = MeasureTower.from_top(5, 1, 2, [0] * 5 ** 2)
        assert p_transform(z, 5).coeffs == {}

    def test_constant_coefficient_is_total_mass(self):
        E = bernoulli_measure(3, 5, 3)
        assert p_transform(E, 4)[(0,)] == E.levels[0][0]


class TestDomain:
    @pytest.mark.parametrize("transform", [p_transform, f_transform])
    def test_negative_degree_rejected(self, transform):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            transform(bernoulli_measure(2, 5, 2), -1)

    @pytest.mark.parametrize("transform", [p_transform, f_transform])
    @pytest.mark.parametrize("level", [-1, 3])
    def test_level_out_of_range_rejected(self, transform, level):
        with pytest.raises(ValueError, match="level out of range"):
            transform(bernoulli_measure(2, 5, 2), 2, level)


class TestMultiIndices:
    @pytest.mark.parametrize("rank", range(5))
    @pytest.mark.parametrize("degree", range(7))
    def test_total_degree_tuples_are_the_filtered_box(self, rank, degree):
        box = product(range(degree + 1), repeat=rank)
        assert list(_multi_indices(rank, degree, True)) == [n for n in box if sum(n) <= degree]
        assert list(_multi_indices(rank, degree, False)) == list(
            product(range(degree + 1), repeat=rank))

    @pytest.mark.parametrize("rank,degree,total,count", [
        (3, 6, True, 84), (3, 7, True, 120), (2, 9, False, 100), (2, 10, False, 121),
        (1, 99, True, 100), (1, 100, False, 101)])
    def test_budget(self, rank, degree, total, count, monkeypatch):
        """C(degree+rank, rank) total-degree tuples, (degree+1)^rank per
        variable; more than the cell budget (here 100) is refused."""
        monkeypatch.setattr(transforms, "_CELL_BUDGET", 100)
        if count > 100:
            with pytest.raises(ValueError, match="degree too large"):
                _multi_indices(rank, degree, total)
        else:
            assert sum(1 for _ in _multi_indices(rank, degree, total)) == count


class TestFTransform:
    def test_point_mass_is_exponential(self):
        d = dirac_tower((7,), 5, 1, 3)
        Fser = f_transform(d, 8)
        for k in range(9):
            assert Fser[(k,)] == F(7 ** k, factorial(k))

    def test_bernoulli_measure_first_coefficients(self):
        E = bernoulli_measure(2, 5, 4)
        Fser = f_transform(E, 3)
        assert Fser[(0,)] == F(1, 2)
        # the X-coefficient is a level sum approximating the first moment
        diff = Fser[(1,)] - F(-1, 4)
        assert _frac_val(diff, 5) >= 4

    def test_matches_p_after_exponential_substitution(self):
        # identical level sums: (1+A)^i at A = e^X - 1 is exactly e^(iX)
        for mu in (
            bernoulli_measure(2, 5, 3),
            random_bounded_tower(3, 2, 2, denom_exponent=1, seed=8),
        ):
            P = p_transform(mu, 8)
            assert p_series_to_f(P, 8) == f_transform(mu, 8)


def p_series_to_f_reference(series, degree):
    """The X-form of a binomial-kind series on Fraction lists: each A^n
    becomes prod_j (e^(X_j) - 1)^(n_j), expanded term by term."""
    em1 = [F(0)] + [F(1, factorial(k)) for k in range(1, degree + 1)]
    powers = [[F(1)] + [F(0)] * degree]
    for _ in range(degree):
        powers.append(pmul(powers[-1], em1, degree))
    out = {}
    for index, c in series.coeffs.items():
        if sum(index) > degree:
            continue
        for exps in product(range(degree + 1), repeat=series.rank):
            if sum(exps) <= degree:
                out[exps] = out.get(exps, F(0)) + c * prod(powers[n][k] for n, k in zip(index, exps))
    return IwasawaSeries(series.rank, "exp", degree, out)


class TestPSeriesToFMatchesFractionLists:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 14), st.data())
    def test_matches_reference(self, rank, degree, data):
        rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
        indices = st.tuples(*[st.integers(0, degree + 2)] * rank)
        coeffs = data.draw(st.dictionaries(indices, rationals, max_size=8))
        series = IwasawaSeries(rank, "binomial", degree, coeffs)
        assert p_series_to_f(series, degree) == p_series_to_f_reference(series, degree)


class TestTowerReconstruction:
    def test_binomial_polynomial_gives_point_mass(self):
        ser = IwasawaSeries(1, "binomial", 7, {(k,): comb(7, k) for k in range(8)})
        mu = measure_from_p_series(ser, 5, 2)
        assert mu.levels == dirac_tower((7,), 5, 1, 2).levels

    def test_constant_series_gives_origin_mass(self):
        ser = IwasawaSeries(1, "binomial", 0, {(0,): 1})
        mu = measure_from_p_series(ser, 5, 2)
        assert mu.levels == dirac_tower((0,), 5, 1, 2).levels

    def test_high_degree_wraps_around(self):
        # (1+A)^27 at depth 1 over ell=5 lands on the coset of 27 mod 5
        ser = IwasawaSeries(1, "binomial", 27, {(k,): comb(27, k) for k in range(28)})
        mu = measure_from_p_series(ser, 5, 1)
        assert mu.levels == dirac_tower((27,), 5, 1, 1).levels

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: bernoulli_measure(2, 5, 3),
            lambda: dirac_tower((11,), 5, 1, 3),
        ],
    )
    def test_roundtrip_depth_three(self, builder):
        mu = builder()
        full = p_transform(mu, 5 ** 3 - 1, total=False)
        back = measure_from_p_series(full, 5, 3)
        assert back.levels == mu.levels

    def test_roundtrip_rank_two(self):
        mu = random_bounded_tower(3, 2, 2, denom_exponent=1, seed=5)
        full = p_transform(mu, 3 ** 2 - 1, total=False)
        back = measure_from_p_series(full, 3, 2)
        assert back.levels == mu.levels

    def test_rank_three_rejected(self):
        ser = IwasawaSeries(3, "binomial", 1, {(0, 0, 0): 1})
        with pytest.raises(ValueError, match="rank 1 and 2"):
            measure_from_p_series(ser, 3, 1)


class TestLinearMapCovariance:
    """Transform of a pushforward = transformed-variable substitution.

    The matrix substitution X_j -> sum_i a_ij X_i acts on series coefficients
    directly, so the comparison is coefficient-by-coefficient at the level
    precision floor.
    """

    def test_f_of_pushforward(self):
        ell, level, degree = 3, 3, 4
        rng = Random(31)
        for trial in range(6):
            rank = 1 + trial % 2
            mu = random_bounded_tower(ell, rank, level, denom_exponent=1, seed=trial)
            mat = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
            lhs = f_transform(pushforward_linear(mat, mu), degree, level)
            rhs = _compose_f_with_matrix(f_transform(mu, degree, level), mat, degree, rank)
            floor = level - mu.denom_exponent - _max_fact_val(degree, ell)
            for key in set(lhs.coeffs) | set(rhs):
                diff = lhs[key] - rhs.get(key, F(0))
                assert diff == 0 or _frac_val(diff, ell) >= floor, (key, diff)

    def test_exact_for_point_masses(self):
        # point masses make both routes exact when the image stays in range
        d = dirac_tower((2, 1), 5, 2, 2)
        mat = [[1, 3], [0, 1]]
        lhs = f_transform(pushforward_linear(mat, d), 3, 2)
        rhs = _compose_f_with_matrix(f_transform(d, 3, 2), mat, 3, 2)
        for key in set(lhs.coeffs) | set(rhs):
            diff = lhs[key] - rhs.get(key, F(0))
            assert diff == 0 or _frac_val(diff, 5) >= 2


def _max_fact_val(degree, ell):
    worst = 0
    for k in range(degree + 1):
        v, q = 0, ell
        while q <= k:
            v += k // q
            q *= ell
        worst = max(worst, v)
    return worst


def _compose_f_with_matrix(series, mat, degree, rank):
    """Substitute X_j -> sum_i mat[i][j] X_i into an exp-kind series."""
    out = {}
    for index, c in series.coeffs.items():
        terms = {(0,) * rank: c}
        for j, e in enumerate(index):
            for _ in range(e):
                nxt = {}
                for expo, w in terms.items():
                    for i in range(rank):
                        a = mat[i][j]
                        if a == 0:
                            continue
                        key = tuple(
                            x + (1 if t == i else 0) for t, x in enumerate(expo)
                        )
                        if sum(key) > degree:
                            continue
                        nxt[key] = nxt.get(key, F(0)) + w * a
                terms = nxt
        for expo, w in terms.items():
            if w:
                out[expo] = out.get(expo, F(0)) + w
    return {k: v for k, v in out.items() if v}
