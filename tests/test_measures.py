import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from elladic.bernoulli import bernoulli_number
from elladic.measures import (
    Factor,
    MeasureTower,
    Word,
    bernoulli_measure,
    bernoulli_unit_integral,
    congruence_check,
    dirac_tower,
    integrate,
    pushforward_linear,
    random_bounded_tower,
    raw_word_integral,
    restrict,
    tower_from_json,
    tower_to_json,
    _coarsen,
    _moment_sums,
    _precision_plan,
    _unit_row,
)
from elladic.padic import PadicNum, residue_mod, teichmuller, _frac_val, _fraction_to_padic_abs
from elladic.transforms import IwasawaSeries, f_transform, measure_from_p_series, p_transform

import measure_oracle
import tower_oracle

F = Fraction


def frac_val(q, ell):
    return math.inf if q == 0 else _frac_val(F(q), ell)


class TestValidation:
    def test_dirac_is_valid_with_zero_denominator(self):
        mu = MeasureTower(5, 1, dirac_tower((3,), 5, 1, 3).levels)
        assert mu.denom_exponent == 0

    def test_bernoulli_tower_validates(self):
        E = bernoulli_measure(2, 5, 3)
        again = MeasureTower(5, 1, E.levels)
        assert again.denom_exponent == 0

    def test_perturbed_cell_reported(self):
        E = bernoulli_measure(2, 5, 3)
        levels = [list(t) for t in E.levels]
        levels[1][2] += 1
        with pytest.raises(ValueError, match="not a distribution"):
            MeasureTower(5, 1, levels)

    def test_uniform_measure_rejected_as_unbounded(self):
        ell, depth = 3, 3
        levels = [[F(1, ell ** n)] * ell ** n for n in range(depth + 1)]
        with pytest.raises(ValueError, match="not bounded"):
            MeasureTower(ell, 1, levels)

    def test_wrong_table_size(self):
        with pytest.raises(ValueError, match="cells"):
            MeasureTower(5, 1, [[F(1)], [F(1)] * 4])

    def test_empty_tower_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            MeasureTower(5, 1, [])
        with pytest.raises(ValueError, match="at least one level"):
            tower_from_json({"ell": 5, "rank": 1, "levels": []})


class TestBernoulliMeasure:
    def test_level_one_values(self):
        E = bernoulli_measure(2, 5, 2)
        assert list(E.levels[1]) == [F(1, 2), F(-1, 2), F(1, 2), F(-1, 2), F(1, 2)]

    def test_total_mass(self):
        for c in (2, 3, 7):
            assert bernoulli_measure(c, 5, 1).levels[0][0] == F(c - 1, 2)

    def test_antisymmetry(self):
        for ell, c in [(5, 2), (7, 3), (3, 2)]:
            E = bernoulli_measure(c, ell, 3)
            for n in range(1, 4):
                m = ell ** n
                for i in range(1, m):
                    assert E.value(n, (m - i,)) == -E.value(n, (i,))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            bernoulli_measure(2, 5, -1)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            bernoulli_measure(10, 5, 2)

    def test_self_similar_under_scaling(self):
        # E_c(ell i + ell^(n+1) Z) = E_c(i + ell^n Z): the measure is
        # invariant under x -> ell x
        E = bernoulli_measure(2, 5, 4)
        for n in range(4):
            for i in range(5 ** n):
                assert E.value(n + 1, (5 * i,)) == E.value(n, (i,))


class TestPushforward:
    def test_dirac_doubling(self):
        d = dirac_tower((3,), 5, 1, 3)
        assert pushforward_linear([[2]], d).levels == dirac_tower((6,), 5, 1, 3).levels

    def test_negation_of_bernoulli(self):
        E = bernoulli_measure(2, 5, 2)
        neg = pushforward_linear([[-1]], E)
        assert list(neg.levels[1]) == [F(1, 2), F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)]
        m = 25
        for i in range(m):
            assert neg.value(2, (i,)) == E.value(2, (-i,))

    def test_rank_two_shear_on_dirac(self):
        d = dirac_tower((2, 3), 5, 2, 2)
        out = pushforward_linear([[1, 1], [0, 1]], d)
        assert out.levels == dirac_tower((5, 3), 5, 2, 2).levels

    @pytest.mark.parametrize("rank,level", [(1, 3), (2, 2)])
    def test_agrees_with_preimage_gather(self, rank, level):
        # independent oracle: mu(preimage of each cell), by scanning all cells
        ell = 3
        rng = Random(rank * 10 + level)
        mu = random_bounded_tower(ell, rank, level, denom_exponent=1, seed=rank)
        for _ in range(5):
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


class TestRestrict:
    def test_unit_restriction_of_bernoulli(self):
        E = bernoulli_measure(2, 5, 2)
        Eu = restrict(E, "units")
        assert list(Eu.levels[1]) == [F(0), F(-1, 2), F(1, 2), F(-1, 2), F(1, 2)]
        assert Eu.units_only

    def test_checked_constructor_takes_no_units_only_claim(self):
        # the claim went unchecked: the point mass at 0 was silently dropped
        levels = [[1], [1, 0, 0, 0, 0]]
        with pytest.raises(TypeError, match="units_only"):
            MeasureTower(5, 1, levels, units_only=True)
        mu = MeasureTower(5, 1, levels)
        assert not mu.units_only
        with pytest.raises(ValueError, match="integrand undefined on region"):
            integrate(mu, (Factor(inverse=True),), 1)

    def test_unit_restriction_of_dirac(self):
        du = restrict(dirac_tower((3,), 5, 1, 2), "units")
        assert du.levels == dirac_tower((3,), 5, 1, 2).levels
        d0 = restrict(dirac_tower((5,), 5, 1, 2), "units")
        assert d0.levels == MeasureTower.from_top(5, 1, 2, [0] * 5 ** 2).levels

    def test_coset_restriction(self):
        E = bernoulli_measure(2, 5, 2)
        r = restrict(E, (1, [(2,)]))
        assert r.value(1, (2,)) == F(1, 2)
        assert r.value(1, (1,)) == 0
        assert r.levels[0][0] == F(1, 2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_valuation_shells_partition_the_moments(self, k):
        # the shells ell^j Z_ell^x, j < depth, and the tail ell^depth Z_ell
        # partition Z_ell: their Riemann sums at the top level add up exactly
        ell, depth = 3, 4
        mu = random_bounded_tower(ell, 1, depth, denom_exponent=1, seed=k)
        shells = [
            restrict(mu, (j + 1, [(ell ** j * u,) for u in range(1, ell)]))
            for j in range(depth)
        ]
        tail = restrict(mu, (depth, [(0,)]))
        assert sum(s.levels[0][0] for s in shells) + tail.levels[0][0] == mu.levels[0][0]

        def moment(nu):
            return sum((c[0] ** k * v for c, v in nu.cells(depth)), F(0))

        assert sum(map(moment, shells)) + moment(tail) == moment(mu)

    def test_region_deeper_than_depth(self):
        E = bernoulli_measure(2, 5, 1)
        with pytest.raises(ValueError, match="not expressible"):
            restrict(E, (2, [(3,)]))


class TestIntegrate:
    def test_total_mass(self):
        E = bernoulli_measure(2, 5, 3)
        v = integrate(E, (Factor(),), 3)
        assert v.congruent(F(1, 2))

    def test_unit_linear_moment_level_one(self):
        E = bernoulli_measure(2, 5, 3)
        Eu = restrict(E, "units")
        v = integrate(Eu, (Factor(power=1),), 1)
        assert v.congruent(1)

    def test_unit_bracket_integrand_simplifies(self):
        E = bernoulli_measure(2, 5, 6)
        Eu = restrict(E, "units")
        v = integrate(Eu, (Factor(inverse=True, teich=2, bracket=2),), 6)
        assert v.congruent(1)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_full_space_moments_against_closed_form(self, k):
        # dual route: Riemann sums vs (1 - c^(k+1)) B_(k+1)/(k+1)
        c, ell, depth = 2, 5, 5
        E = bernoulli_measure(c, ell, depth)
        want = (1 - F(c) ** (k + 1)) * bernoulli_number(k + 1) / (k + 1)
        got = integrate(E, (Factor(power=k),), depth)
        assert got.congruent(want)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unit_moments_carry_euler_factor(self, k):
        c, ell, depth = 2, 5, 5
        Eu = restrict(bernoulli_measure(c, ell, depth), "units")
        want = (
            (1 - F(ell) ** k)
            * (1 - F(c) ** (k + 1))
            * bernoulli_number(k + 1)
            / (k + 1)
        )
        got = integrate(Eu, (Factor(power=k),), depth)
        assert got.congruent(want)

    def test_unit_factors_require_restriction(self):
        E = bernoulli_measure(2, 5, 3)
        with pytest.raises(ValueError, match="undefined on region"):
            integrate(E, (Factor(inverse=True),), 3)
        with pytest.raises(ValueError, match="level >= 1"):
            integrate(restrict(E, "units"), (Factor(inverse=True),), 0)

    def test_precision_contract(self):
        E = bernoulli_measure(2, 5, 4)
        Eu = restrict(E, "units")
        v = integrate(Eu, (Factor(power=1, inverse=True),), 4)
        assert v.abs_prec == 3  # level 4, d = 0, one inverse factor

    def test_low_precision_bracket_caps_result(self):
        E = bernoulli_measure(2, 5, 4)
        Eu = restrict(E, "units")
        s_coarse = PadicNum.from_rational(2, 5, 1)  # exponent known mod 5 only
        v = integrate(Eu, (Factor(inverse=True, teich=2, bracket=s_coarse),), 4)
        assert v.abs_prec == 2  # capped at s.abs_prec + 1, not level - 1
        exact = integrate(Eu, (Factor(inverse=True, teich=2, bracket=2),), 4)
        assert exact.congruent(v, 2)


class TestWords:
    def test_point_mass_tail_power(self):
        d = dirac_tower((3,), 5, 1, 4)
        assert raw_word_integral(d, Word((0, 4)), 4) == (3 ** 4, 4)

    def test_point_mass_leading_power(self):
        d = dirac_tower((3,), 5, 1, 3)
        assert raw_word_integral(d, Word((1, 0)), 3) == (-3, 3)

    def test_rank_two_difference(self):
        d = dirac_tower((3, 1), 5, 2, 2)
        assert raw_word_integral(d, Word((0, 1, 0)), 2) == (2, 2)

    def test_rank_mismatch(self):
        d = dirac_tower((3,), 5, 1, 2)
        with pytest.raises(ValueError, match="rank mismatch"):
            raw_word_integral(d, Word((0, 1, 0)), 2)

    @pytest.mark.parametrize("level", [-1, 3])
    def test_level_out_of_range(self, level):
        d = dirac_tower((3,), 5, 1, 2)
        with pytest.raises(ValueError, match="level out of range"):
            raw_word_integral(d, Word((0, 2)), level)

    def test_raw_integral_skips_factorials(self):
        mu = random_bounded_tower(3, 1, 3, denom_exponent=1, seed=3)
        w = Word((0, 4))
        raw, prec = raw_word_integral(mu, w, 3)
        assert prec == 3 - mu.denom_exponent
        assert raw == sum((x[0] ** 4 * v for x, v in mu.cells(3)), F(0))


# (x1, x2) -> (t1, t2) = (x1 - x2, x2): the word polynomial
# (-x1)^a0 (x1 - x2)^a1 x2^a2 is (-(t1 + t2))^a0 t1^a1 t2^a2 in the image
DIFFERENCES = [[1, -1], [0, 1]]


class TestChangeOfVars:
    def test_rank_one_identity(self):
        E = bernoulli_measure(2, 5, 2)
        assert pushforward_linear([[1]], E).levels == E.levels

    def test_dirac(self):
        d = dirac_tower((4, 1), 5, 2, 2)
        out = pushforward_linear(DIFFERENCES, d)
        assert out.levels == dirac_tower((3, 1), 5, 2, 2).levels

    def test_moment_transport(self):
        mu = random_bounded_tower(5, 2, 2, denom_exponent=1, seed=11)
        out = pushforward_linear(DIFFERENCES, mu)
        t1 = sum(v * c[0] for c, v in out.cells(2))
        x_diff = sum(v * (c[0] - c[1]) for c, v in mu.cells(2))
        diff = t1 - x_diff
        assert frac_val(diff, 5) >= 2 - mu.denom_exponent

    def test_word_against_difference_coordinates(self):
        mu = random_bounded_tower(5, 2, 2, denom_exponent=0, seed=23)
        bar = pushforward_linear(DIFFERENCES, mu)
        w = Word((1, 2, 1))
        lhs, _ = raw_word_integral(mu, w, 2)
        rhs = sum(
            v * (-(c[0] + c[1])) ** 1 * c[0] ** 2 * c[1] ** 1
            for c, v in bar.cells(2)
        )
        assert frac_val(lhs - rhs, 5) >= 2


class TestPrecisionStability:
    """Refining the level never contradicts the claimed precision."""

    def test_riemann_sums_stable_under_refinement(self):
        E = bernoulli_measure(2, 5, 6)
        Eu = restrict(E, "units")
        integrands = [
            (Factor(power=2),),
            (Factor(inverse=True, teich=2, bracket=2),),
            (Factor(inverse=True, teich=0, bracket=F(1, 2)),),
        ]
        for f in integrands:
            values = [integrate(Eu, f, n) for n in range(2, 7)]
            for a, b in zip(values, values[1:]):
                assert a.congruent(b), (f, a, b)

    def test_synthetic_towers_stable_under_refinement(self):
        for seed in range(5):
            mu = random_bounded_tower(3, 1, 5, denom_exponent=1, seed=seed)
            vals = [integrate(mu, (Factor(power=3),), n) for n in range(2, 6)]
            for a, b in zip(vals, vals[1:]):
                assert a.congruent(b), (seed, a, b)


class TestMellin:
    def test_trivial_integrand_gives_unit_mass(self):
        E = bernoulli_measure(2, 5, 4)
        Eu = restrict(E, "units")
        got = integrate(Eu, (Factor(inverse=True, teich=1, bracket=1),), 3)
        unit_mass = integrate(Eu, (Factor(),), 3)
        assert got.congruent(unit_mass)

    def test_bernoulli_example(self):
        E = bernoulli_measure(2, 5, 5)
        Eu = restrict(E, "units")
        assert integrate(Eu, (Factor(inverse=True, teich=2, bracket=2),), 5).congruent(1)

    def test_product_tower_factorizes(self):
        E = bernoulli_measure(2, 5, 3)
        f = Factor(inverse=True, teich=2, bracket=2)
        got = integrate(restrict(product_of(E, E), "units"), (f, f), 2)
        one_dim = integrate(restrict(E, "units"), (f,), 2)
        assert got.congruent(one_dim * one_dim)


def product_of(mu1, mu2):
    """The rank-2 product of two rank-1 towers, at the lesser of their depths."""
    depth = min(mu1.depth, mu2.depth)
    top = [b * a for b in mu2.tables[depth] for a in mu1.tables[depth]]
    return MeasureTower.from_top(mu1.ell, 2, depth, top, mu1.den * mu2.den)


class TestUnitShellExpansion:
    """Full moments as geometric sums of unit-restricted scaled moments.

    The Bernoulli measure is self-similar (pulled back along x -> ell^j x
    it is itself at depth - j), so the shell ell^j Z_ell^x contributes
    ell^(jk) times the unit moment of the depth - j measure.
    """

    @pytest.mark.parametrize("k", [1, 2])
    def test_bernoulli_measure(self, k):
        ell, depth = 5, 5
        E = bernoulli_measure(2, ell, depth)
        lhs = integrate(E, (Factor(power=k),), depth)
        rhs = None
        for j in range(depth - 1):
            nu = restrict(bernoulli_measure(2, ell, depth - j), "units")
            term = F(ell) ** (j * k) * integrate(nu, (Factor(power=k),), nu.depth)
            rhs = term if rhs is None else rhs + term
        # comparison floor: the truncated tail shells have valuation
        # >= (depth-1)*k, and both sides are stated to depth digits
        floor = min((depth - 1) * k, depth)
        assert lhs.congruent(rhs, floor)

    def test_dirac_at_unit(self):
        ell, depth = 5, 4
        dmu = dirac_tower((3,), ell, 1, depth)
        lhs = integrate(dmu, (Factor(power=2),), depth)
        nu = restrict(dmu, "units")
        rhs = integrate(nu, (Factor(power=2),), depth)
        assert lhs.congruent(rhs)
        # deeper shells vanish: a unit point mass puts nothing on ell Z_ell
        deeper = restrict(dmu, (1, [(0,)]))
        assert deeper.levels == MeasureTower.from_top(ell, 1, depth, [0] * ell ** depth).levels


class TestZeroMassTowers:
    def test_constant_coefficient_vanishes(self):
        # rank > 1 towers with zero total mass have vanishing degree-0
        # exponential-moment coefficient, exactly
        from elladic.transforms import f_transform

        for seed in (42, 43, 44):
            # a synthetic tower less its total mass at the origin's top cell
            nu = random_bounded_tower(3, 2, 3, denom_exponent=1, seed=seed)
            top = list(nu.tables[3])
            top[0] -= sum(top)
            mu = MeasureTower.from_top(3, 2, 3, top, nu.den)
            assert mu.levels[0][0] == 0
            assert f_transform(mu, 3)[(0, 0)] == 0
            assert integrate(mu, (Factor(), Factor()), 3).unit == 0


class TestCongruenceChecker:
    def test_equal_words_give_exact_zero(self):
        mu = random_bounded_tower(3, 1, 3, denom_exponent=1, seed=1)
        rep = congruence_check(mu, Word((0, 7)), Word((0, 7)), 1)
        assert rep.passed and rep.difference == 0

    def test_hypothesis_violations(self):
        mu = random_bounded_tower(3, 1, 3, denom_exponent=0, seed=1)
        with pytest.raises(ValueError, match="hypotheses not met"):
            congruence_check(mu, Word((0, 3)), Word((0, 9)), 1)  # divisible by ell
        with pytest.raises(ValueError, match="hypotheses not met"):
            congruence_check(mu, Word((0, 7)), Word((0, 8)), 1)  # not congruent
        with pytest.raises(ValueError, match="start with Y"):
            congruence_check(mu, Word((1, 7)), Word((1, 13)), 1)

    def test_provable_regime_many_seeds(self):
        # exponents >= M+1 make the bound provable for every bounded tower
        ell = 3
        for seed in range(12):
            mu = random_bounded_tower(ell, 1, 4, denom_exponent=1, seed=seed)
            rep = congruence_check(mu, Word((0, 7)), Word((0, 13)), 1)
            assert rep.passed, (seed, rep)

    def test_small_exponent_reports_honestly(self):
        # a = 1 < M+1: only min(M+1, min a) - d is guaranteed; the checker
        # reports the observed valuation either way
        ell = 3
        mu = random_bounded_tower(ell, 1, 4, denom_exponent=1, seed=2)
        rep = congruence_check(mu, Word((0, 1)), Word((0, 7)), 1)
        assert rep.difference_valuation >= min(2, 1) - mu.denom_exponent
        assert rep.passed == (rep.difference_valuation >= rep.required_valuation)


class TestSerialization:
    def test_roundtrip(self):
        E = bernoulli_measure(2, 5, 2)
        doc = tower_to_json(E)
        back = tower_from_json(doc)
        assert back.levels == E.levels
        assert doc["denom_exponent"] == 0
        assert doc["levels"][1] == ["1/2", "-1/2", "1/2", "-1/2", "1/2"]


# -- every constructor yields a tower whose levels coarsen into each other -----


def assert_coarsens(mu):
    for n in range(mu.depth):
        assert tuple(tower_oracle.coarsen(mu.levels[n + 1], mu.ell, mu.rank, n + 1)) == mu.levels[n]
    # denom_exponent is read off the top level; every level must agree with it
    every_level = max((max(0, -_frac_val(v, mu.ell)) for t in mu.levels for v in t if v), default=0)
    assert mu.denom_exponent == every_level


ELLS = st.sampled_from([3, 5])


@st.composite
def towers(draw, ell, rank=None, min_depth=0):
    rank = draw(st.integers(1, 2)) if rank is None else rank
    depth = draw(st.integers(min_depth, 3 if rank == 1 else 2))
    return random_bounded_tower(
        ell, rank, depth, denom_exponent=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 10 ** 6)),
    )


@st.composite
def restrictions(draw):
    """(tower, region): the units or a few cells of some level."""
    ell = draw(ELLS)
    mu = draw(towers(ell, min_depth=1))
    if draw(st.booleans()):
        return mu, "units"
    level = draw(st.integers(0, mu.depth))
    coord = st.integers(0, ell ** level - 1)
    return mu, (level, draw(st.lists(st.tuples(*[coord] * mu.rank), max_size=6)))


class TestCoarsenProperty:
    @settings(max_examples=25, deadline=None)
    @given(ELLS, st.integers(1, 40), st.integers(0, 4))
    def test_bernoulli_measure(self, ell, c, depth):
        assume(c % ell)
        assert_coarsens(bernoulli_measure(c, ell, depth))

    @settings(max_examples=25, deadline=None)
    @given(ELLS, st.lists(st.integers(-50, 50), min_size=1, max_size=2), st.integers(0, 3))
    def test_dirac(self, ell, point, depth):
        assert_coarsens(dirac_tower(point, ell, len(point), depth))

    @settings(max_examples=25, deadline=None)
    @given(st.data(), ELLS)
    def test_product(self, data, ell):
        mu1 = data.draw(towers(ell, rank=1))
        mu2 = data.draw(towers(ell, rank=1))
        prod = product_of(mu1, mu2)
        assert_coarsens(prod)
        for n in range(prod.depth + 1):
            for (a,), u in mu1.cells(n):
                for (b,), v in mu2.cells(n):
                    assert prod.value(n, (a, b)) == u * v

    @settings(max_examples=25, deadline=None)
    @given(st.data(), ELLS)
    def test_pushforward(self, data, ell):
        mu = data.draw(towers(ell))
        r = mu.rank
        mat = data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=r, max_size=r), min_size=r, max_size=r))
        assert_coarsens(pushforward_linear(mat, mu))

    @settings(max_examples=25, deadline=None)
    @given(restrictions())
    # the units drop the one cell with an ell in its denominator, so the
    # exponent must fall from 1 to 0 with the reduced common denominator
    @example((MeasureTower(3, 1, [[F(4, 3)], [F(1, 3), F(1), F(0)]]), "units"))
    def test_restrict(self, case):
        mu, region = case
        assert_coarsens(restrict(mu, region))

    @settings(max_examples=25, deadline=None)
    @given(st.data(), ELLS, st.integers(1, 2), st.integers(0, 2))
    def test_measure_from_p_series(self, data, ell, rank, depth):
        index = st.tuples(*[st.integers(0, 6)] * rank)
        coeffs = data.draw(st.dictionaries(index, st.fractions(max_denominator=9), max_size=5))
        series = IwasawaSeries(rank, "binomial", 6, coeffs)
        assert_coarsens(measure_from_p_series(series, ell, depth))


# -- integrate against the factor-by-factor formula ------------------------------


def oracle_integrate(mu, fs, level, K):
    """The level sum of the integrand ``fs`` with every factor evaluated one
    piece at a time, mod ell^K: x^power, then x^-1, then omega(x)^teich, then
    [x]^s = (x * omega(x)^-1)^s."""
    ell = mu.ell
    mod = ell ** K
    omega = {u: teichmuller(u, ell, K).residue(K) for u in range(1, ell)}
    total = F(0)
    for x, v in mu.cells(level):
        if not v or any(c % ell == 0 for c in x):
            continue
        val = 1
        for c, f in zip(x, fs):
            om = omega[c % ell]
            val = val * pow(c, f.power, mod) % mod
            if f.inverse:
                val = val * pow(c, -1, mod) % mod
            val = val * pow(om, f.teich, mod) % mod
            if f.bracket is not None:
                s = f.bracket
                if isinstance(s, PadicNum):
                    s = 0 if s.is_exact_zero else s.residue(min(K - 1, s.abs_prec))
                else:
                    s = residue_mod(s, ell ** (K - 1))
                val = val * pow(c * pow(om, -1, mod) % mod, s, mod) % mod
        total += val * v
    return total


@st.composite
def factors(draw, ell):
    kind = draw(st.sampled_from(["none", "int", "fraction", "padic"]))
    if kind == "int":
        bracket = draw(st.integers(-6, 6))
    elif kind == "fraction":
        bracket = F(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 4, 7])))
    elif kind == "padic":
        bracket = PadicNum.from_rational(draw(st.integers(-30, 30)), ell, draw(st.integers(1, 4)))
    else:
        bracket = None
    return Factor(power=draw(st.integers(0, 4)), inverse=draw(st.booleans()),
                  teich=draw(st.integers(-5, 7)), bracket=bracket)


class TestIntegrateOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), ELLS)
    def test_agrees_with_factor_by_factor_formula(self, data, ell):
        mu = restrict(data.draw(towers(ell, min_depth=1)), "units")
        level = data.draw(st.integers(1, mu.depth))
        fs = data.draw(st.tuples(*[factors(ell)] * mu.rank))
        got = integrate(mu, fs, level)
        K = level + 2 * mu.denom_exponent + 6
        want = PadicNum.from_rational(oracle_integrate(mu, fs, level, K), ell, K)
        assert got.congruent(want, got.abs_prec)


class TestLevelSumOracle:
    """The integer level sums against a direct Fraction sum over the cells."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), ELLS)
    def test_transforms_and_word_integral(self, data, ell):
        mu = data.draw(towers(ell))
        level = data.draw(st.integers(0, mu.depth))
        degree = data.draw(st.integers(0, 3))
        cells = list(mu.cells(level))

        def direct(weight, n):
            return sum((weight(x, n) * v for x, v in cells), F(0))

        def binom(x, n):
            return math.prod(math.comb(c, k) for c, k in zip(x, n))

        def moment(x, n):
            return F(math.prod(c ** k for c, k in zip(x, n)),
                     math.prod(math.factorial(k) for k in n))

        box = list(product(range(degree + 1), repeat=mu.rank))
        total = [n for n in box if sum(n) <= degree]
        for truncate, indices in ((True, total), (False, box)):
            want = {n: direct(binom, n) for n in indices}
            got = p_transform(mu, degree, level, total=truncate)
            assert got.coeffs == {n: c for n, c in want.items() if c}
        want = {n: direct(moment, n) for n in total}
        assert f_transform(mu, degree, level).coeffs == {n: c for n, c in want.items() if c}

        a = data.draw(st.lists(st.integers(0, 3), min_size=mu.rank + 1, max_size=mu.rank + 1))

        def word_poly(x, a):
            val = (-x[0]) ** a[0] * x[-1] ** a[-1]
            for j in range(mu.rank - 1):
                val *= (x[j] - x[j + 1]) ** a[j + 1]
            return val

        got, prec = raw_word_integral(mu, Word(a), level)
        assert got == direct(word_poly, a)
        assert prec == level - mu.denom_exponent


@st.composite
def unit_integrals(draw):
    """(ell, level, c, beta, s) for ell 3-13, levels 1-6 and at most 15625
    cells at the top level; c is any unit in [-9, 60), regular or not."""
    ell = draw(st.sampled_from([3, 5, 7, 11, 13]))
    level = draw(st.integers(1, max(n for n in range(1, 7) if ell ** n <= 15625)))
    kind = draw(st.sampled_from(["int", "fraction", "padic"]))
    if kind == "int":
        s = draw(st.integers(-9, 9))
    elif kind == "fraction":
        s = F(draw(st.integers(-9, 9)), draw(st.sampled_from([d for d in (2, 3, 4, 7) if d % ell])))
    else:
        s = PadicNum.from_rational(draw(st.integers(-50, 50)), ell, draw(st.integers(1, 6)))
    c = draw(st.integers(-9, 59).filter(lambda c: c % ell))
    return ell, level, c, draw(st.integers(0, ell - 2)), s


class TestBernoulliUnitIntegral:
    """The half-unit block sum is the unit-by-unit oracle's sum and the tower
    route's integral, as the same PadicNum."""

    @settings(max_examples=120, deadline=None)
    @given(unit_integrals())
    # regularisers that do not generate the units mod ell
    @example((3, 5, 4, 1, F(-3, 2)))
    @example((5, 4, 4, 2, 3))
    @example((7, 3, 9, 1, F(1, 2)))
    @example((11, 2, 4, 4, PadicNum.from_rational(7, 11, 1)))
    # a one-unit half row, and a half row that is not a whole number of blocks
    @example((3, 1, 2, 0, F(1, 2)))
    @example((13, 3, 2, 6, PadicNum.from_rational(-5, 13, 4)))
    def test_equals_tower_route(self, case):
        ell, level, c, beta, s = case
        mu = restrict(bernoulli_measure(c, ell, level), "units")
        want = integrate(mu, (Factor(inverse=True, teich=beta, bracket=s),), level)
        got = bernoulli_unit_integral(c, ell, level, beta, s)
        assert got.to_json() == want.to_json()
        assert got.to_json() == measure_oracle.bernoulli_unit_integral(c, ell, level, beta, s).to_json()

    @pytest.mark.parametrize("ell,level,c", [(5, 4, 2), (7, 3, 10), (11, 2, -4)])
    def test_cached_row_keeps_no_request_state(self, ell, level, c):
        """Two requests on one (c, ell, level) row, in both orders and from
        a cold cache each time, give the oracle's values."""
        first, second = (0, 3), (2, F(-1, 2))
        want = {req: measure_oracle.bernoulli_unit_integral(c, ell, level, *req).to_json()
                for req in (first, second)}
        for order in ((first, second), (second, first)):
            _unit_row.cache_clear()
            for req in order:
                assert bernoulli_unit_integral(c, ell, level, *req).to_json() == want[req]

    @pytest.mark.parametrize("args,error", [
        ((5, 5, 2), "not a unit"),
        ((2, 5, -1), "depth must be >= 0"),
        ((2, 5, 0), "region not expressible at available depth"),
        ((2, 9, 2), "ell must be an odd prime"),
        ((2, 5, 9), "depth too large: ell\\^depth must be at most 1000000 cells"),
        ((2, 5, 40), "depth too large"),
        ((2, 3, 10 ** 9), "depth too large"),
    ])
    def test_refusals_match_tower_route(self, args, error):
        with pytest.raises(ValueError, match=error):
            restrict(bernoulli_measure(*args), "units")
        for beta in (0, 1):
            with pytest.raises(ValueError, match=error):
                bernoulli_unit_integral(*args, beta, 1)

    def test_level_8_equals_oracle(self):
        """The deepest request of the goldens and tests, 5^8 cells, whose half
        row ends in a short block."""
        want = measure_oracle.bernoulli_unit_integral(3, 5, 8, 2, F(1, 3))
        assert bernoulli_unit_integral(3, 5, 8, 2, F(1, 3)).to_json() == want.to_json()


# -- the axis-wise tower kernels against the cell-by-cell oracle ----------------

ALL_ELLS = st.sampled_from([3, 5, 7])


@st.composite
def shapes(draw, min_level=0, cells=2500):
    """(ell, rank, level) for rank 1-3 and ell 3-7 with at most ``cells`` cells."""
    ell, rank = draw(ALL_ELLS), draw(st.integers(1, 3))
    top = max(n for n in range(8) if ell ** (rank * n) <= cells)
    return ell, rank, draw(st.integers(min_level, top))


def random_table(seed, size, zeros=0.25):
    rng = Random(seed)
    return [0 if rng.random() < zeros else rng.randint(-99, 99) for _ in range(size)]


@st.composite
def kernel_towers(draw):
    """A tower from a random top table; its depth is the level summed."""
    ell, rank, depth = draw(shapes())
    top = random_table(draw(st.integers(0, 10 ** 6)), ell ** (rank * depth))
    den = draw(st.sampled_from([1, 2, ell, 6 * ell ** 2]))
    return MeasureTower.from_top(ell, rank, depth, top, den)


def cell_weight(weight):
    """The whole-cell weight that ``weight`` makes one coordinate at a time."""
    return lambda x, n: math.prod(map(weight, x, n))


class TestMomentContraction:
    """``_moment_sums`` against the cell loop that calls a whole-cell weight."""

    @settings(max_examples=60, deadline=None)
    @given(kernel_towers(), st.data())
    def test_comb_and_pow(self, mu, data):
        level = data.draw(st.integers(0, mu.depth))
        degree = data.draw(st.integers(0, 4))
        box = list(product(range(degree + 1), repeat=mu.rank))
        indices = data.draw(st.lists(st.sampled_from(box), max_size=12))
        for weight in (math.comb, pow):
            got = list(_moment_sums(mu, indices, level, weight))
            want = tower_oracle.moment_sums(mu, indices, level, cell_weight(weight))
            assert got == [(n, want[n]) for n in indices if n in want]

    @settings(max_examples=60, deadline=None)
    @given(kernel_towers(), st.booleans(), st.data())
    def test_folded_unit_factor(self, mu, units, data):
        """x^a * omega(x)^b mod ell^K per coordinate, zero off the units when
        they are needed, as ``integrate`` folds its factors."""
        ell = mu.ell
        level = data.draw(st.integers(1 if units else 0, mu.depth)) if mu.depth else 0
        modK = ell ** (level + 4)
        omega = [0] + [teichmuller(u, ell, level + 4).residue(level + 4) for u in range(1, ell)]

        def weight(c, key):
            a, b = key
            if units and not c % ell:
                return 0
            return pow(c, a, modK) * pow(omega[c % ell], b, modK) % modK

        key = st.tuples(st.integers(-2, 5) if units else st.integers(0, 5),
                        st.integers(0, ell - 2) if units else st.just(0))
        indices = data.draw(st.lists(st.tuples(*[key] * mu.rank), min_size=1, max_size=4))
        got = list(_moment_sums(mu, indices, level, weight))
        want = tower_oracle.moment_sums(mu, indices, level, cell_weight(weight))
        assert got == [(n, want[n]) for n in indices if n in want]

    @settings(max_examples=40, deadline=None)
    @given(st.data(), ALL_ELLS)
    def test_integrate_matches_the_cell_loop_bytes(self, data, ell):
        """The per-cell products reduced mod ell^K, as the cell loop reduced
        them, give the same ell-adic value as the unreduced contraction."""
        mu = data.draw(towers(ell, min_depth=1))
        mu = restrict(mu, "units") if data.draw(st.booleans()) else mu
        level = data.draw(st.integers(1, mu.depth))
        fs = data.draw(st.tuples(*[factors(ell)] * mu.rank))
        # a bracket exponent must be an ell-adic integer
        assume(not any(isinstance(f.bracket, F) and f.bracket.denominator % ell == 0 for f in fs))
        if not mu.units_only:
            fs = tuple(Factor(power=f.power) for f in fs)
        got = integrate(mu, fs, level)
        prec, K, folded = _precision_plan(ell, fs, level, mu.denom_exponent)
        modK = ell ** K
        omega = [0] + [teichmuller(u, ell, K).residue(K) for u in range(1, ell)]

        def reduced(x, _):
            if mu.units_only and not all(c % ell for c in x):
                return 0
            return math.prod(pow(c, a, modK) * pow(omega[c % ell], b, modK)
                             for c, (a, b) in zip(x, folded)) % modK

        total = tower_oracle.moment_sums(mu, [0], level, reduced).get(0, 0)
        assert got.to_json() == _fraction_to_padic_abs(F(total), ell, prec).to_json()


class TestCoarsenFold:
    @settings(max_examples=80, deadline=None)
    @given(shapes(min_level=1), st.integers(0, 10 ** 6))
    def test_fold_matches_the_cell_loop(self, shape, seed):
        ell, rank, n = shape
        table = random_table(seed, ell ** (rank * n))
        assert _coarsen(table, ell, rank, n) == tower_oracle.coarsen(table, ell, rank, n)


def decimal_str(q):
    """q as a finite decimal string, or None when its denominator has a prime
    other than 2 and 5."""
    d, k = q.denominator, 0
    while d % 10 ** k and k < 8:
        k += 1
    if d * (10 ** k // d) != 10 ** k:
        return None
    digits = str(abs(q.numerator) * (10 ** k // d)).rjust(k + 1, "0")
    sign = "-" if q < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}" if k else f"{sign}{digits}.0"


@st.composite
def spellings(draw, q):
    """One spelling of the rational q: reduced, unreduced, signed, padded,
    decimal, with an exponent or an underscore, in non-ASCII digits, or bad."""
    kind = draw(st.sampled_from(["reduced", "unreduced", "signed", "padded", "decimal",
                                 "exponent", "underscore", "arabic", "bad"]))
    plain = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if kind == "unreduced":
        k = draw(st.integers(2, 12))
        return f"{q.numerator * k}/{q.denominator * k}"
    if kind == "signed":
        return plain if q < 0 else "+" + plain
    if kind == "padded":
        return draw(st.sampled_from([" ", "\t", "  "])) + plain + draw(st.sampled_from(["", " ", "\n"]))
    if kind == "decimal":
        return decimal_str(q) or plain
    if kind == "exponent" and q.denominator == 1:
        return f"{q.numerator}e0" if q.numerator % 10 else f"{q.numerator // 10}e1"
    if kind == "underscore" and q.denominator == 1 and abs(q.numerator) >= 10:
        return plain[:-1] + "_" + plain[-1]
    if kind == "arabic":
        return plain.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    if kind == "bad":
        return draw(st.sampled_from(["1/0", "1/-2", "x", "", "1//2", "0x1", "1.2.3", "- 1"]))
    return plain


@st.composite
def tower_docs(draw):
    """A tower document: a coherent tower written with random spellings, and
    at times a perturbed value, a dropped cell or a non-prime ell."""
    ell, rank, depth = draw(shapes(cells=400))
    top = random_table(draw(st.integers(0, 10 ** 6)), ell ** (rank * depth))
    mu = MeasureTower.from_top(ell, rank, depth, top, draw(st.sampled_from([1, 2, ell, 4 * ell])))
    levels = [[draw(spellings(q)) if draw(st.integers(0, 9)) == 0 else
               (str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}")
               for q in t] for t in mu.levels]
    fault = draw(st.sampled_from(["none"] * 4 + ["perturb", "drop", "ell"]))
    if fault == "perturb" and depth:
        levels[0][0] = str(mu.levels[0][0] + 1)
    elif fault == "drop":
        levels[-1].pop()
    elif fault == "ell":
        ell = 9
    return {"ell": ell, "rank": rank, "levels": levels}


def read(reader, doc):
    try:
        mu = reader(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return mu.ell, mu.rank, mu.depth, mu.tables, mu.den, mu.denom_exponent, mu.units_only


class TestIntegerReader:
    @settings(max_examples=150, deadline=None)
    @given(tower_docs())
    @example({"ell": 5, "rank": 1, "levels": [["2/4"]]})
    @example({"ell": 5, "rank": 1, "levels": [["3/6"], ["1/2", "0", "0", "0", "0"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1/3"], ["1e0", "-0.5", "-1/6"]]})
    @example({"ell": 5, "rank": 1, "levels": [[" 1_0 ", "1"]]})
    @example({"ell": 5, "rank": 1, "levels": [["9" * 4400]]})
    def test_matches_the_fraction_reader(self, doc):
        assert read(tower_from_json, doc) == read(tower_oracle.tower_from_json, doc)


# digits, signs, slash, comma, underscore, space and a non-ASCII digit
HOSTILE = "0123456789+-/,_ ٣"


@st.composite
def hostile_docs(draw):
    """A tower document whose levels are a coherent tower's plain spellings
    with some values, or every value of a level, drawn from ``HOSTILE``, and
    at times a value that is not a string."""
    ell, rank, depth = draw(shapes(cells=130))
    top = random_table(draw(st.integers(0, 10 ** 6)), ell ** (rank * depth))
    mu = MeasureTower.from_top(ell, rank, depth, top, draw(st.sampled_from([1, 2, ell, 4 * ell])))
    levels = [[str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
               for q in t] for t in mu.levels]
    # free text, and ASCII text near the n/d grammar, which keeps a level bulk
    tokens = st.sampled_from(["", "0", "7", "12", "+", "-", "/", ","])
    hostile = st.text(HOSTILE, max_size=7) | st.lists(tokens, max_size=4).map("".join)
    for t in levels:
        how = draw(st.sampled_from(["plain", "some", "every"]))
        if how == "every":
            t[:] = draw(st.lists(hostile, min_size=len(t), max_size=len(t)))
        elif how == "some":
            for i in draw(st.lists(st.integers(0, len(t) - 1), min_size=1, max_size=3)):
                t[i] = draw(hostile)
    if draw(st.integers(0, 9)) == 0:
        levels[-1][-1] = 1
    return {"ell": ell, "rank": rank, "levels": levels}


class TestBulkReader:
    """The bulk level reader against the reader that turns every value into a
    ``Fraction``: the same tower, or the same error text."""

    @settings(max_examples=300, deadline=None)
    @given(hostile_docs())
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1/-2", "0", "1/2"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1/+2", "0", "1/2"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1", "1/0", "0"]]})
    @example({"ell": 3, "rank": 1, "levels": [["0/"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1/", "0", "0"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1,0", "0"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["", "1", "0"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1", "0", "9" * 4400]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1", "0", "0/" + "9" * 4400]]})
    @example({"ell": 3, "rank": 1, "levels": [["6/6"], ["+2/4", "003/6", "-0/5"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1/3", "3/9", "1/3"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["+1", "-0", "00"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["٣", "-2", "0"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1/ 3", "1 /3", "1_0/5"]]})
    @example({"ell": 3, "rank": 1, "levels": [[], ["1"]]})
    @example({"ell": 3, "rank": 1, "levels": [["1"], ["1", 0, "0"]]})
    def test_matches_the_fraction_reader(self, doc):
        assert read(tower_from_json, doc) == read(tower_oracle.tower_from_json, doc)


@st.composite
def rank3_towers(draw):
    """A random bounded tower of rank 1-3 with at most 729 top cells."""
    ell, rank = draw(ALL_ELLS), draw(st.integers(1, 3))
    depth = draw(st.integers(0, max(n for n in range(6) if ell ** (rank * n) <= 729)))
    return random_bounded_tower(ell, rank, depth, denom_exponent=draw(st.integers(0, 2)),
                                seed=draw(st.integers(0, 10 ** 6)))


def same_tower(a, b):
    return (a.ell, a.rank, a.depth, a.tables, a.den, a.units_only) == \
        (b.ell, b.rank, b.depth, b.tables, b.den, b.units_only)


class TestIndexMaps:
    """Pushforward and restriction through per-axis coordinate lists against
    the loops that decode and re-encode every cell."""

    @settings(max_examples=80, deadline=None)
    @given(rank3_towers(), st.data())
    def test_pushforward(self, mu, data):
        r = mu.rank
        entry = st.integers(-10, 10) | st.integers(-10 ** 12, 10 ** 12)
        mat = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
        assert same_tower(pushforward_linear(mat, mu), tower_oracle.pushforward_linear(mat, mu))

    @settings(max_examples=80, deadline=None)
    @given(rank3_towers(), st.data())
    def test_restrict(self, mu, data):
        if data.draw(st.booleans()):
            region = "units"
        else:
            level = data.draw(st.integers(0, mu.depth + 1))
            coord = st.integers(-30, 30)
            region = (level, data.draw(st.lists(st.tuples(*[coord] * mu.rank), max_size=8)))
        try:
            want = tower_oracle.restrict(mu, region)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                restrict(mu, region)
        else:
            assert same_tower(restrict(mu, region), want)


class TestRankBudget:
    def test_largest_rank_within_the_cell_budget(self):
        assert MeasureTower(3, 12, [[1]]).rank == 12  # 3^12 = 531441 cells
        with pytest.raises(ValueError, match=r"rank too large: 3\^rank must be at most 1000000 cells"):
            MeasureTower(3, 13, [[1]])
        with pytest.raises(ValueError, match="rank too large"):
            MeasureTower(7, 10 ** 9, [[1]])

    @pytest.mark.parametrize("ell,rank", [(1000003, 1), (1009, 2), (101, 12)])
    def test_depth_0_tower_at_a_large_prime_is_accepted(self, ell, rank):
        """The rank bound does not depend on ell: a depth-0 tower has no level-1 table."""
        mu = tower_from_json({"ell": ell, "rank": rank, "levels": [["1"]]})
        assert (mu.ell, mu.rank, mu.depth, mu.levels) == (ell, rank, 0, ((1,),))
