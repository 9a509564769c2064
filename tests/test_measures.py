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
    dilation_pullback,
    dirac_tower,
    integrate,
    mellin_multi,
    product_tower,
    pushforward_linear,
    random_bounded_tower,
    raw_word_integral,
    restrict,
    successive_difference_pushforward,
    tower_from_json,
    tower_to_json,
    word_coefficient,
    zero_tower,
    _coarsen,
)
from elladic.padic import PadicNum, residue_mod, teichmuller, _frac_val
from elladic.transforms import IwasawaSeries, f_transform, measure_from_p_series, p_transform

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
            assert bernoulli_measure(c, 5, 1).total_mass == F(c - 1, 2)

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

    def test_self_similar_under_scaling_pullback(self):
        E = bernoulli_measure(2, 5, 4)
        assert dilation_pullback(E, 1).levels == E.levels[:4]


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


class TestRestrictAndPullback:
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
        assert d0.levels == zero_tower(5, 1, 2).levels

    def test_coset_restriction(self):
        E = bernoulli_measure(2, 5, 2)
        r = restrict(E, (1, [(2,)]))
        assert r.value(1, (2,)) == F(1, 2)
        assert r.value(1, (1,)) == 0
        assert r.total_mass == F(1, 2)

    def test_scaling_pullback_reads_deeper_level(self):
        E = bernoulli_measure(2, 5, 3)
        p = dilation_pullback(E, 1)
        for n in range(3):
            m = 5 ** n
            for i in range(m):
                assert p.value(n, (i,)) == E.value(n + 1, (5 * i,))

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

    def test_linear_combination_integrand(self):
        E = bernoulli_measure(2, 5, 4)
        combo = [
            (F(3), (Factor(power=1),)),
            (F(-1), (Factor(power=0),)),
        ]
        got = integrate(E, combo, 4)
        m1 = integrate(E, (Factor(power=1),), 4)
        m0 = integrate(E, (Factor(),), 4)
        assert got.congruent(3 * m1 - m0)

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
        s_coarse = PadicNum.from_int(2, 5, 1)  # exponent known mod 5 only
        v = integrate(Eu, (Factor(inverse=True, teich=2, bracket=s_coarse),), 4)
        assert v.abs_prec == 2  # capped at s.abs_prec + 1, not level - 1
        exact = integrate(Eu, (Factor(inverse=True, teich=2, bracket=2),), 4)
        assert exact.congruent(v, 2)


class TestWords:
    def test_point_mass_tail_power(self):
        d = dirac_tower((3,), 5, 1, 4)
        got = word_coefficient(d, Word((0, 4)), 4)
        assert got.congruent(F(3 ** 4, 24))

    def test_point_mass_leading_power(self):
        d = dirac_tower((3,), 5, 1, 3)
        assert word_coefficient(d, Word((1, 0)), 3).congruent(-3)

    def test_rank_two_difference(self):
        d = dirac_tower((3, 1), 5, 2, 2)
        assert word_coefficient(d, Word((0, 1, 0)), 2).congruent(2)

    def test_rank_mismatch(self):
        d = dirac_tower((3,), 5, 1, 2)
        with pytest.raises(ValueError, match="rank mismatch"):
            word_coefficient(d, Word((0, 1, 0)), 2)

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
        assert word_coefficient(mu, w, 3).congruent(F(raw, 24))


class TestChangeOfVars:
    def test_rank_one_identity(self):
        E = bernoulli_measure(2, 5, 2)
        assert successive_difference_pushforward(E).levels == E.levels

    def test_dirac(self):
        d = dirac_tower((4, 1), 5, 2, 2)
        out = successive_difference_pushforward(d)
        assert out.levels == dirac_tower((3, 1), 5, 2, 2).levels

    def test_moment_transport(self):
        mu = random_bounded_tower(5, 2, 2, denom_exponent=1, seed=11)
        out = successive_difference_pushforward(mu)
        t1 = sum(v * c[0] for c, v in out.cells(2))
        x_diff = sum(v * (c[0] - c[1]) for c, v in mu.cells(2))
        diff = t1 - x_diff
        assert frac_val(diff, 5) >= 2 - mu.denom_exponent

    def test_word_against_difference_coordinates(self):
        mu = random_bounded_tower(5, 2, 2, denom_exponent=0, seed=23)
        bar = successive_difference_pushforward(mu)
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
        got = mellin_multi(E, [1], [1], 3)
        unit_mass = integrate(restrict(E, "units"), (Factor(),), 3)
        assert got.congruent(unit_mass)

    def test_bernoulli_example(self):
        E = bernoulli_measure(2, 5, 5)
        assert mellin_multi(E, [2], [2], 5).congruent(1)

    def test_product_tower_factorizes(self):
        E = bernoulli_measure(2, 5, 3)
        EE = product_tower(E, E)
        got = mellin_multi(EE, [2, 2], [2, 2], 2)
        one_dim = mellin_multi(E, [2], [2], 2)
        assert got.congruent(one_dim * one_dim)


class TestBoxDecomposition:
    """Full-space polynomial integrals = sums over unit-scaled boxes."""

    @pytest.mark.parametrize("rank,depth,word", [(1, 4, (1, 2)), (2, 3, (1, 1, 2))])
    def test_box_decomposition_sum(self, rank, depth, word):
        ell = 3
        mu = random_bounded_tower(ell, rank, depth, denom_exponent=1, seed=rank + 7)
        bar = successive_difference_pushforward(mu)
        d = bar.denom_exponent
        a = word
        lhs = F(0)
        for coords, v in bar.cells(depth):
            if not v:
                continue
            t = (-sum(coords)) ** a[0]
            for ci, ai in zip(coords, a[1:]):
                t *= ci ** ai
            lhs += t * v

        B = depth - 1
        rhs = F(0)
        floor = (B + 1) * min(a[1:]) - d  # tail valuation
        for box in _boxes(rank, B):
            level = depth - max(box)
            if level < 1:
                continue
            nu = restrict(dilation_pullback(bar, box), "units")
            pref = ell ** sum(ai * ni for ai, ni in zip(a[1:], box))
            m = ell ** level
            acc = F(0)
            for coords, v in nu.cells(level):
                if not v:
                    continue
                t = (-sum(ell ** ni * ci for ni, ci in zip(box, coords))) ** a[0]
                for ci, ai in zip(coords, a[1:]):
                    t *= ci ** ai
                acc += t * v
            rhs += pref * acc
            floor = min(floor, sum(ai * ni for ai, ni in zip(a[1:], box)) + level - d)
        assert frac_val(lhs - rhs, ell) >= floor


def _boxes(rank, bound):
    if rank == 0:
        yield ()
        return
    for h in range(bound + 1):
        for t in _boxes(rank - 1, bound):
            yield (h,) + t


class TestUnitShellExpansion:
    """Full moments as geometric sums of unit-restricted scaled moments."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_bernoulli_measure(self, k):
        ell, depth = 5, 5
        E = bernoulli_measure(2, ell, depth)
        lhs = integrate(E, (Factor(power=k),), depth)
        rhs = None
        for j in range(depth - 1):
            nu = restrict(dilation_pullback(E, j), "units")
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
        # deeper shells vanish: the pullback of a unit point mass is zero
        assert dilation_pullback(dmu, 1).levels == zero_tower(ell, 1, depth - 1).levels


class TestZeroMassTowers:
    def test_constant_coefficient_vanishes(self):
        # rank > 1 towers with zero total mass have vanishing degree-0
        # exponential-moment coefficient, exactly
        from elladic.transforms import f_transform

        for seed in (42, 43, 44):
            mu = random_bounded_tower(
                3, 2, 3, denom_exponent=1, seed=seed, zero_total=True
            )
            assert mu.total_mass == 0
            assert f_transform(mu, 3).constant == 0
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
        assert tuple(_coarsen(mu.levels[n + 1], mu.ell, mu.rank, n + 1)) == mu.levels[n]
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
        assert_coarsens(product_tower(mu1, mu2))

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
    @given(st.data(), ELLS)
    def test_dilation_pullback(self, data, ell):
        mu = data.draw(towers(ell))
        k = data.draw(st.lists(st.integers(0, mu.depth), min_size=mu.rank, max_size=mu.rank))
        assert_coarsens(dilation_pullback(mu, k))

    @settings(max_examples=25, deadline=None)
    @given(st.data(), ELLS, st.integers(1, 2), st.integers(0, 2))
    def test_measure_from_p_series(self, data, ell, rank, depth):
        index = st.tuples(*[st.integers(0, 6)] * rank)
        coeffs = data.draw(st.dictionaries(index, st.fractions(max_denominator=9), max_size=5))
        series = IwasawaSeries(rank, "binomial", 6, coeffs)
        assert_coarsens(measure_from_p_series(series, ell, depth))


# -- integrate against the factor-by-factor formula ------------------------------


def oracle_integrate(mu, terms, level, K):
    """The level sum of the integrand with every factor evaluated one piece at a
    time, mod ell^K: x^power, then x^-1, then omega(x)^teich, then
    [x]^s = (x * omega(x)^-1)^s."""
    ell = mu.ell
    mod = ell ** K
    omega = {u: teichmuller(u, ell, K).residue(K) for u in range(1, ell)}
    total = F(0)
    for x, v in mu.cells(level):
        if not v or any(c % ell == 0 for c in x):
            continue
        for coeff, fs in terms:
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
            total += coeff * val * v
    return total


@st.composite
def factors(draw, ell):
    kind = draw(st.sampled_from(["none", "int", "fraction", "padic"]))
    if kind == "int":
        bracket = draw(st.integers(-6, 6))
    elif kind == "fraction":
        bracket = F(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 4, 7])))
    elif kind == "padic":
        bracket = PadicNum.from_int(draw(st.integers(-30, 30)), ell, draw(st.integers(1, 4)))
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
        term = st.tuples(st.fractions(-3, 3, max_denominator=4),
                         st.tuples(*[factors(ell)] * mu.rank))
        terms = data.draw(st.lists(term, min_size=1, max_size=2))
        got = integrate(mu, terms, level)
        K = level + 2 * mu.denom_exponent + 6
        want = PadicNum.from_rational(oracle_integrate(mu, terms, level, K), ell, K)
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


def regularisers(ell):
    """Every valid regulariser below 60: a unit c with c^(ell-1) != 1 mod ell^2."""
    return [c for c in range(2, 60) if c % ell and pow(c, ell - 1, ell * ell) != 1]


@st.composite
def unit_integrals(draw):
    """(ell, level, c, beta, s) with at most 3125 cells at the top level."""
    ell = draw(st.sampled_from([3, 5, 7, 11]))
    level = draw(st.integers(1, max(n for n in range(1, 6) if ell ** n <= 3125)))
    kind = draw(st.sampled_from(["int", "fraction", "padic"]))
    if kind == "int":
        s = draw(st.integers(-9, 9))
    elif kind == "fraction":
        s = F(draw(st.integers(-9, 9)), draw(st.sampled_from([d for d in (2, 3, 4, 7) if d % ell])))
    else:
        s = PadicNum.from_int(draw(st.integers(-50, 50)), ell, draw(st.integers(1, 6)))
    return (ell, level, draw(st.sampled_from(regularisers(ell))),
            draw(st.integers(0, ell - 2)), s)


class TestBernoulliUnitIntegral:
    """The residue sum is the tower route's integral, as the same PadicNum."""

    @settings(max_examples=80, deadline=None)
    @given(unit_integrals())
    # regularisers that do not generate the units mod ell
    @example((3, 5, 4, 1, F(-3, 2)))
    @example((5, 4, 4, 2, 3))
    @example((7, 3, 9, 1, F(1, 2)))
    @example((11, 2, 4, 4, PadicNum.from_int(7, 11, 1)))
    def test_equals_tower_route(self, case):
        ell, level, c, beta, s = case
        mu = restrict(bernoulli_measure(c, ell, level), "units")
        want = integrate(mu, (Factor(inverse=True, teich=beta, bracket=s),), level)
        got = bernoulli_unit_integral(c, ell, level, beta, s)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("args,error", [
        ((5, 5, 2), "not a unit"),
        ((2, 5, -1), "depth must be >= 0"),
        ((2, 5, 0), "region not expressible at available depth"),
        ((2, 9, 2), "ell must be an odd prime"),
    ])
    def test_refusals_match_tower_route(self, args, error):
        with pytest.raises(ValueError, match=error):
            restrict(bernoulli_measure(*args), "units")
        with pytest.raises(ValueError, match=error):
            bernoulli_unit_integral(*args, 0, 1)
