from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from elladic.bernoulli import bernoulli_number, bernoulli_poly
from elladic.ncseries import (
    NcSeries,
    ReducedSeries,
    _Poly,
    _conv,
    _display_table,
    bch,
    bch_reduced,
    bch_scaled_pair,
    bernoulli_kernel,
    gamma_series,
    inversion_closed_form,
    inversion_pipeline,
    p_em1_over,
    p_x_over_em1,
    pexp_scalar,
)

import quotient_oracle as oracle
from quotient_oracle import pmul, ptrim

F = Fraction


def one_y(alpha, phi, degree, max_y=None):
    coeffs = {}
    if alpha:
        coeffs["X"] = F(alpha)
    for k, c in enumerate(phi):
        if c and 1 + k <= degree:
            coeffs["Y" + "X" * k] = F(c)
    return NcSeries(degree, coeffs, max_y)


class TestNcSeries:
    def test_exp_log_inverse(self):
        D = 7
        rng = Random(4)
        s = NcSeries(
            D,
            {
                "X": F(1),
                "Y": F(-2),
                "XY": F(rng.randint(-3, 3)),
                "YXX": F(1, 2),
            },
        )
        assert s.exp().log() == s
        t = s.exp()
        assert t.log().exp() == t

    def test_bch_inverse_element(self):
        D = 8
        a = one_y(F(2, 3), [1, 0, F(-1, 2)], D)
        z = bch(a, -a)
        assert z.coeffs == {}

    def test_bch_commuting_case(self):
        D = 6
        x = NcSeries.variable("X", D)
        assert bch(x, x) == NcSeries(D, {"X": F(2)})

    def test_bch_degree_two(self):
        D = 4
        x = NcSeries.variable("X", D)
        y = NcSeries.variable("Y", D)
        b = bch(x, y)
        assert b["XY"] == F(1, 2) and b["YX"] == F(-1, 2)
        assert b["X"] == 1 and b["Y"] == 1

    @pytest.mark.parametrize("max_y", [1, 2])
    def test_max_y_cap_agrees_on_surviving_words(self, max_y):
        D = 8
        a_full = one_y(1, [1, 2], D)
        b_full = one_y(-1, [0, 1, 1], D)
        a_cap = one_y(1, [1, 2], D, max_y=max_y)
        b_cap = one_y(-1, [0, 1, 1], D, max_y=max_y)
        assert (ReducedSeries.from_series(bch(a_full, b_full))
                == ReducedSeries.from_series(bch(a_cap, b_cap)))

    @pytest.mark.parametrize("word", ["Z", "XZ", "x", "Y X"])
    def test_refuses_other_letters(self, word):
        with pytest.raises(ValueError, match="letters are X and Y"):
            NcSeries(3, {word: 1})
        with pytest.raises(ValueError, match="letters are X and Y"):
            NcSeries.variable(word, 3)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


class TestReduction:
    def test_basis_words(self):
        D = 5
        assert ReducedSeries.from_series(NcSeries(D, {"XY": 1})).b == ptrim([], D)
        r = ReducedSeries.from_series(NcSeries(D, {"YX": 1}))
        assert r.b == ptrim([0, 1], D)
        assert ReducedSeries.from_series(NcSeries(D, {"YXY": 1})) == ReducedSeries(D)

    def test_quotient_multiplication_matches_full(self):
        D = 6
        rng = Random(9)
        for _ in range(10):
            def rand_series():
                words = ["", "X", "Y", "XX", "YX", "XY", "YXX", "XYX"]
                return NcSeries(
                    D, {w: F(rng.randint(-2, 2)) for w in rng.sample(words, 5)}
                )

            s1, s2 = rand_series(), rand_series()
            lhs = ReducedSeries.from_series(s1 * s2)
            rhs = ReducedSeries.from_series(s1) * ReducedSeries.from_series(s2)
            assert lhs == rhs

    def test_reduced_exp_log_inverse(self):
        D = 8
        s = ReducedSeries(D, [0, 1, F(1, 3)], [2, 0, F(-1, 2)])
        assert s.exp().log() == s


class TestReducedTables:
    def test_tables_are_reduced(self):
        s = ReducedSeries(3, [F(1, 2), 0, F(3, 4)], [F(-1, 6)])
        assert (s.den, s.rows) == (12, [[6, 0, 9, 0], [-2, 0, 0, 0]])
        assert s.a == [F(1, 2), 0, F(3, 4), 0] and s.b == [F(-1, 6), 0, 0, 0]
        zero = s - s
        assert (zero.den, zero.rows) == (1, [[0] * 4, [0] * 4])
        assert zero == ReducedSeries(3)
        assert (s.scale(4).truncate(1).den, s.scale(4).truncate(1).rows[0]) == (3, [6, 0])

    def test_truncate_refuses_a_higher_degree(self):
        """A degree-3 series does not know its X^4 coefficients, so it cannot
        be read as a degree-4 one."""
        s = ReducedSeries(3, [0, 1], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="cannot truncate"):
            s.truncate(4)
        assert s.truncate(3) == s

    @pytest.mark.parametrize("op", ["+", "*"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_refuses_different_degrees(self, op, swap):
        """A degree-3 factor does not know the X^4 and X^5 coefficients that a
        degree-5 product or sum would read from it."""
        x, y = ReducedSeries(5, [0, 1], [1] * 6), ReducedSeries(3, [0, 1], [1, 2, 3, 4])
        if swap:
            x, y = y, x
        with pytest.raises(ValueError, match="degrees differ"):
            x + y if op == "+" else x * y


class TestTableCore:
    """The integer-table core that ``_Poly`` and ``ReducedSeries`` share."""

    def test_refuses_the_other_table_class(self):
        poly, reduced = _Poly(3, [0, 1]), ReducedSeries(3, [0, 1])
        for x, y in ((poly, reduced), (reduced, poly)):
            with pytest.raises(TypeError, match="cannot combine"):
                x + y
            with pytest.raises(TypeError, match="cannot combine"):
                x * y
        assert poly != reduced and reduced != poly

    @pytest.mark.parametrize("D", range(6))
    def test_exp_log_reach_the_top_power(self, D):
        """exp(X + Y) = e^X + Y (e^X - 1)/X: its Y X^D coefficient 1/(D+1)!
        comes from the (D+1)-th power, one past the degree."""
        s = ReducedSeries(D, [0, 1], [1])
        assert s.exp().b == [F(1, factorial(k + 1)) for k in range(D + 1)]
        assert s.exp().log() == s


class _GenericSum(ReducedSeries):
    """``ReducedSeries`` with the reference power sum over full quotient
    products."""

    __slots__ = ()
    _power_sum = oracle.generic_power_sum


class TestQuotientPowerSum:
    """The quotient's own power sum, sum_k w_k a^k + Y b sum_k w_k a^(k-1) at
    one convolution per power of a, gives exp and log the very tables of the
    reference sum over full products: x = a + Y b with a = 0, with a free
    linear term, and with none (its powers vanish before the degree)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 14), st.sampled_from(["free", "zero", "no linear term"]),
           st.lists(rationals, max_size=16), st.lists(rationals, max_size=16))
    def test_matches_the_generic_sum(self, D, shape, a, b):
        a = [0] + a
        if shape == "zero":
            a = []
        elif shape == "no linear term":
            a[1:2] = [0]
        for s, op in ((ReducedSeries(D, a, b), "exp"), (ReducedSeries(D, [1] + a[1:], b), "log")):
            got = getattr(s, op)()
            want = getattr(_GenericSum._make(D, s.den, s.rows), op)()
            assert (got.den, got.rows) == (want.den, want.rows)


nonzero_rationals = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5))


class TestSparseKernels:
    """The convolution and the quotient power sum skip zero entries; they
    give the tables of the dense reference whatever the zeros' layout."""

    entries = st.lists(st.sampled_from([0, 0, 0, 1, -1, 3, -7, 10 ** 20]), max_size=12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), entries, st.integers(0, 4), entries, st.data())
    def test_conv_matches_the_dense_reference(self, lead_p, p, lead_q, q, data):
        """Zero runs, leading zeros, and n short of and past both lists."""
        p, q = [0] * lead_p + p, [0] * lead_q + q
        n = data.draw(st.integers(0, len(p) + len(q) + 2))
        assert _conv(p, q, n) == oracle.dense_conv(p, q, n)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 12), st.sampled_from(["zero", "c X", "c X^j", "dense"]),
           nonzero_rationals, st.integers(2, 13),
           st.lists(nonzero_rationals, min_size=13, max_size=13), st.lists(rationals, max_size=14))
    def test_exp_and_log_match_the_generic_sum(self, D, shape, c, j, dense, b):
        """a = 0, c X, c X^j and dense a, exp of a + Y b and log of 1 + a + Y b."""
        a = {"zero": [0], "c X": [0, c], "c X^j": [0] * j + [c], "dense": [0] + dense}[shape]
        for s, op in ((ReducedSeries(D, a, b), "exp"), (ReducedSeries(D, [1] + a[1:], b), "log")):
            got = getattr(s, op)()
            want = getattr(_GenericSum._make(D, s.den, s.rows), op)()
            assert (got.den, got.rows) == (want.den, want.rows)


class TestBchInTheQuotient:
    """``bch`` on ``ReducedSeries`` at degree D is the image of ``bch`` on one-Y
    series of total degree D + 1: the quotient map and the X-degree window
    commute with the truncated exp and log, which ``verify bch`` relies on."""

    scalars = st.one_of(st.just(F(0)), nonzero_rationals)
    phis = st.lists(rationals, max_size=5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9), scalars, scalars, phis, phis)
    def test_is_the_image_of_the_one_y_product(self, D, alpha, beta, phi1, phi2):
        got = bch(ReducedSeries(D, [0, alpha], phi1), ReducedSeries(D, [0, beta], phi2))
        oracle_route = bch(one_y(alpha, phi1, D + 1, max_y=1), one_y(beta, phi2, D + 1, max_y=1))
        assert got == ReducedSeries.from_series(oracle_route).truncate(D)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 9), nonzero_rationals, scalars, phis, phis, st.booleans())
    def test_refuses_a_constant_term(self, D, c, alpha, phi1, phi2, second):
        a, b = ReducedSeries(D, [c, alpha], phi1), ReducedSeries(D, [0, alpha], phi2)
        with pytest.raises(ValueError, match="bch needs zero constant terms"):
            bch(b, a) if second else bch(a, b)


class TestIntegerRouteMatchesOracle:
    """The integer-table quotient algebra equals the Fraction one of
    ``quotient_oracle`` coefficient by coefficient."""

    @staticmethod
    def same(got, want):
        assert got.a == want.a and got.b == want.b
        assert got == ReducedSeries(want.degree, want.a, want.b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 14),
           st.one_of(st.sampled_from([F(0), F(1), F(-1)]), nonzero_rationals),
           st.one_of(st.just(F(0)), rationals), st.data())
    def test_matches_fraction_oracle(self, D, chi, t, data):
        a, b = (data.draw(st.lists(rationals, min_size=D + 1, max_size=D + 1)) for _ in range(2))
        for table, series in ((pexp_scalar, oracle.pexp_scalar), (p_em1_over, oracle.p_em1_over),
                              (p_x_over_em1, oracle.p_x_over_em1)):
            assert table(t, D).coeffs == series(t, D)
        assert bernoulli_kernel(chi, t, D) == oracle.bernoulli_kernel(chi, t, D)
        self.same(bch_reduced(t, a, chi, b, D), oracle.bch_reduced(t, a, chi, b, D))
        self.same(gamma_series(chi, a[::2], b[1::2], D), oracle.gamma_series(chi, a[::2], b[1::2], D))
        self.same(bch_scaled_pair(chi, t, D), oracle.bch_scaled_pair(chi, t, D))
        if chi:
            assert _display_table(chi, t, D).coeffs == oracle.bch_scaled_pair_display(chi, t, D)
        self.same(inversion_pipeline(a, chi, t, D), oracle.inversion_pipeline(a, chi, t, D))
        self.same(inversion_closed_form(a, chi, t, D), oracle.inversion_closed_form(a, chi, t, D))

        x, y = ReducedSeries(D, a, b), ReducedSeries(D, b, b)
        ox, oy = oracle.ReducedSeries(D, a, b), oracle.ReducedSeries(D, b, b)
        self.same(x * y, ox * oy)
        self.same(x + y, ox + oy)
        self.same(x - y, ox - oy)
        self.same(x.scale(chi), ox.scale(chi))
        self.same(x.truncate(D // 2), ox.truncate(D // 2))
        x0, ox0 = ReducedSeries(D, [0] + a[1:], b), oracle.ReducedSeries(D, [0] + a[1:], b)
        self.same(x0.exp(), ox0.exp())
        x1, ox1 = ReducedSeries(D, [1] + a[1:], b), oracle.ReducedSeries(D, [1] + a[1:], b)
        self.same(x1.log(), ox1.log())
        for s, op in ((x1, "exp"), (x0, "log")):
            with pytest.raises(ValueError, match=f"{op} needs"):
                getattr(s, op)()


class TestPoly:
    """The one-variable table series equals the Fraction lists of
    ``quotient_oracle`` coefficient by coefficient."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 14), rationals, rationals, st.data())
    def test_matches_fraction_lists(self, D, c, gamma, data):
        f, g = (data.draw(st.lists(rationals, max_size=D + 3)) for _ in range(2))
        p, q = _Poly(D, f), _Poly(D, g)
        assert p.coeffs == ptrim(f, D)
        assert _Poly(D, map(str, f)) == p
        assert (p == q) == (ptrim(f, D) == ptrim(g, D))
        assert (p + q).coeffs == oracle.padd(f, g, D)
        assert (p - q).coeffs == oracle.padd(f, oracle.pneg(g, D), D)
        assert (p * q).coeffs == pmul(f, g, D)
        assert p * q == _Poly(D, pmul(f, g, D))
        assert p.scale(c).coeffs == oracle.pscale(c, f, D)
        assert p.at(gamma).coeffs == oracle.pcompose(f, [0, gamma], D)
        shifted = _Poly(D, [0] + f[1:]).div_x()
        assert (shifted.degree, shifted.coeffs) == (D - 1, ptrim(f, D)[1:])
        with pytest.raises(ValueError, match="must vanish at 0"):
            _Poly(D, [1] + f[1:]).div_x()


class TestBchReduced:
    def test_inverse_collapses(self):
        D = 8
        phi = [F(1), F(-2), F(1, 3)]
        out = bch_reduced(F(3, 2), phi, F(-3, 2), oracle.pneg(phi, D), D)
        assert out == ReducedSeries(D)

    def test_x_circ_y(self):
        D = 9
        got = bch_reduced(1, [0], 0, [1], D)
        assert got.a == ptrim([0, 1], D)
        assert got.b == oracle.p_x_over_em1(1, D)

    def test_y_circ_x(self):
        D = 9
        got = bch_reduced(0, [1], 1, [0], D)
        # X + Y * X e^X/(e^X - 1)
        want = pmul(oracle.p_x_over_em1(1, D), [F(1, factorial(k)) for k in range(D + 1)], D)
        assert got.b == want

    def test_matches_full_route(self):
        D = 10
        rng = Random(71)
        for _ in range(6):
            alpha = F(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
            beta = F(rng.choice([1, -1, 2, -3]), rng.randint(1, 3))
            phi1 = [F(rng.randint(-2, 2)) for _ in range(4)]
            phi2 = [F(rng.randint(-2, 2)) for _ in range(4)]
            a = one_y(alpha, phi1, D + 1, max_y=1)
            b = one_y(beta, phi2, D + 1, max_y=1)
            got = ReducedSeries.from_series(bch(a, b)).truncate(D)
            assert got == bch_reduced(alpha, phi1, beta, phi2, D)

    def test_z_series_identity(self):
        D = 12
        x = NcSeries.variable("X", D + 1, max_y=1)
        y = NcSeries.variable("Y", D + 1, max_y=1)
        z = ReducedSeries.from_series(-bch(x, y)).truncate(D)
        assert z.a == ptrim([0, -1], D)
        assert z.b == oracle.pneg(oracle.p_x_over_em1(1, D), D)

    def test_group_power_is_scalar_multiple(self):
        D = 9
        alpha, phi = F(2, 3), [F(1), F(0), F(-1, 2), F(2)]
        for p, q in [(F(2), F(3)), (F(1, 2), F(-1, 3)), (F(-2), F(2))]:
            got = bch_reduced(p * alpha, [p * c for c in phi],
                              q * alpha, [q * c for c in phi], D)
            want = ReducedSeries(
                D, [0, (p + q) * alpha], [(p + q) * c for c in phi]
            )
            assert got == want


class TestGammaSeries:
    @staticmethod
    def even_inputs(chi, degree):
        return [
            bernoulli_number(2 * k) / (2 * factorial(2 * k)) * (1 - F(chi) ** (2 * k))
            for k in range(1, degree // 2 + 1)
        ]

    def test_trivial_scaling_vanishes(self):
        out = gamma_series(1, self.even_inputs(1, 10), [F(4), F(-1)], 10)
        assert out == ReducedSeries(10)

    @pytest.mark.parametrize("chi", [F(2), F(3), F(1, 2)])
    def test_output_is_bernoulli_kernel(self, chi):
        D = 10
        out = gamma_series(chi, self.even_inputs(chi, D), [F(1), F(2), F(-3)], D)
        assert not any(out.a)
        assert out.b == bernoulli_kernel(chi, 0, D)
        # coefficient of X^(k-1) is B_k/k! (1 - chi^k)
        for k in range(1, D + 2):
            assert out.b[k - 1] == bernoulli_number(k) / factorial(k) * (1 - chi ** k)

    def test_odd_inputs_cancel(self):
        D = 10
        rng = Random(5)
        chi = F(3)
        ref = gamma_series(chi, self.even_inputs(chi, D), [F(0)] * 5, D)
        for _ in range(5):
            odd = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
            assert gamma_series(chi, self.even_inputs(chi, D), odd, D) == ref


class TestInversionPipeline:
    def test_trivial_chi(self):
        D = 8
        a = [F(2), F(-1), F(0), F(3)]
        got = inversion_pipeline(a, 1, F(1, 3), D)
        want = ReducedSeries(D, None, oracle.pcompose(ptrim(a, D), [0, -1], D))
        assert got == want

    def test_zero_input_gives_bernoulli_polynomial_coefficients(self):
        D = 8
        chi, t = F(2), F(1, 3)
        got = inversion_pipeline([F(0)], chi, t, D)
        for k in range(1, D + 2):
            assert got.b[k - 1] == bernoulli_poly(k, t) / factorial(k) * (1 - chi ** k)

    def test_matches_closed_form_random(self):
        D = 8
        rng = Random(17)
        for _ in range(10):
            a = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(D + 1)]
            chi = F(rng.choice([2, 3, 5, -1]), rng.choice([1, 2]))
            t = F(rng.randint(1, 6), rng.choice([5, 7, 3]))
            assert inversion_pipeline(a, chi, t, D) == inversion_closed_form(a, chi, t, D)

    def test_display_matches_recomputation(self):
        for chi, t in [(F(2), F(1, 3)), (F(3), F(2, 5)), (F(1, 2), F(1, 7))]:
            loop = bch_scaled_pair(chi, t, 9)
            assert loop.b == _display_table(chi, t, 9).coeffs
            assert loop.a == ptrim([0, t * (1 - chi)], 9)


class TestGammaZero:
    @pytest.mark.parametrize("D", [0, 1, 5])
    def test_series_are_one(self, D):
        # (e^(gamma X) - 1)/(gamma X) and its inverse are 1 at gamma = 0
        assert p_em1_over(0, D).coeffs == [1] + [0] * D
        assert p_x_over_em1(0, D).coeffs == [1] + [0] * D
