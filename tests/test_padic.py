import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from elladic.padic import (
    PadicNum,
    is_odd_prime,
    one_unit_pow,
    residue_mod,
    teichmuller,
    unit_decompose,
    _DIGIT_BUDGET,
    _PRIME_BUDGET,
    _angle_from_scalar,
    _exponent_residue,
    _frac_val,
    _fraction_to_padic_abs,
)

PRIMES = [3, 5, 7]


def teich_oracle(u, ell, ndigits):
    # independent route: iterate u -> u^ell until stable, plain ints
    m = ell ** ndigits
    x = u % m
    seen = None
    while x != seen:
        seen = x
        x = pow(x, ell, m)
    return x


class TestTeichmuller:
    def test_one_is_fixed(self):
        assert teichmuller(1, 5, 2).residue(2) == 1

    def test_examples(self):
        assert teichmuller(2, 5, 2).residue(2) == 7  # 7^4 = 2401 = 1 mod 25
        assert teichmuller(2, 3, 2).residue(2) == 8  # 8 = -1 mod 9

    @pytest.mark.parametrize("ell", PRIMES)
    def test_against_iteration_oracle(self, ell):
        for nd in (1, 3, 5):
            for u in range(1, min(ell ** nd, 30)):
                if u % ell == 0:
                    continue
                assert teichmuller(u, ell, nd).residue(nd) == teich_oracle(u, ell, nd)

    @pytest.mark.parametrize("ell", PRIMES)
    @pytest.mark.parametrize("nd", range(1, 9))
    def test_root_of_unity_and_congruence(self, ell, nd):
        m = ell ** nd
        for u in range(1, min(m, 25)):
            if u % ell == 0:
                continue
            om = teichmuller(u, ell, nd)
            assert (om ** (ell - 1)).residue(nd) == 1 % m
            assert om.residue(1) == u % ell

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="not a unit"):
            teichmuller(10, 5, 3)

    def test_digit_budget(self):
        assert teichmuller(2, 13, _DIGIT_BUDGET).residue(1) == 2
        with pytest.raises(ValueError, match="^precision too large: ndigits must be at "
                                             "most 1000 digits$"):
            teichmuller(2, 13, _DIGIT_BUDGET + 1)
        with pytest.raises(ValueError, match="^precision too large"):
            teichmuller(2, 5, 10 ** 8)

    @pytest.mark.parametrize("nd", [0, -2])
    def test_rejects_digit_count_below_one(self, nd):
        # checked before the unit test: mod ell^0 every u reads as a non-unit
        for u in (1, 2, PadicNum.from_rational(2, 5, 3)):
            with pytest.raises(ValueError, match="nonzero value needs at least one digit"):
                teichmuller(u, 5, nd)


class TestUnitDecompose:
    def test_trivial(self):
        om, br = unit_decompose(PadicNum.from_rational(1, 5, 2))
        assert om.residue(2) == 1 and br.residue(2) == 1

    def test_example(self):
        om, br = unit_decompose(PadicNum.from_rational(2, 5, 2))
        assert om.residue(2) == 7
        assert br.residue(2) == 11
        assert br.residue(1) == 1  # bracket is a one-unit

    def test_teichmuller_fixpoint_has_trivial_bracket(self):
        om, br = unit_decompose(PadicNum.from_rational(7, 5, 2))
        assert om.residue(2) == 7 and br.residue(2) == 1

    def test_multiplicative(self):
        for ell in PRIMES:
            nd = 5
            for x in (2, ell + 1, 2 * ell + 3):
                for y in (ell - 1, ell + 2):
                    if x % ell == 0 or y % ell == 0:
                        continue
                    ox, bx = unit_decompose(PadicNum.from_rational(x, ell, nd))
                    oy, by = unit_decompose(PadicNum.from_rational(y, ell, nd))
                    oxy, bxy = unit_decompose(PadicNum.from_rational(x * y, ell, nd))
                    assert (ox * oy).congruent(oxy)
                    assert (bx * by).congruent(bxy)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="not a unit"):
            unit_decompose(PadicNum.from_rational(5, 5, 3))


class TestOneUnitPow:
    def test_zeroth_power(self):
        u = PadicNum.from_rational(6, 5, 3)
        assert one_unit_pow(u, 0).residue(3) == 1

    def test_integer_power(self):
        u = PadicNum.from_rational(6, 5, 2)
        assert one_unit_pow(u, 2).residue(2) == 36 % 25

    def test_half_power(self):
        u = PadicNum.from_rational(6, 5, 2)
        r = one_unit_pow(u, Fraction(1, 2)).residue(2)
        assert r == 16  # 16^2 = 256 = 6 mod 25
        assert pow(r, 2, 25) == 6

    @pytest.mark.parametrize("ell", PRIMES)
    @pytest.mark.parametrize("nd", [2, 4, 7])
    def test_matches_modular_exponentiation(self, ell, nd):
        # the one-unit group mod ell^n has exponent ell^(n-1)
        for base in (1 + ell, 1 + 2 * ell, 1 + ell + ell * ell):
            u = PadicNum.from_rational(base, ell, nd)
            for s in (0, 2, 5, 19, Fraction(1, 2), Fraction(3, ell + 1),
                      Fraction(-7, ell + 2)):
                sv = _angle_from_scalar(s, ell, nd - 1)
                want = pow(base, sv, ell ** nd)
                assert one_unit_pow(u, s).residue(nd) == want, (ell, nd, base, s)

    def test_additive_in_exponent(self):
        u = PadicNum.from_rational(8, 7, 5)
        s, t = Fraction(1, 3), Fraction(2, 5)
        lhs = one_unit_pow(u, s + t)
        rhs = one_unit_pow(u, s) * one_unit_pow(u, t)
        assert lhs.congruent(rhs)

    def test_repeated_multiplication(self):
        u = PadicNum.from_rational(4, 3, 6)
        acc = PadicNum.from_rational(1, 3, 6)
        for k in range(21):
            assert one_unit_pow(u, k).congruent(acc)
            acc = acc * u

    def test_rejects_non_one_unit(self):
        with pytest.raises(ValueError, match="not a one-unit"):
            one_unit_pow(PadicNum.from_rational(2, 5, 3), 2)

    def test_rejects_fractional_exponent_valuation(self):
        u = PadicNum.from_rational(6, 5, 3)
        with pytest.raises(ValueError, match="not integral"):
            one_unit_pow(u, Fraction(1, 5))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(PRIMES), st.integers(1, 8),
           st.integers(-1000, 1000), st.integers(1, 60))
    def test_root_property(self, data, ell, nd, p, q):
        """v = u^(p/q) is a one-unit with v^q = u^p mod ell^nd."""
        assume(q % ell)
        base = 1 + ell * data.draw(st.integers(0, ell ** (nd - 1) - 1))
        v = one_unit_pow(PadicNum.from_rational(base, ell, nd), Fraction(p, q))
        assert v.ndigits == nd and v.residue(1) == 1
        m = ell ** nd
        assert pow(v.residue(nd), q, m) == pow(base, p, m)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(PRIMES), st.integers(1, 8), st.integers(0, 8),
           st.integers(-1000, 1000), st.integers(1, 60))
    def test_padic_exponent_states_its_digits(self, data, ell, nd, A, p, q):
        """s + O(ell^A) gives u^s to exactly min(nd, A + 1) digits."""
        assume(q % ell)
        s = Fraction(p, q)
        u = PadicNum.from_rational(1 + ell * data.draw(st.integers(0, ell ** nd)), ell, nd)
        got = one_unit_pow(u, _fraction_to_padic_abs(s, ell, A))
        assert got.ndigits == min(nd, A + 1)
        assert got == one_unit_pow(u, s).reduce_digits(got.ndigits)


class TestPow:
    VALUES = [
        PadicNum(5, 0, 2, 3),
        PadicNum(5, 2, 7, 4),
        PadicNum(3, -1, 2, 5),
        PadicNum(7, 0, 1, 1),
        PadicNum.zero(5),
        PadicNum.zero_to_precision(5, 2),
        PadicNum.zero_to_precision(3, -1),
    ]

    @pytest.mark.parametrize("k", range(-3, 13))
    def test_matches_repeated_multiplication(self, k):
        for x in self.VALUES:
            if k < 0 and x.unit == 0:
                with pytest.raises(ZeroDivisionError):
                    x ** k
                continue
            base = x if k >= 0 else x.invert()
            want = PadicNum.from_rational(1, x.ell, x.ndigits or 1)
            for _ in range(abs(k)):
                want = want * base
            assert x ** k == want, (x, k)


class TestAngleRepr:
    def test_zero(self):
        assert _angle_from_scalar(0, 5, 4) == 0

    def test_complement(self):
        assert _angle_from_scalar(-1, 5, 2) == 24

    def test_modular_inverse(self):
        assert _angle_from_scalar(Fraction(1, 3), 5, 1) == 2

    def test_congruence_and_coherence(self):
        for q in (Fraction(7, 3), Fraction(-2, 9), 11):
            for n in range(4):
                a_n = _angle_from_scalar(q, 5, n)
                a_n1 = _angle_from_scalar(q, 5, n + 1)
                assert a_n1 % 5 ** n == a_n
                qq = Fraction(q)
                assert (qq.numerator - a_n * qq.denominator) % 5 ** n == 0

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError, match="not integral"):
            _angle_from_scalar(Fraction(1, 5), 5, 2)
        with pytest.raises(ValueError, match="not integral"):
            _angle_from_scalar(PadicNum.from_rational(Fraction(1, 5), 5, 3), 5, 2)

    def test_padic_input(self):
        x = PadicNum.from_rational(Fraction(1, 3), 5, 4)
        assert _angle_from_scalar(x, 5, 2) == 17
        assert _angle_from_scalar(x, 5, 1) == 2

    def test_auxiliary_modulus(self):
        # <i/ell> mod m with m coprime to ell
        assert residue_mod(Fraction(1, 5), 3) == 2
        with pytest.raises(ValueError, match="coprime"):
            residue_mod(Fraction(1, 3), 3)


class TestArithmetic:
    def test_is_odd_prime(self):
        assert [p for p in range(20) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19]

    def test_primality_past_the_budget_is_refused_not_false(self):
        """Trial division decides every odd n up to 2^32 at once; an odd n
        past it is refused, never answered False, and an even one is not prime."""
        start = time.perf_counter()
        assert _PRIME_BUDGET == 2 ** 32
        assert is_odd_prime(4294967291) and not is_odd_prime(4294967295)
        assert not is_odd_prime(2 ** 61)
        for n in (2 ** 32 + 1, 2 ** 61 - 1):
            with pytest.raises(ValueError, match=f"^prime too large: primality is decided "
                                                 f"up to 4294967296, got {n}$"):
                is_odd_prime(n)
        assert time.perf_counter() - start < 1

    def test_mixed_valuation_addition_weakens_precision(self):
        ell = 5
        a = PadicNum.from_rational(2, ell, 3)            # abs prec 3
        b = PadicNum.from_rational(Fraction(1, 5), ell, 3)  # val -1, abs prec 2
        s = a + b
        assert s.valuation == -1
        assert s.abs_prec == 2

    def test_cancellation_returns_zero_to_precision(self):
        ell = 5
        a = PadicNum.from_rational(7, ell, 3)
        d = a - PadicNum.from_rational(7, ell, 3)
        assert d.is_zero_to_precision and d.abs_prec == 3

    def test_partial_cancellation(self):
        ell = 5
        a = PadicNum.from_rational(7, ell, 3)
        b = PadicNum.from_rational(7 + 25, ell, 3)
        d = b - a
        assert d.valuation == 2 and d.ndigits == 1

    def test_negative_valuation_first_class(self):
        x = PadicNum.from_rational(Fraction(4, 5), 5, 4)
        assert x.valuation == -1
        assert (x * 5).residue(3) == 4

    def test_inverse(self):
        x = PadicNum.from_rational(3, 5, 4)
        assert (x * x.invert()).residue(4) == 1
        with pytest.raises(ZeroDivisionError):
            PadicNum.zero(5).invert()
        with pytest.raises(ZeroDivisionError):
            PadicNum.zero_to_precision(5, 3).invert()

    def test_congruent_raises_when_undecidable(self):
        # O(5^2) and 3 + O(5^2) say nothing about the digits mod 5^4 or 5^5
        with pytest.raises(ValueError, match="insufficient precision"):
            PadicNum.zero_to_precision(5, 2).congruent(0, 4)
        with pytest.raises(ValueError, match="insufficient precision"):
            PadicNum.from_rational(3, 5, 2).congruent(28, 5)
        # decidable verdicts are unchanged
        assert PadicNum.zero_to_precision(5, 2).congruent(0, 2)
        assert not PadicNum.from_rational(3, 5, 2).congruent(4, 5)
        assert PadicNum.from_rational(3, 5, 2).congruent(28)

    def test_rational_roundtrip(self):
        for q in (Fraction(7, 3), Fraction(-2, 45), Fraction(25, 4)):
            x = PadicNum.from_rational(q, 5, 6)
            assert x.congruent(q)

    def test_json(self):
        x = PadicNum.from_rational(Fraction(1, 3), 5, 2)
        assert x.to_json() == {"ell": 5, "valuation": 0, "unit": 17, "precision": 2}
        assert PadicNum.zero(5).to_json() == {"ell": 5, "zero": True}

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PRIMES),
        st.integers(-200, 200),
        st.integers(-200, 200),
        st.integers(-200, 200),
    )
    def test_ring_laws_at_stated_precision(self, ell, na, nb, nc):
        nd = 5
        a = PadicNum.from_rational(na, ell, nd)
        b = PadicNum.from_rational(nb, ell, nd)
        c = PadicNum.from_rational(nc, ell, nd)
        assert ((a + b) + c).congruent(a + (b + c))
        assert (a * (b + c)).congruent(a * b + a * c)
        assert (a * b).congruent(b * a)


def val(q, ell):
    return math.inf if q == 0 else _frac_val(q, ell)


def represented(x: PadicNum) -> Fraction:
    """The rational ell^valuation * unit that a PadicNum's digits spell out."""
    return Fraction(0) if x.unit == 0 else Fraction(x.ell) ** x.valuation * x.unit


@st.composite
def rationals(draw, ell):
    """n/d * ell^e for small n, d and e in [-4, 4]; an integral one is
    sometimes drawn as an int."""
    n = draw(st.integers(-400, 400))
    d = draw(st.integers(1, 60))
    q = Fraction(n, d) * Fraction(ell) ** draw(st.integers(-4, 4))
    return int(q) if q.denominator == 1 and draw(st.booleans()) else q


class TestValuation:
    def test_int_and_fraction(self):
        assert _frac_val(50, 5) == 2
        assert _frac_val(-7, 5) == 0
        assert _frac_val(Fraction(3, 125), 5) == -3
        assert _frac_val(Fraction(250, 7), 5) == 3

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_zero_raises(self, zero):
        with pytest.raises(ValueError, match="valuation of 0"):
            _frac_val(zero, 5)


class TestEncoder:
    @pytest.mark.parametrize("nd", [0, -2])
    def test_rejects_digit_count_below_one(self, nd):
        # mod ell^0 a nonzero rational would read as O(ell^v)
        for q in (Fraction(4, 5), 3, Fraction(-7, 2)):
            with pytest.raises(ValueError, match="nonzero value needs at least one digit"):
                PadicNum.from_rational(q, 5, nd)
        assert PadicNum.from_rational(0, 5, nd).is_exact_zero

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(PRIMES), st.integers(-6, 8))
    def test_exact_absolute_precision(self, data, ell, abs_exp):
        q = data.draw(rationals(ell) | st.just(Fraction(0)))
        x = _fraction_to_padic_abs(q, ell, abs_exp)
        assert x.abs_prec == abs_exp
        assert val(q - represented(x), ell) >= abs_exp
        assert x.unit == 0 or x.valuation == _frac_val(q, ell)


class TestExponentResidue:
    def test_padic_exponent_gives_only_its_digits(self):
        s = PadicNum.from_rational(7 + 3 * 125, 5, 2)  # 7 + O(5^2)
        assert _exponent_residue(s, 5, 4) == 7
        assert _exponent_residue(s, 5, 1) == 2
        assert _exponent_residue(PadicNum.zero(5), 5, 4) == 0

    def test_exponent_of_another_prime_refused(self):
        from elladic.lfunctions import kubota_leopoldt
        from elladic.measures import Factor, bernoulli_measure, integrate, restrict

        s7 = PadicNum.from_rational(2, 7, 3)
        tower = restrict(bernoulli_measure(2, 5, 3), "units")
        calls = [
            lambda: _exponent_residue(s7, 5, 3),
            lambda: _exponent_residue(PadicNum.zero(7), 5, 3),
            lambda: one_unit_pow(PadicNum.from_rational(6, 5, 3), s7),
            lambda: one_unit_pow(PadicNum.from_rational(6, 5, 3), PadicNum.zero(7)),
            lambda: integrate(tower, (Factor(inverse=True, bracket=s7),), 3),
            lambda: kubota_leopoldt(2, s7, 5, level=3),
            lambda: kubota_leopoldt(2, s7, 5, method="interp"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="prime mismatch"):
                call()

    def test_rational_exponent(self):
        assert _exponent_residue(Fraction(1, 2), 5, 3) == _angle_from_scalar(Fraction(1, 2), 5, 3)
        assert _exponent_residue(-3, 5, 2) == 22
        with pytest.raises(ValueError, match="not integral"):
            _exponent_residue(Fraction(1, 5), 5, 2)


class TestMixedOperands:
    def test_fraction_operand_keeps_digits(self):
        one = PadicNum.from_rational(1, 5, 3)
        for q in (Fraction(1, 5 ** 6), Fraction(1, 125)):
            total = one + q
            assert total.abs_prec == 3
            assert val(1 + q - represented(total), 5) >= 3

    def test_exact_operand_reaches_abs_prec(self):
        a = PadicNum.from_rational(2 * 5 ** 5, 5, 3)
        for q in (1, Fraction(1, 5)):
            total = a + q
            assert total.abs_prec == 8
            assert val(2 * 5 ** 5 + q - represented(total), 5) >= 8

    @pytest.mark.parametrize("q", [2, Fraction(-3, 5), Fraction(5, 7)])
    def test_number_divided_by_padic(self, q):
        for x in (PadicNum.from_rational(3, 5, 4), PadicNum.from_rational(Fraction(7, 25), 5, 2)):
            assert q / x == x.invert() * q

    def test_exact_zero_keeps_the_digit_floor(self):
        # an exact zero states no precision to reach
        assert (PadicNum.zero(5) + 7).abs_prec == 3


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def supported(op, a_prec, va, b_prec, vb):
    """The absolute precision exponent of a op b implied by its operands.

    a is known to ell^a_prec and has valuation va (inf for exact values and
    for zero); likewise b.
    """
    if op in "+-":
        return min(a_prec, b_prec)
    if op == "*":
        return min(a_prec + vb, b_prec + va)
    return min(a_prec - vb, b_prec + va - 2 * vb)


class TestArithmeticOracle:
    """Every PadicNum operation against exact Fraction arithmetic: the result
    agrees with the exact value to its stated absolute precision and never
    states more than the operands support."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        st.sampled_from(PRIMES),
        st.sampled_from(sorted(OPS)),
        st.integers(1, 6),
        st.integers(1, 6),
        st.booleans(),
    )
    def test_agrees_with_fraction_oracle(self, data, ell, op, nda, ndb, exact_b):
        qa = data.draw(rationals(ell) | st.just(Fraction(0)))
        qb = data.draw(rationals(ell) | st.just(Fraction(0)))
        assume(op != "/" or qb != 0)
        a = PadicNum.from_rational(qa, ell, nda)
        b = qb if exact_b else PadicNum.from_rational(qb, ell, ndb)
        got = OPS[op](a, b)
        want = OPS[op](Fraction(qa), Fraction(qb))
        assert got.ell == ell
        if got.is_exact_zero:
            assert want == 0
        else:
            assert val(want - represented(got), ell) >= got.abs_prec
        b_prec = math.inf if exact_b else b.abs_prec
        bound = supported(op, a.abs_prec, val(qa, ell), b_prec, val(qb, ell))
        assert got.abs_prec <= bound
