import itertools
import math
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from elladic.bernoulli import (
    _WEIGHT_BUDGET,
    _bernoulli_sums,
    _character_bernoulli,
    bernoulli_number,
    gen_bernoulli,
)
from elladic.lfunctions import (
    _dirichlet_node,
    _hurwitz_node,
    DirichletCharacter,
    SigmaDependentError,
    classical_dirichlet_special,
    dirichlet_l,
    dirichlet_node,
    hurwitz_l,
    hurwitz_node,
    interpolation_weight,
    kl_node,
    kl_node_rational,
    kubota_leopoldt,
    minus_one_l,
    zinv_l,
    zinv_node,
    zinv_report,
)
from elladic.padic import PadicNum, _frac_val, one_unit_pow, smallest_regularizer, teichmuller, unit_decompose

F = Fraction


def mod4_character(ell=5):
    return DirichletCharacter(4, {1: 1, 3: -1}, ell)


def cyclic_character(m, g, r, ell):
    """The character mod m (cyclic units, generator g) sending g to r mod ell."""
    order = next(n for n in range(1, m) if pow(g, n, m) == 1)
    return DirichletCharacter(m, {pow(g, j, m): pow(r, j, ell) for j in range(order)}, ell)


def is_rational(psi):
    """psi takes only the values +-1 on the units."""
    return all(psi.residue(a) in (0, 1, psi.ell - 1) for a in range(psi.modulus))


def rational_value(psi, a):
    """psi(a) for a character with values +-1 (0 at a non-unit)."""
    return {0: 0, 1: 1, psi.ell - 1: -1}[psi.residue(a)]


# (ell, m, g, r): characters of order 4, 6 and 6, with values off +-1
NON_RATIONAL = [(5, 13, 2, 2), (7, 9, 2, 3), (13, 7, 3, 4)]


def rational_characters(ell, max_modulus=12):
    """Every primitive character with values +-1 mod m <= max_modulus, m prime to ell."""
    out = []
    for m in range(3, max_modulus + 1):
        units = [a for a in range(2, m) if math.gcd(a, m) == 1]
        for signs in itertools.product((1, -1), repeat=len(units)):
            try:
                out.append(DirichletCharacter(m, {1: 1, **dict(zip(units, signs))}, ell))
            except ValueError:
                pass  # not multiplicative, not primitive, or ell divides m
    return out


def non_rational_characters(ell):
    """The primitive characters off +-1 on the cyclic unit groups mod 3..13."""
    out = []
    for m, g in [(3, 2), (4, 3), (5, 2), (7, 3), (9, 2), (11, 2), (13, 2)]:
        for r in range(2, ell - 1):
            try:
                psi = cyclic_character(m, g, r, ell)
            except ValueError:
                continue  # r^phi(m) != 1, not primitive, or ell divides m
            if not is_rational(psi):
                out.append(psi)
    return out


# every primitive character the tests build at ell = 3, 5, 7, 11, 13
CHARACTERS = [
    (ell, psi) for ell in (3, 5, 7, 11, 13)
    for psi in rational_characters(ell) + non_rational_characters(ell)
]


def node_vanishes(psi, k, ell):
    """psi(-1) != (-1)^k, or the Euler factor 1 - psi(ell) ell^(k-1) is 0."""
    even = psi.residue(-1) == 1
    return even != (k % 2 == 0) or (k == 1 and psi.residue(ell) == 1)


def prime_sets(ell):
    """The sets of one to three primes from {2, 3, 13, 17}, less ell."""
    pool = [p for p in (2, 3, 13, 17) if p != ell]
    return [s for n in (1, 2, 3) for s in itertools.combinations(pool, n)]


def zinv_hurwitz_sum(k, primes, ell):
    """Oracle: the Hurwitz nodes summed one unit at a time."""
    m = math.prod(primes)
    return sum(hurwitz_node(k, i, m, ell) for i in range(1, m) if math.gcd(i, m) == 1)


def dirichlet_hurwitz_sum(psi, k, ell, ndigits=8):
    """Oracle: -m^(k-1) sum_a psi(a) hurwitz_node(k, a, m), exact when psi is
    rational, otherwise worked to ndigits + k + 6 digits."""
    m = psi.modulus
    if is_rational(psi):
        acc = sum(rational_value(psi, a) * hurwitz_node(k, a, m, ell)
                  for a in range(1, m) if psi.residue(a))
        return -Fraction(m) ** (k - 1) * acc
    work = ndigits + k + 6
    acc = PadicNum.zero(ell)
    for a in range(1, m):
        if psi.residue(a):
            acc = acc + teichmuller(psi.residue(a), ell, work) * PadicNum.from_rational(
                hurwitz_node(k, a, m, ell), ell, work
            )
    return acc * PadicNum.from_rational(-Fraction(m) ** (k - 1), ell, work)


def dirichlet_twisted_at_s(psi, beta, s, ell, M, ndigits=8):
    """Oracle: the character-weighted Hurwitz sum at the interpolation weight
    k times the front factor -omega(m)^beta [m]^s / m twisted at s itself,
    worked to ndigits + k + 6 digits and read off like ``dirichlet_l``, which
    loses no digits to a pole at beta = 0 (a primitive psi != 1 has none)."""
    m = psi.modulus
    k = interpolation_weight(beta, s, ell, M)
    work = ndigits + k + 6
    acc = PadicNum.zero(ell)
    for a in range(1, m):
        if psi.residue(a):
            acc = acc + teichmuller(psi.residue(a), ell, work) * PadicNum.from_rational(
                hurwitz_node(k, a, m, ell), ell, work
            )
    om, br = unit_decompose(PadicNum.from_rational(m, ell, work))
    v = -(om ** beta) * one_unit_pow(br, s) / m * acc
    return v.reduce_abs(M + (min(0, v.valuation) if v.unit else 0))


class TestWeights:
    def test_exact_integer_weight(self):
        assert interpolation_weight(2, 2, 5, 3) == 2
        assert interpolation_weight(2, 6, 5, 3) == 6

    def test_negative_precision_rejected(self):
        for s in (F(1, 2), 6):
            with pytest.raises(ValueError, match="M must be >= 0"):
                interpolation_weight(2, s, 5, -1)

    def test_crt_weight(self):
        k = interpolation_weight(2, F(1, 2), 5, 2)
        assert k % 4 == 2
        assert (2 * k - 1) % 25 == 0  # k = 1/2 mod 25

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 12), st.integers(0, 9),
           st.fractions(min_value=-20000, max_value=20000, max_denominator=9))
    def test_weight_budget_refuses_exactly_the_weights_past_it(self, ell, beta, M, s):
        assume(s.denominator % ell)
        s = int(s) if s.denominator == 1 else s
        if isinstance(s, int) and s >= 1 and (s - beta) % (ell - 1) == 0:
            k = s  # an exact weight is the table's to refuse
        else:
            lm = ell ** M
            sv = s.numerator * pow(s.denominator, -1, lm) % lm if isinstance(s, F) else s % lm
            k = sv + lm * ((beta - sv) * pow(lm, -1, ell - 1) % (ell - 1)) or (ell - 1) * lm
            if k > _WEIGHT_BUDGET:
                with pytest.raises(ValueError, match="^precision too large: the weight"):
                    interpolation_weight(beta, s, ell, M)
                return
        assert interpolation_weight(beta, s, ell, M) == k

    @pytest.mark.parametrize("s", [F(1, 2), F(5, 3), -1, 0, 2, 7 - 5 ** 7 * 10 ** 9])
    def test_huge_precision_is_refused_before_ell_to_the_M(self, s):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^precision too large"):
            interpolation_weight(1, s, 5, 10 ** 8)
        assert time.perf_counter() - start < 1

    def test_small_weight_at_a_large_M(self):
        # s = 1 - 5^6 is 1 mod 5^6: the weight is 1 though 5^6 > 4096
        assert interpolation_weight(1, 1 - 5 ** 6, 5, 6) == 1
        assert interpolation_weight(1, PadicNum.from_rational(1 - 5 ** 6, 5, 7), 5, 6) == 1

    def test_smallest_regularizer(self):
        assert smallest_regularizer(5) == 2
        assert smallest_regularizer(7) == 3
        for ell in (3, 5, 7):
            c = smallest_regularizer(ell)
            assert pow(c, ell - 1, ell * ell) != 1

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([p for p in range(3, 2000) if all(p % q for q in range(2, p))]))
    def test_smallest_regularizer_is_the_order_loop(self, ell):
        """The primitive-root test picks the c that the order of each
        candidate mod ell^2, found by repeated multiplication, picks."""
        m = ell * ell
        for c in range(2, m):
            if c % ell == 0:
                continue
            k, x = 1, c % m
            while x != 1:
                x = x * c % m
                k += 1
            if k == ell * (ell - 1):
                break
        assert smallest_regularizer(ell) == c

    def test_smallest_regularizer_skips_a_primitive_root_that_is_one_mod_ell_squared(self):
        """At ell = 40487, the least such prime, the least primitive root 5 has
        5^(ell-1) = 1 mod ell^2; the least generator mod ell^2 is 10, by the
        order test c^(ell(ell-1)/q) != 1 mod ell^2 for each prime q | ell(ell-1)."""
        ell, m = 40487, 40487 ** 2
        n = ell * (ell - 1)
        qs = [q for q in range(2, ell + 1) if n % q == 0 and all(q % r for r in range(2, q))]
        generates = [c for c in range(2, 11)
                     if c % ell and all(pow(c, n // q, m) != 1 for q in qs)]
        assert pow(5, ell - 1, m) == 1 and generates == [10]
        assert smallest_regularizer(ell) == 10

    @pytest.mark.parametrize("ell", [2, 4, 9, 15])
    def test_smallest_regularizer_rejects_non_primes(self, ell):
        with pytest.raises(ValueError, match="odd prime"):
            smallest_regularizer(ell)


class TestKubotaLeopoldt:
    def test_node_values(self):
        assert kl_node(2, 2, 5).congruent(F(1, 3))
        assert kl_node(6, 2, 5).congruent(F(781, 63))
        assert kl_node(2, 0, 5).congruent(F(-2, 5))
        z = kl_node(2, 1, 5)  # parity zero
        assert z.unit == 0 and z.abs_prec >= 6

    def test_node_rational(self):
        assert kl_node_rational(2, 5) == F(1, 3)
        assert kl_node_rational(6, 5) == F(781, 63)
        assert kl_node_rational(10, 5) == -(1 - F(5) ** 9) * bernoulli_number(10) / 10

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 11),
           st.integers(1, 60), st.integers(1, 12))
    def test_node_keeps_its_digits(self, ell, beta, k, nd):
        # no pad: dividing by k keeps the nd digits of the Bernoulli number
        beta %= ell - 1
        got = kl_node(k, beta, ell, nd)
        assert got.is_exact_zero == (beta % 2 == 1)
        if got.is_exact_zero:
            return
        assert got.ndigits == nd
        if (k - beta) % (ell - 1) == 0:
            assert got == PadicNum.from_rational(kl_node_rational(k, ell), ell, nd)
        else:
            padded = -gen_bernoulli(k, beta - k, ell, nd + _frac_val(k, ell) + 1) / k
            assert got.congruent(padded), (ell, beta, k, nd)

    def test_measure_route_values(self):
        v = kubota_leopoldt(2, 2, 5, c=2, level=6)
        assert v.residue(2) == 17
        assert v.congruent(F(1, 3))
        v2 = kubota_leopoldt(0, 2, 5, c=2, level=6)
        assert v2.congruent(F(-2, 5))
        assert v2.valuation == -1

    def test_measure_route_at_level_8(self):
        v = kubota_leopoldt(2, 2, 5, c=2, level=8)
        assert v.abs_prec >= 7
        assert v.congruent(kl_node(2, 2, 5, ndigits=10))

    def test_measure_matches_interp_at_integer_weights(self):
        for ell, beta, k in [(5, 2, 2), (5, 2, 6), (7, 0, 2), (3, 0, 4)]:
            got = kubota_leopoldt(beta, k, ell, level=5)
            want = kl_node(k, beta, ell)
            assert got.congruent(want), (ell, beta, k)

    def test_two_routes_at_padic_weights(self):
        rng = Random(6)
        for ell in (3, 5, 7):
            picked = 0
            while picked < 4:
                beta = rng.choice(range(0, ell - 1, 2))
                s = F(rng.randint(1, 30), rng.choice([1, 1, ell + 1, ell + 2]))
                if s.numerator % ell == 0:
                    continue  # stay away from the beta = 0 pole
                picked += 1
                a = kubota_leopoldt(beta, s if s.denominator > 1 else int(s), ell, level=4)
                b = kubota_leopoldt(
                    beta, s if s.denominator > 1 else int(s), ell,
                    method="interp", M=2,
                )
                assert a.congruent(b), (ell, beta, s, a, b)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_interp_is_the_teichmuller_weighted_node(self, ell):
        # at k = beta mod ell-1 the node -(1/k) B_{k, omega^(beta-k)} is the
        # rational kl_node_rational(k, ell) that the interp route reads off
        rng = Random(ell)
        for beta in range(ell - 1):
            for k in range(beta or ell - 1, 40, ell - 1):
                got = kubota_leopoldt(beta, k, ell, method="interp")
                assert got.congruent(kl_node(k, beta, ell)), (beta, k)
            for _ in range(3):
                s = F(rng.randint(-30, 30), rng.choice([d for d in (1, 2, 3, 4) if d % ell]))
                k = interpolation_weight(beta, s, ell, 2)
                got = kubota_leopoldt(beta, s, ell, method="interp", M=2)
                assert got.congruent(kl_node(k, beta, ell, 4)), (beta, s)

    def test_padic_exponent_input(self):
        from elladic.padic import PadicNum

        s_frac = F(7, 3)
        s_padic = PadicNum.from_rational(s_frac, 5, 8)
        a = kubota_leopoldt(2, s_frac, 5, c=2, level=4)
        b = kubota_leopoldt(2, s_padic, 5, c=2, level=4)
        assert a.congruent(b)

    def test_regularizer_independence(self):
        for beta in (0, 2):
            for s in (2, 6, F(1, 2), F(7, 3)):
                a = kubota_leopoldt(beta, s, 5, c=2, level=5)
                b = kubota_leopoldt(beta, s, 5, c=3, level=5)
                assert a.congruent(b), (beta, s)

    def test_degenerate_regularizer_rejected(self):
        with pytest.raises(ValueError, match="regularizer degenerate"):
            kubota_leopoldt(2, 2, 5, c=7, level=4)  # 7^4 = 1 mod 25

    def test_beta_range_validated(self):
        with pytest.raises(ValueError, match="beta"):
            kubota_leopoldt(4, 2, 5, level=3)

    def test_consistent_with_raw_unit_integral(self):
        # the regularized value times its regularizer is the raw integral
        from elladic.measures import Factor, bernoulli_measure, integrate, restrict
        from elladic.padic import PadicNum, one_unit_pow, teichmuller

        ell, c, level, beta, s = 5, 2, 5, 2, F(7, 3)
        units = restrict(bernoulli_measure(c, ell, level))
        raw = integrate(units, (Factor(inverse=True, teich=beta, bracket=s),), level)
        om = teichmuller(c, ell, level + 2)
        br = PadicNum.from_rational(c, ell, level + 2) * om.invert()
        denom = om ** beta * one_unit_pow(br, s) - 1
        kl = kubota_leopoldt(beta, s, ell, c=c, level=level)
        assert raw.congruent(kl * denom)


class TestMinusOne:
    def test_value(self):
        v = minus_one_l(2, 2, 5, c=2, level=6)
        assert v.congruent(F(-1, 6))

    def test_euler_factor_route_consistency(self):
        # (1 - 2^(k-1))/2^(k-1) * node value, independently assembled
        k = 2
        want = F(1 - 2 ** (k - 1), 2 ** (k - 1)) * kl_node_rational(k, 5)
        got = minus_one_l(2, 2, 5, c=2, level=6)
        assert got.congruent(want)

    def test_closed_values_more_weights(self):
        for k in (6, 10):
            want = F(1 - 2 ** (k - 1), 2 ** (k - 1)) * kl_node_rational(k, 5)
            got = minus_one_l(2, k, 5, c=2, level=6)
            assert got.congruent(want), k

    def test_odd_beta_refused(self):
        with pytest.raises(SigmaDependentError, match="sigma-dependent"):
            minus_one_l(1, 2, 5, level=3)


POLE = "^pole: L_ell\\(1-s, omega\\^beta\\) has a pole at beta = 0, s = 0$"


@pytest.mark.parametrize("value", [
    lambda s: kubota_leopoldt(0, s, 5, method="interp"),
    lambda s: kubota_leopoldt(0, s, 5, level=3),
    lambda s: minus_one_l(0, s, 5, method="interp"),
    lambda s: minus_one_l(0, s, 7, level=4),
    lambda s: hurwitz_l(0, s, 1, 3, 5),
    lambda s: zinv_l(0, s, [3], 5),
    lambda s: zinv_report(0, s, [2, 3], 5),
], ids=["kl interp", "kl measure", "minus-one interp", "minus-one measure", "hurwitz",
        "zinv", "zinv report"])
@pytest.mark.parametrize("s", [0, F(0), PadicNum.zero(5)], ids=["int", "Fraction", "PadicNum"])
def test_the_pole_at_beta_0_s_0_is_refused(value, s):
    """L_ell(1-s, omega^0) has its pole at s = 0: every family but dirichlet
    refuses it with one message, on both routes, whatever the type of s."""
    with pytest.raises(ValueError, match=POLE):
        value(s)


def test_dirichlet_has_no_pole_at_beta_0_s_0():
    """A primitive psi != 1 has no pole: dirichlet is served there."""
    assert isinstance(dirichlet_l(mod4_character(5), 0, 0, 5), PadicNum)


class TestHurwitz:
    def test_node_value(self):
        assert hurwitz_node(2, 1, 3, 5) == F(1, 9)

    def test_interpolated_value(self):
        v = hurwitz_l(2, 2, 1, 3, 5)
        assert v.congruent(F(1, 9))

    def test_coprimality_error(self):
        with pytest.raises(ValueError, match="coprime"):
            hurwitz_node(2, 2, 4, 5)

    def test_modulus_error(self):
        with pytest.raises(ValueError, match="divisible"):
            hurwitz_node(2, 1, 10, 5)

    def test_reflection_symmetry(self):
        # value at m-i is (-1)^k times the value at i
        for k, i, m in [(2, 1, 3), (3, 2, 7), (4, 3, 8), (5, 2, 9)]:
            a = hurwitz_node(k, i, m, 5)
            b = hurwitz_node(k, m - i, m, 5)
            assert b == (-1) ** k * a, (k, i, m)

    def test_kummer_stability(self):
        ell, M = 5, 2
        step = (ell - 1) * ell ** M
        for k in (2, 6, 10):
            a = hurwitz_node(k, 1, 3, ell)
            b = hurwitz_node(k + step, 1, 3, ell)
            va = _frac_val(a - b, ell) if a != b else math.inf
            assert va >= M


class TestDirichlet:
    def test_character_construction(self):
        psi = mod4_character()
        assert psi.residue(3) == 4
        assert psi.residue(2) == 0
        assert psi.residue(7) == psi.residue(3)

    def test_character_errors(self):
        with pytest.raises(ValueError, match="modulus must exceed 1"):
            DirichletCharacter(1, {}, 5)
        with pytest.raises(ValueError, match="divisible"):
            DirichletCharacter(10, {1: 1, 3: 1, 7: 1, 9: 1}, 5)
        with pytest.raises(ValueError, match="not primitive"):
            DirichletCharacter(8, {1: 1, 3: 1, 5: 1, 7: 1}, 5)
        # m^2 past the cell budget is refused before the units are listed
        with pytest.raises(ValueError, match=r"^modulus too large: m\^2 must be at most 1000000$"):
            DirichletCharacter(1001, {1: 1}, 5)
        # an order-4 table cannot land in the (3-1)-st roots of unity
        with pytest.raises(ValueError, match="outside Z_ell"):
            DirichletCharacter(5, {1: 1, 2: 2, 3: 2, 4: -1}, 3)

    @pytest.mark.parametrize("values,error", [
        ({1: 1, 2: 4, 0: 3, 7: 2}, "value table entry 0=3: 0 is not a unit in [1, 3)"),
        ({1: 1, 2: 4, 5: 1}, "value table entry 5=1: 5 is not a unit in [1, 3)"),
        ({1: 1, 2: 4, -1: 4}, "value table entry -1=4: -1 is not a unit in [1, 3)"),
    ], ids=["zero and seven", "five", "minus one"])
    def test_entry_off_the_units_is_refused(self, values, error):
        with pytest.raises(ValueError) as info:
            DirichletCharacter(3, values, 5)
        assert str(info.value) == error

    def test_classical_value(self):
        psi = mod4_character()
        assert classical_dirichlet_special(psi, 5) == F(5, 2)
        assert classical_dirichlet_special(psi, 1) == F(1, 2)

    @pytest.mark.parametrize("ell,m,g,r", NON_RATIONAL)
    def test_classical_value_refuses_values_off_plus_minus_one(self, ell, m, g, r):
        """Orders 4 and 6, at k of both parities: at the parity mismatch the
        character sum is the exact zero ``PadicNum``, refused all the same."""
        psi = cyclic_character(m, g, r, ell)
        mismatch = 1 if psi.residue(-1) == 1 else 2
        assert _character_bernoulli(mismatch, m, psi.residue, ell, 1) == PadicNum.zero(ell)
        for k in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="^exact route needs a character with values"):
                classical_dirichlet_special(psi, k)

    def test_classical_value_below_weight_one_refused(self):
        # before the values: a psi off +-1 gets the weight's refusal too
        for psi in (mod4_character(), cyclic_character(5, 2, 5, 13)):
            for k in (0, -3):
                with pytest.raises(ValueError, match="k must be >= 1"):
                    classical_dirichlet_special(psi, k)

    def test_classical_value_refuses_values_before_any_bernoulli_work(self):
        # psi mod 5 of order 4 at 13: B_(2001,psi) off residues takes ~0.7 s
        psi = cyclic_character(5, 2, 5, 13)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^exact route needs a character with values"):
            classical_dirichlet_special(psi, 2001)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("m,values,ell", [
        (4, {1: 1, 3: -1}, 5),
        (4, {1: 1, 3: -1}, 7),
        (3, {1: 1, 2: -1}, 7),
        (5, {1: 1, 2: -1, 3: -1, 4: 1}, 3),
        (5, {1: 1, 2: -1, 3: -1, 4: 1}, 11),
        (8, {1: 1, 3: -1, 5: -1, 7: 1}, 13),
    ], ids=["mod 4 at 5", "mod 4 at 7", "mod 3 at 7", "mod 5 at 3", "mod 5 at 11", "mod 8 at 13"])
    def test_node_carries_euler_factor(self, m, values, ell):
        psi = DirichletCharacter(m, values, ell)
        for k in (1, 2, 5, 9, 12):
            want = (1 - rational_value(psi, ell) * F(ell) ** (k - 1)) * \
                classical_dirichlet_special(psi, k)
            assert dirichlet_node(psi, k, ell) == want, k

    # the conductors 3, 4, 5, 7, 8 (two characters), 11 and 12, less those ell divides
    @pytest.mark.parametrize("ell,count", [(3, 6), (5, 7), (7, 7), (13, 8)])
    def test_rational_node_is_the_hurwitz_sum(self, ell, count):
        chars = rational_characters(ell)
        assert len(chars) == count
        for psi in chars:
            for k in range(1, 31):
                assert dirichlet_node(psi, k, ell) == dirichlet_hurwitz_sum(psi, k, ell), \
                    (psi.modulus, k)

    @pytest.mark.parametrize("ell", [5, 7, 13])
    def test_non_rational_node_is_the_hurwitz_sum(self, ell):
        chars = non_rational_characters(ell)
        assert chars
        for psi in chars:
            for k in range(1, 31):
                got = dirichlet_node(psi, k, ell)
                want = dirichlet_hurwitz_sum(psi, k, ell)
                # the exact zero exactly on a parity mismatch or where the
                # Euler factor vanishes; elsewhere exactly 8 digits
                assert got.is_exact_zero == node_vanishes(psi, k, ell)
                if not got.is_exact_zero:
                    assert got.ndigits == 8, (psi.modulus, k, got)
                assert got.congruent(want), (psi.modulus, k, got, want)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CHARACTERS), st.integers(1, 60), st.integers(1, 12))
    def test_one_character_sum(self, ell_psi, k, nd):
        ell, psi = ell_psi
        got = dirichlet_node(psi, k, ell, nd)
        if is_rational(psi):
            assert got == dirichlet_hurwitz_sum(psi, k, ell)
            assert (got == 0) == node_vanishes(psi, k, ell)
            return
        assert got.is_exact_zero == node_vanishes(psi, k, ell)
        if not got.is_exact_zero:
            assert got.ndigits == nd
            assert got.congruent(dirichlet_hurwitz_sum(psi, k, ell, nd)), (psi.modulus, k, nd)

    def test_node_arguments_checked(self):
        psi = mod4_character()
        with pytest.raises(ValueError, match="k must be >= 1"):
            dirichlet_node(psi, 0, 5)
        with pytest.raises(ValueError, match="odd prime"):
            dirichlet_node(psi, 2, 9)
        with pytest.raises(ValueError, match="m divisible by ell"):
            dirichlet_node(DirichletCharacter(3, {1: 1, 2: -1}, 5), 2, 3)
        # realized at 5, read at 3: psi(3) = 1, yet no exact zero at k = 1
        psi = cyclic_character(13, 2, 2, 5)
        for k in (1, 2):
            with pytest.raises(ValueError, match="^character realized at a different prime$"):
                dirichlet_node(psi, k, 3)

    def test_interpolated_value(self):
        psi = mod4_character()
        v = dirichlet_l(psi, 1, 5, 5)
        assert v.congruent(-1560)

    def test_interpolated_value_refuses_another_prime(self):
        with pytest.raises(ValueError, match="^character realized at a different prime$"):
            dirichlet_l(mod4_character(5), 1, 5, 7)

    def test_zero_at_weight_one(self):
        psi = mod4_character()
        v = dirichlet_l(psi, 1, 1, 5)
        assert v.congruent(0)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_no_pole_at_beta_zero(self, ell):
        """A primitive psi != 1 has no pole at beta = 0, so at a weight
        divisible by ell (s = 0, or v(s) >= 1) the value claims M + min(0, v)
        digits, none lost to v(k), and --prec M + 1 agrees on them; even and
        odd psi (whose node vanishes at the even weight) alike."""
        chars = [psi for psi in rational_characters(ell, 8) + non_rational_characters(ell)
                 if psi.modulus <= 9]
        assert {psi.residue(-1) == 1 for psi in chars} == {True, False}
        for psi in chars:
            for s in (0, ell, -2 * ell, F(ell, 4)):
                for M in (1, 2):
                    got = dirichlet_l(psi, 0, s, ell, M)
                    assert got.abs_prec == M + (min(0, got.valuation) if got.unit else 0)
                    finer = dirichlet_l(psi, 0, s, ell, M + 1)
                    assert (finer - got).valuation_at_least(got.abs_prec)

    @pytest.mark.parametrize("ell,m,g,r", NON_RATIONAL)
    def test_front_factor_read_at_the_weight(self, ell, m, g, r):
        # -m^(k-1) in place of -omega(m)^beta [m]^s / m changes nothing the
        # value claims: the two differ by [m]^(s-k) = 1 mod ell^(M+1)
        psi = cyclic_character(m, g, r, ell)
        assert not is_rational(psi)
        M = 1 if ell == 13 else 2
        for beta in (0, 1, 2):
            for s in (F(1, 3), F(-5, 2), F(7, 4), F(-9, 1)):
                got = dirichlet_l(psi, beta, s, ell, M)
                assert got == dirichlet_twisted_at_s(psi, beta, s, ell, M), (beta, s)


class TestZInverted:
    def test_two_prime_value(self):
        assert zinv_node(2, [2, 3], 5) == F(-1, 9)
        v = zinv_l(2, 2, [2, 3], 5)
        assert v.congruent(F(-1, 9))

    def test_single_prime_value(self):
        assert zinv_node(2, [2], 5) == F(1, 6)

    def test_closed_form(self):
        for k, primes in [(2, [2, 3]), (4, [2, 3]), (2, [2]), (6, [2, 5])]:
            ell = 7
            m = 1
            want = F(1, k) * (1 - F(ell) ** (k - 1)) * bernoulli_number(k)
            for p in primes:
                want *= F(1, p ** (k - 1)) - 1
            assert zinv_node(k, primes, ell) == want, (k, primes)

    @pytest.mark.parametrize("ell", [5, 7, 11])
    def test_node_is_the_hurwitz_sum(self, ell):
        """The node against the Hurwitz nodes summed one unit at a time, over
        the range where the Euler-factor identity below is checked."""
        for primes in prime_sets(ell):
            for k in range(1, 61):
                assert zinv_node(k, primes, ell) == zinv_hurwitz_sum(k, primes, ell), (primes, k)

    def test_weight_below_one_refused(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            zinv_node(0, [2], 5)

    def test_empty_and_bad_primes(self):
        with pytest.raises(ValueError, match="modulus must exceed 1"):
            zinv_node(2, [], 5)
        with pytest.raises(ValueError, match="distinct"):
            zinv_node(2, [2, 2], 5)
        with pytest.raises(ValueError, match="differ from ell"):
            zinv_node(2, [5], 5)
        for primes in ([1], [4], [-3], [2, 9], [0]):
            with pytest.raises(ValueError, match="must be a prime"):
                zinv_node(2, primes, 5)

    def test_modulus_past_the_budget_is_refused_first(self):
        """m = prod(primes) past 10^7 is refused before any entry is tested
        for primality, so a huge entry costs no trial division; the largest
        prime modulus in budget, and a weight the old Horner-step budget
        refused at m = 10403, are served."""
        too_large = "^modulus too large: m must be at most 10000000$"
        for primes in ([1009, 1013, 1019], [2 ** 61 - 1], [2 ** 61, 4], [10000019]):
            with pytest.raises(ValueError, match=too_large):
                zinv_node(2, primes, 5)
        for k, primes in [(2, [9999991]), (2000, [101, 103])]:
            factor = math.prod(F(1, p ** (k - 1)) - 1 for p in primes)
            assert zinv_node(k, primes, 5) == -factor * kl_node_rational(k, 5)
        assert zinv_node(2, [3, 1009], 5) == zinv_hurwitz_sum(2, [3, 1009], 5)

    @pytest.mark.parametrize("ell", [5, 7, 11])
    def test_node_is_minus_the_euler_factor_times_the_zeta_node(self, ell):
        """zinv_node(k) = -prod_p (p^(1-k) - 1) kl_node_rational(k), exactly:
        the product route's sign -1 is derived, not observed."""
        for primes in prime_sets(ell):
            for k in range(1, 61):
                factor = math.prod(F(1, p ** (k - 1)) - 1 for p in primes)
                assert zinv_node(k, primes, ell) == -factor * kl_node_rational(k, ell), (primes, k)

    def test_product_route_report(self):
        rep = zinv_report(2, 2, [2, 3], 5)
        assert rep["magnitude_matches"]
        assert rep["sign"] == -1
        assert rep["definition_route"].congruent(F(-1, 9))
        assert rep["product_route"].congruent(F(1, 9))
        rep1 = zinv_report(2, 2, [2], 5)
        assert rep1["sign"] == -1  # the discrepancy is a global sign


class TestKummerStability:
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_all_families(self, M):
        # weights coprime to ell: the beta = 0 branch has the classical
        # simple pole, and weights divisible by ell sit ell-adically close
        # to it, costing extra digits beyond the M - v contract
        ell = 3 if M == 3 else 5
        step = (ell - 1) * ell ** M
        rng = Random(40 + M)
        psi = mod4_character(ell)
        for _ in range(4):
            beta = rng.choice(range(0, ell - 1, 2)) if ell > 3 else 0
            k = beta + (ell - 1) * rng.randint(1, 3)
            while k == 0 or k % ell == 0 or (k + 1) % ell == 0:
                k += ell - 1
            pairs = [
                (kl_node(k, beta, ell, M + 3), kl_node(k + step, beta, ell, M + 3)),
                (hurwitz_node(k, 1, 4, ell), hurwitz_node(k + step, 1, 4, ell)),
                (dirichlet_node(psi, k + 1, ell), dirichlet_node(psi, k + 1 + step, ell)),
                (zinv_node(k, [2], ell), zinv_node(k + step, [2], ell)),
            ]
            for a, b in pairs:
                if isinstance(a, Fraction):
                    va = 0 if a == 0 else _frac_val(a, ell)
                    diff = a - b
                    dv = math.inf if diff == 0 else _frac_val(diff, ell)
                else:
                    va = 0 if a.unit == 0 else a.valuation
                    d = a - b
                    dv = math.inf if d.is_exact_zero else (
                        d.valuation if d.valuation is not None else math.inf
                    )
                drop = max(0, -(va if va is not None else 0))
                assert dv >= M - drop, (M, ell, beta, k, a, b, dv)


class TestExactZero:
    """At an exact weight the value is the node, so a vanishing node gives
    the exact zero rather than a zero known to some digits."""

    @pytest.mark.parametrize("value", [
        lambda: kubota_leopoldt(1, 5, 3, method="interp", M=5),
        lambda: kubota_leopoldt(3, 7, 5, method="interp"),
        lambda: hurwitz_l(3, 3, 1, 2, 5),
        lambda: hurwitz_l(1, 7, 1, 2, 7),
        lambda: zinv_l(1, 5, [2, 3], 5),
        lambda: dirichlet_l(mod4_character(5), 2, 2, 5),
        lambda: dirichlet_l(DirichletCharacter(5, {1: 1, 2: -1, 3: -1, 4: 1}, 7), 1, 7, 7),
        lambda: dirichlet_l(
            DirichletCharacter(7, {1: 1, 2: 3, 3: 9, 4: 9, 5: 3, 6: 1}, 13), 1, 1, 13),
    ], ids=["kl odd beta ell 3", "kl odd beta ell 5", "hurwitz m=2 ell 5", "hurwitz m=2 ell 7",
            "zinv", "dirichlet odd psi even k", "dirichlet even psi odd k",
            "dirichlet euler factor zero at k=1"])
    def test_vanishing_node_at_exact_weight(self, value):
        assert value().is_exact_zero

    def test_vanishing_node_at_other_weights_is_zero_to_m_digits(self):
        v = kubota_leopoldt(1, F(1, 2), 5, method="interp", M=3)
        assert v.is_zero_to_precision and v.abs_prec == 3


def exact_hurwitz(k, i, m, ell):
    """(B_k(i/m) - ell^(k-1) B_k(<i/ell>/m)) / k from the exact group sums,
    written out apart from the node the routes read."""
    b, b_shifted = _bernoulli_sums(k, m, [[i], [i * pow(ell, -1, m) % m]])
    return (b - Fraction(ell) ** (k - 1) * b_shifted) / k


def exact_zinv(k, primes, ell):
    """(1 - ell^(k-1))/k sum over the units a mod m of B_k(a/m), from one
    exact group sum: an oracle apart from the Euler-factor product."""
    m = math.prod(primes)
    [total] = _bernoulli_sums(k, m, [[a for a in range(1, m) if math.gcd(a, m) == 1]])
    return (1 - Fraction(ell) ** (k - 1)) / k * total


class TestResidueNodes:
    """The Hurwitz and Dirichlet routes read each node off Bernoulli residues
    mod ell^W; the result is the exact node encoded to N digits, digit for
    digit.  The exact node is written out here (or, for a character off +-1,
    summed from Hurwitz nodes with Teichmuller weights), not read from the
    node the routes share with the public exact nodes; the exact Z[1/m] node
    is checked against its unit sum at the same weights.  Drawn: ell in 3-13,
    weights k up to 600, N up to 40; named: k divisible by ell and by
    ell - 1, odd k at m = 2 (the exact zero by symmetry) and the node
    (k, i, m, ell) = (1, 1, 6, 13), exactly 0 without that symmetry
    (i/ell = i mod m), where the residues fall back to the exact node."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(2, 30), st.integers(0, 100),
           st.integers(1, 600), st.integers(1, 40))
    @example(13, 6, 0, 1, 8)       # the exact zero past the symmetry: the fallback
    @example(5, 2, 0, 7, 8)        # odd k at m = 2
    @example(3, 2, 0, 243, 40)     # odd k at m = 2, k = 0 mod ell^5
    @example(5, 7, 2, 125, 20)     # k = 0 mod ell^3
    @example(13, 10, 1, 144, 8)    # k = 0 mod ell - 1
    @example(5, 12, 3, 500, 40)    # k = 0 mod ell and mod ell - 1
    @example(3, 4, 1, 600, 1)
    def test_hurwitz(self, ell, m, index, k, N):
        m += m % ell == 0
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        i = units[index % len(units)]
        want = exact_hurwitz(k, i, m, ell)
        assert hurwitz_node(k, i, m, ell) == want
        assert _hurwitz_node(k, i, m, ell, N) == PadicNum.from_rational(want, ell, N)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13]),
           st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=2, unique=True),
           st.integers(1, 600))
    @example(5, [2], 7)          # odd k: the exact zero
    @example(7, [2, 3], 1)
    @example(3, [2, 5], 162)     # k = 0 mod ell^4 and mod ell - 1
    @example(13, [7], 600)       # k = 0 mod ell - 1
    def test_zinv(self, ell, primes, k):
        assume(ell not in primes)
        assert zinv_node(k, primes, ell) == exact_zinv(k, primes, ell)

    def test_weight_past_the_budget_is_refused_where_the_node_vanishes(self):
        """An exact odd weight past the table's budget is refused, as the exact
        node refuses it, even where a -> f - a shows the node to be 0."""
        for value in (lambda: hurwitz_l(1, 5001, 1, 2, 5), lambda: zinv_l(1, 5001, [2, 3], 5)):
            with pytest.raises(ValueError, match=f"^weight too large: k must be at most {_WEIGHT_BUDGET}$"):
                value()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CHARACTERS), st.integers(1, 600), st.integers(1, 40))
    @example((5, mod4_character(5)), 125, 20)                # k = 0 mod ell^3
    @example((5, cyclic_character(13, 2, 2, 5)), 125, 30)    # non-rational, k = 0 mod ell^3
    @example((13, cyclic_character(7, 3, 4, 13)), 12, 8)     # non-rational, k = 0 mod ell - 1
    @example((7, cyclic_character(9, 2, 3, 7)), 42, 40)      # non-rational, k = 0 mod ell(ell - 1)
    def test_dirichlet(self, ell_psi, k, N):
        ell, psi = ell_psi
        got = _dirichlet_node(psi, k, ell, N, False)
        if is_rational(psi):
            assert got == PadicNum.from_rational(dirichlet_node(psi, k, ell), ell, N)
            return
        assert got.is_exact_zero == node_vanishes(psi, k, ell)
        if not got.is_exact_zero:
            want = dirichlet_hurwitz_sum(psi, k, ell, N)
            assert want.ndigits >= N
            assert got == want.reduce_digits(N)
