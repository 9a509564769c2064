"""Generating-series transforms of coset-tower measures.

Two commutative series are attached to a measure on (Z_ell)^r:

* the binomial-moment series ("A-form"), whose coefficient at A^n is the
  integral of prod_j C(x_j, n_j); a point mass at alpha maps to (1+A)^alpha;
* the exponential-moment series ("X-form"), whose coefficient at X^n is the
  integral of prod_j x_j^(n_j) / n_j!.

The X-form is the A-form composed with A_j = exp(X_j) - 1.  Coefficients are
computed as exact level sums through the one level-sum kernel of
``measures`` (``_moment_sums``), whose weight is given per coordinate:
C(x_j, n_j) (``comb``) or x_j^(n_j) (``pow``), multiplied over j by
contracting one axis at a time; such a sum approximates the true
coefficient to ``level - denom_exponent - v(n!)`` digits.

Because the cells at level n biject with the basis (1+A)^i, 0 <= i < ell^n, of
the length-ell^n group ring, an A-form polynomial can be folded back into a
tower: A^k expands into that basis after reducing exponents mod ell^n, which
is what ``measure_from_p_series`` does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod

from .measures import _CELL_BUDGET, MeasureTower, _encode, _moment_sums
from .ncseries import _Poly

__all__ = [
    "IwasawaSeries",
    "p_transform",
    "f_transform",
    "p_series_to_f",
    "measure_from_p_series",
]


class IwasawaSeries:
    """Truncated commutative series with Fraction coefficients.

    kind "binomial": variables A_1..A_r, per-variable degree bound ``degree``.
    kind "exp": variables X_1..X_r, total degree bound ``degree``.
    """

    __slots__ = ("rank", "kind", "degree", "coeffs")

    def __init__(self, rank, kind, degree, coeffs):
        if kind not in ("binomial", "exp"):
            raise ValueError("kind must be 'binomial' or 'exp'")
        self.rank = rank
        self.kind = kind
        self.degree = degree
        self.coeffs = {
            tuple(k): Fraction(v) for k, v in coeffs.items() if Fraction(v) != 0
        }

    def __getitem__(self, index):
        return self.coeffs.get(tuple(index), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, IwasawaSeries)
            and self.rank == other.rank
            and self.kind == other.kind
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return (
            f"IwasawaSeries({self.kind}, rank={self.rank}, degree={self.degree}, "
            f"{len(self.coeffs)} terms)"
        )


def _multi_indices(rank, degree, total):
    """Exponent tuples in [0, degree]^rank in lexicographic order; with
    ``total`` only those of total degree <= degree, built directly.  More
    than ``_CELL_BUDGET`` tuples are refused before any is built."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if total:
        if comb(degree + rank, rank) > _CELL_BUDGET:
            raise ValueError(f"degree too large: C(degree+rank, rank) must be at most "
                             f"{_CELL_BUDGET} index tuples")
        out = [()]
        for _ in range(rank):
            out = [n + (k,) for n in out for k in range(degree - sum(n) + 1)]
        return out
    if (degree + 1) ** rank > _CELL_BUDGET:
        raise ValueError(f"degree too large: (degree+1)^rank must be at most "
                         f"{_CELL_BUDGET} index tuples")
    return product(range(degree + 1), repeat=rank)


def p_transform(
    mu: MeasureTower, degree: int, level: int | None = None, total: bool = True
) -> IwasawaSeries:
    """Binomial-moment series; coefficient of A^n is sum C(cell, n) * value.

    ``total`` selects total-degree truncation; per-variable truncation
    (total=False) is what the tower reconstruction needs.
    """
    if level is None:
        level = mu.depth
    indices = _multi_indices(mu.rank, degree, total)
    coeffs = dict(_moment_sums(mu, indices, level, comb))
    return IwasawaSeries(mu.rank, "binomial", degree, coeffs)


def f_transform(
    mu: MeasureTower, degree: int, level: int | None = None
) -> IwasawaSeries:
    """Exponential-moment series; coefficient of X^n is sum cell^n/n! * value."""
    if level is None:
        level = mu.depth
    indices = _multi_indices(mu.rank, degree, True)
    sums = _moment_sums(mu, indices, level, pow)
    coeffs = {n: acc / prod(map(factorial, n)) for n, acc in sums}
    return IwasawaSeries(mu.rank, "exp", degree, coeffs)


def p_series_to_f(series: IwasawaSeries, degree: int) -> IwasawaSeries:
    """Substitute A_j = exp(X_j) - 1 into a binomial-kind series."""
    if series.kind != "binomial":
        raise ValueError("input must be binomial-kind")
    r = series.rank
    em1 = _Poly(degree, [0] + [Fraction(1, factorial(k)) for k in range(1, degree + 1)])
    # per-variable powers of (e^X - 1), truncated at the total degree
    powers = [_Poly(degree, [1])]
    for _ in range(degree):
        powers.append(powers[-1] * em1)
    pow_table = [p.coeffs for p in powers]
    terms = [(n, c) for n, c in series.coeffs.items() if sum(n) <= degree]
    # X^e collects c * prod_j [X^(e_j)] (e^X - 1)^(n_j) from every term c A^n
    out = {e: sum(c * prod(pow_table[nj][ej] for nj, ej in zip(n, e)) for n, c in terms)
           for e in _multi_indices(r, degree, True)}
    return IwasawaSeries(r, "exp", degree, out)


def measure_from_p_series(series: IwasawaSeries, ell: int, depth: int) -> MeasureTower:
    """Fold a binomial-kind polynomial into the depth-n tower it represents.

    A^k expands in the basis (1+A)^i of the level-n group ring after reducing
    exponents mod ell^n; the basis coefficients are the level-n cell values.
    Degrees of the input may exceed ell^depth; they wrap around.
    """
    if series.kind != "binomial":
        raise ValueError("input must be binomial-kind")
    r = series.rank
    if r > 2:
        raise ValueError("tower reconstruction supports rank 1 and 2 only")
    m = ell ** depth
    den = lcm(*(c.denominator for c in series.coeffs.values()))
    kmax = max((max(k) for k in series.coeffs), default=0)
    # T[k][i] = sum over j = i mod m, j <= k of (-1)^(k-j) C(k, j)
    tables = []
    for k in range(kmax + 1):
        row = [0] * m
        for j in range(k + 1):
            row[j % m] += (-1) ** (k - j) * comb(k, j)
        tables.append(row)
    top = [0] * (m ** r)
    for index, c in series.coeffs.items():
        c = c.numerator * (den // c.denominator)
        # the cell (i_1, ..., i_r) gets c times the product of row entries
        rows = [[(i, t) for i, t in enumerate(tables[k]) if t] for k in index]
        for cell in product(*rows):
            top[_encode([i for i, _ in cell], m)] += c * prod(t for _, t in cell)
    return MeasureTower.from_top(ell, r, depth, top, den)
