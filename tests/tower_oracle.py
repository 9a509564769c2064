"""The tower layer cell by cell, with Fraction values.

This is the exact reference that the tower kernels of ``elladic.measures``
are checked against: the level-sum loop that decodes every cell and calls a
whole-cell weight, the coarsening that decodes and re-encodes every cell,
the pushforward and restriction that decode and re-encode every top cell,
and the tower reader that turns every value string into a ``Fraction``.
The package contracts and folds one axis at a time, maps cells through
per-axis coordinate lists and reads each level of values in bulk into
integer numerators instead.
"""

from fractions import Fraction

from elladic.measures import MeasureTower


def decode(idx, m, rank):
    out = []
    for _ in range(rank):
        idx, c = divmod(idx, m)
        out.append(c)
    return tuple(out)


def encode(coords, m):
    idx = 0
    for c in reversed(coords):
        idx = idx * m + c
    return idx


def coarsen(table, ell, rank, n):
    """The level n-1 table under a level-n table: each cell sums its children."""
    small = ell ** (n - 1)
    out = [0] * (small ** rank)
    m = small * ell
    for idx, v in enumerate(table):
        if v:
            out[encode(tuple(c % small for c in decode(idx, m, rank)), small)] += v
    return out


def moment_sums(mu, indices, level, weight):
    """{n: sum over level cells x of weight(x, n) * mu(x)} for each index n
    whose sum is nonzero; ``weight`` sees the whole coordinate tuple x."""
    if not 0 <= level <= mu.depth:
        raise ValueError("level out of range")
    m = mu.ell ** level
    cells = [(decode(idx, m, mu.rank), v) for idx, v in enumerate(mu.tables[level]) if v]
    out = {}
    for n in indices:
        acc = sum(weight(x, n) * v for x, v in cells)
        if acc:
            out[n] = Fraction(acc, mu.den)
    return out


def frac_from_str(text, name):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational number, got {text!r}") from None


def tower_from_json(doc):
    """Every value through ``Fraction``, then ``MeasureTower(ell, rank, levels)``."""
    if not isinstance(doc, dict) or any(type(doc.get(k)) is not int for k in ("ell", "rank")):
        raise ValueError('a tower document is a JSON object with integer "ell" and "rank"')
    levels = doc.get("levels")
    if not isinstance(levels, list) or not all(
            isinstance(t, list) and all(isinstance(v, str) for v in t) for t in levels):
        raise ValueError('"levels" must be a list of lists of value strings')
    levels = [[frac_from_str(v, "a tower value") for v in table] for table in levels]
    return MeasureTower(doc["ell"], doc["rank"], levels)


def pushforward_linear(matrix, mu):
    """Image measure under an integer matrix, one top cell at a time."""
    r = mu.rank
    matrix = [list(row) for row in matrix]
    if len(matrix) != r or any(len(row) != r for row in matrix):
        raise ValueError("matrix shape must match rank")
    m = mu.ell ** mu.depth
    top = [0] * (m ** r)
    for idx, v in enumerate(mu.tables[mu.depth]):
        if not v:
            continue
        x = decode(idx, m, r)
        img = tuple(sum(matrix[i][j] * x[j] for j in range(r)) % m for i in range(r))
        top[encode(img, m)] += v
    return MeasureTower.from_top(mu.ell, r, mu.depth, top, mu.den)


def restrict(mu):
    """Restriction to the units, one top cell at a time."""
    ell, r = mu.ell, mu.rank
    if mu.depth < 1:
        raise ValueError("region not expressible at available depth")
    m = ell ** mu.depth
    top = [
        v if v and all(c % ell for c in decode(idx, m, r)) else 0
        for idx, v in enumerate(mu.tables[mu.depth])
    ]
    return MeasureTower.from_top(ell, r, mu.depth, top, mu.den, True)

