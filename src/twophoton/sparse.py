"""Finite sums {key: coefficient} over one space, and exact linear solving.

Every object the verifier certifies is such a sum: PBW words, tensor legs,
alpha^j d^l operators, space-time operators, lattice functions, wedges. The
linear structure is the same for all of them and lives here; a subclass
adds its space, constructor validation, product and rendering.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["SparseTerms", "solve_linear"]


class SparseTerms:
    """Immutable sum of keys with nonzero coefficients in one space.

    ``space`` is the tuple of a subclass's leading constructor arguments, so
    that ``cls(*space, terms)`` rebuilds an element; two elements combine
    only when their spaces are equal. Coefficients are any exact ring
    elements whose truth value is "nonzero" (Fraction, ComplexRational,
    TruncatedSeries).
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        self.terms = {k: c for k, c in terms.items() if c}

    def _new(self, terms):
        return type(self)(*self.space, terms)

    def _require_same(self, other):
        if self.space != other.space:
            raise ValueError(
                f"{type(self).__name__} space mismatch: {self.space} vs {other.space}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._require_same(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            cur = acc.get(k)
            acc[k] = c if cur is None else cur + c
        return self._new(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        return self._new({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))


def solve_linear(columns, target):
    """Exact solve of sum_i x_i * columns[i] = target over sparse vectors.

    Columns and target are {key: coefficient} maps with sortable keys.
    Returns (x, consistent). x is the Gauss-Jordan pivot solution either
    way, free unknowns set to 0, so an inconsistent system still yields a
    canonical remainder target - sum x_i columns[i].
    """
    keys = sorted(set().union(target, *columns))
    rows = [[col.get(k, Fraction(0)) for col in columns] + [target.get(k, Fraction(0))]
            for k in keys]
    ncols = len(columns)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    sol = [Fraction(0)] * ncols
    for r, c in pivots:
        sol[c] = rows[r][ncols]
    consistent = all(rows[i][ncols] == 0 for i in range(len(pivots), len(rows)))
    return sol, consistent
