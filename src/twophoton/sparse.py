"""Finite sums {key: coefficient} over one space, and exact linear solving.

Every object the verifier certifies is such a sum: PBW words, tensor legs,
alpha^j d^l operators, space-time operators, lattice functions, wedges. The
linear structure is the same for all of them and lives here; a subclass
adds its space, constructor validation, product and rendering. Like terms
of a sum or a linear extension are combined in one place, ``collect``,
which takes the (key, coefficient) pairs and collects them once. The
products do not use it: the PBW kernel and the operator compositions sum
int numerators over one denominator per product, with the int Weyl
coefficients of ``weyl_terms``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial

__all__ = ["SparseTerms", "collect", "linear_combination", "weyl_terms",
           "render_sum", "monomial", "solve_linear"]


def collect(pairs):
    """Sum (key, coefficient) pairs whose keys may repeat; zero sums are dropped."""
    acc = {}
    for k, c in pairs:
        cur = acc.get(k)
        acc[k] = c if cur is None else cur + c
    return {k: c for k, c in acc.items() if c}


def linear_combination(parts):
    """Terms of sum_i c_i x_i for (x_i, c_i) pairs of elements of one space and scalars.

    A product v * c that vanishes (by truncation, say) is dropped before it
    reaches an addition.
    """
    def pairs():
        for x, c in parts:
            for k, v in x.terms.items():
                p = v * c
                if p:
                    yield k, p

    return collect(pairs())


def render_sum(terms, body, sort_key=None):
    """'(c)*body(key) + ...' over the sorted keys, '(c)' where the body is empty, '0' if none."""
    if not terms:
        return "0"
    parts = ((f"({terms[key]})", body(key)) for key in sorted(terms, key=sort_key))
    return " + ".join(f"{c}*{b}" if b else c for c, b in parts)


def monomial(*factors):
    """'x^2*dt' from (name, power) pairs; zero powers are left out."""
    return "*".join(name if p == 1 else f"{name}^{p}" for name, p in factors if p)


@lru_cache(maxsize=None)
def weyl_terms(l, j):
    """d^l x^j = sum_t C(l,t) C(j,t) t! x^(j-t) d^(l-t), as (t, coefficient) pairs.

    The coefficients are ints, factors of the int numerators of both
    operator compositions. The pairs of each (l, j) are made once: a
    composition asks for them once per pair of terms, which at high
    truncation orders are thousands per product.
    """
    return tuple([(t, comb(l, t) * comb(j, t) * factorial(t)) for t in range(min(l, j) + 1)])


class SparseTerms:
    """Immutable sum of keys with nonzero coefficients in one space.

    ``space`` is the tuple of a subclass's leading constructor arguments, so
    that ``cls(*space, terms)`` rebuilds an element; two elements combine
    only when their spaces are equal. Coefficients are exact, over one
    ring, Q: Fractions or TruncatedSeries of them, whose truth value is
    "nonzero". Complex numbers appear only as the eigenproblem's parsed
    inputs and its solved coefficients, never as a coefficient here.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        self.terms = {k: c for k, c in terms.items() if c}

    def _new(self, terms):
        return type(self)(*self.space, terms)

    @classmethod
    def _holding(cls, space, terms):
        """The element of ``space`` that holds ``terms`` as given, for a
        product or a memo of products whose keys are valid and whose
        coefficients are nonzero by construction: the constructor's checks
        and zero filter would only repeat work. Every public construction
        keeps them."""
        out = cls(*space, {})
        out.terms = terms
        return out

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
        return self._new(collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """This sum times the scalar c; an element of any space is no scalar."""
        if isinstance(c, SparseTerms):
            raise TypeError(f"cannot multiply {type(self).__name__} by {type(c).__name__}")
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
