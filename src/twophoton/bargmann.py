"""Differential-operator calculus on the Fock-Bargmann space.

Operators are sums alpha^j d^l with truncated-series-in-z coefficients, kept
in canonical form (all derivatives to the right). The deformed one-boson
realization is assembled from series exponentials and square roots of the
multiplication operator alpha^2; the apparent 1/alpha factors of the closed
forms must cancel order by order, and the construction asserts that instead
of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import two_photon_algebra
from .report import CheckResult, residual_entry
from .scalars import ComplexRational
from .series import TruncatedSeries, exp_nilpotent, sqrt_unit
from .sparse import (SparseTerms, collect, linear_combination, monomial, render_sum,
                     weyl_terms)

__all__ = [
    "DiffOperator", "EigenProblem", "SingularRecurrenceError",
    "classical_rep", "first_order_rep", "deformed_rep",
    "verify_rep", "rep_checks", "eigen_operator", "series_solve",
    "GENERATOR_ORDER",
]

# generator order used for eigenproblem coefficients beta1..beta5
GENERATOR_ORDER = ("N", "B-", "B+", "A-", "A+")


def _falling(n, l):
    out = 1
    for i in range(l):
        out *= n - i
    return out


class DiffOperator(SparseTerms):
    """Canonical operator sum_{j,l} c_{jl}(z) alpha^j d^l."""

    __slots__ = ("order",)

    def __init__(self, order, terms):
        self.order = order
        for (j, l), s in terms.items():
            if j < 0 or l < 0:
                raise ValueError(f"negative power in term ({j}, {l})")
            if s.order != order:
                raise ValueError(f"order mismatch: {s.order} vs {order}")
        super().__init__((order,), terms)

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    @classmethod
    def identity(cls, order):
        return cls(order, {(0, 0): TruncatedSeries.one(order)})

    @classmethod
    def from_scalar_terms(cls, order, terms):
        return cls(order, {
            key: (c if isinstance(c, TruncatedSeries)
                  else TruncatedSeries.one(order) * c)
            for key, c in terms.items()})

    def __mul__(self, other):
        """Composition; d^l alpha^m reorders through [d, alpha] = 1."""
        if not isinstance(other, DiffOperator):
            return self.scale(other)
        self._require_same(other)

        def pairs():
            for (j1, l1), s1 in self.terms.items():
                for (j2, l2), s2 in other.terms.items():
                    s = s1 * s2
                    if s:
                        for t, c in weyl_terms(l1, j2):
                            yield (j1 + j2 - t, l1 + l2 - t), s * c

        return DiffOperator(self.order, collect(pairs()))

    def truncate(self, order):
        return DiffOperator(order, {k: s.truncate(order) for k, s in self.terms.items()})

    def substitute_z(self, z):
        """Collapse the series coefficients at an exact rational z value."""
        z = Fraction(z)
        out = {}
        for key, s in self.terms.items():
            val = sum((c * z ** i for i, c in enumerate(s.coeffs)), Fraction(0))
            if val != 0:
                out[key] = TruncatedSeries((val,), 0)
        return DiffOperator(0, out)

    def apply_to_polynomial(self, coeffs):
        """Apply to sum_n c_n alpha^n; returns the image degree -> coefficient map."""
        def pairs():
            for (j, l), s in self.terms.items():
                for n, c in coeffs.items():
                    f = _falling(n, l)
                    if f != 0 and c != 0:
                        yield n + j - l, s * (c * f)

        return collect(pairs())

    def __str__(self):
        return render_sum(self.terms, lambda key: monomial(("a", key[0]), ("d", key[1])),
                          lambda key: (key[1], key[0]))

    def __repr__(self):
        return f"<DiffOperator {self}>"


class _CPoly(SparseTerms):
    """Commutative {alpha_power: series} scratch ring for the construction.

    The closed forms pass through Laurent terms in alpha, so powers may be
    negative here; _finish rejects any that survive.
    """

    __slots__ = ("order",)

    def __init__(self, order, terms):
        self.order = order
        super().__init__((order,), terms)

    def __mul__(self, other):
        if not isinstance(other, _CPoly):
            return self.scale(other)
        self._require_same(other)

        def pairs():
            for j1, s1 in self.terms.items():
                for j2, s2 in other.terms.items():
                    s = s1 * s2
                    if s:
                        yield j1 + j2, s

        return _CPoly(self.order, collect(pairs()))

    def low_order(self):
        return min((s.low_order() for s in self.terms.values()), default=None)

    def divided_by_z(self):
        return _CPoly(self.order - 1, {j: s.divided_by_z() for j, s in self.terms.items()})

    def shift(self, m):
        """Multiply by alpha^m."""
        return _CPoly(self.order, {j + m: s for j, s in self.terms.items()})

    def truncate(self, order):
        return _CPoly(order, {j: s.truncate(order) for j, s in self.terms.items()})


def _finish(mult_parts, order, name):
    """Assemble {d_power: cpoly} into a DiffOperator, rejecting Laurent leftovers."""
    terms = {}
    for l, p in mult_parts.items():
        for j, s in p.truncate(order).terms.items():
            if j < 0:
                raise RuntimeError(
                    f"negative alpha power alpha^{j} survived in the deformed {name}")
            terms[(j, l)] = s
    return DiffOperator(order, terms)


# -- representations -------------------------------------------------------------

_CLASSICAL = {
    "N": (1, 1), "A+": (1, 0), "A-": (0, 1),
    "M": (0, 0), "B+": (2, 0), "B-": (0, 2),
}


def classical_rep(gen, order=0):
    """Undeformed one-boson table: N = a d, A+ = a, A- = d, M = 1, B+ = a^2, B- = d^2."""
    try:
        key = _CLASSICAL[gen]
    except KeyError:
        raise KeyError(f"unknown generator {gen!r}") from None
    return DiffOperator(order, {key: TruncatedSeries.one(order)})


def first_order_rep(gen, order=1):
    """The displayed first-order table, zero above z^1."""
    if order < 1:
        raise ValueError("first-order table needs order >= 1")

    def s(c0=0, c1=0):
        return TruncatedSeries([Fraction(c0), Fraction(c1)] + [Fraction(0)] * (order - 1),
                               order)

    tables = {
        "B+": {(2, 0): s(1)},
        "M": {(0, 0): s(1)},
        "N": {(1, 1): s(1), (3, 1): s(0, 1)},
        "A+": {(1, 0): s(1), (3, 0): s(0, Fraction(-1, 2))},
        "A-": {(0, 1): s(1), (2, 1): s(0, Fraction(3, 2))},
        "B-": {(0, 2): s(1), (2, 2): s(0, 1), (1, 1): s(0, 1)},
    }
    try:
        return DiffOperator(order, tables[gen])
    except KeyError:
        raise KeyError(f"unknown generator {gen!r}") from None


def deformed_rep(gen, order):
    """Deformed one-boson realization, exact mod z^(order+1).

    Built from the closed forms: one internal division by z costs one order,
    so everything is computed at order+1 and truncated at the end.
    """
    if gen not in _CLASSICAL:
        raise KeyError(f"unknown generator {gen!r}")
    k = order
    kk = k + 1  # internal margin for the single /z in each closed form
    one = _CPoly(kk, {0: TruncatedSeries.one(kk)})
    # u = 2 z alpha^2 as a cpoly
    u2 = _CPoly(kk, {2: TruncatedSeries.z_power(1, kk, 2)})

    if gen == "B+":
        return DiffOperator(k, {(2, 0): TruncatedSeries.one(k)})
    if gen == "M":
        return DiffOperator(k, {(0, 0): TruncatedSeries.one(k)})

    exp_kk = exp_nilpotent(u2, one)
    exp_u = exp_kk.truncate(k)       # e^{2 z alpha^2}, back at order k
    # (e^{2 z a^2} - 1)/(2z), exactly order k after the division
    growth = (exp_kk - one).divided_by_z().scale(Fraction(1, 2))

    if gen == "N":
        # (e^{2 z a^2} - 1)/(2z) * a^{-1} d
        return _finish({1: growth.shift(-1)}, k, "N")

    if gen in ("A+", "A-"):
        # shared radical ((1 - e^{-2 z a^2})/(2z))^{1/2} = a * sqrt(unit)
        exp_mu = exp_nilpotent(-u2, one)
        radicand = (one - exp_mu).divided_by_z().scale(Fraction(1, 2))
        one_k = one.truncate(k)
        root = sqrt_unit(radicand.shift(-2) - one_k, one_k)
        if gen == "A+":
            return _finish({0: root.shift(1)}, k, "A+")
        # e^{2 z a^2} a^{-1} * (a * root) d = e^{2 z a^2} root d
        return _finish({1: exp_u * root}, k, "A-")

    # B-: ((e^{2 z a^2}-1)/(2 z a^2)) d^2 + (e^{2 z a^2}/a + (1-e^{2 z a^2})/(2 z a^3)) d
    dd = growth.shift(-2)
    d1 = exp_u.shift(-1) - growth.shift(-3)
    return _finish({2: dd, 1: d1}, k, "B-")


def verify_rep(order):
    """Every deformed commutator matches the image of the tabulated bracket."""
    alg = two_photon_algebra(order)
    images = {g: deformed_rep(g, order) for g in alg.generators}

    def image_of_word(word):
        op = DiffOperator.identity(order)
        for g in word:
            op = op * images[alg.generators[g]]
        return op

    def image_of(elem):
        return DiffOperator(order, linear_combination(
            (image_of_word(word), s) for word, s in elem.terms.items()))

    entries = []
    for i, x in enumerate(alg.generators):
        for y in alg.generators[:i]:
            lhs = images[x].commutator(images[y])
            rhs = image_of(alg.relation(x, y))
            entries.append(residual_entry(f"rep/bracket/{x},{y}", lhs - rhs,
                                          {"order": str(order)}))
    return entries


def rep_checks(order):
    """Bracket residuals plus the classical-limit and first-order table ties."""
    entries = list(verify_rep(order))
    gens = _CLASSICAL.keys()
    bad = [g for g in gens if deformed_rep(g, 0) != classical_rep(g, 0)]
    entries.append(CheckResult(
        name="rep/classical-limit", passed=not bad,
        residual="0" if not bad else ", ".join(bad), params={"order": "0"}))
    if order >= 1:
        bad = [g for g in gens
               if deformed_rep(g, order).truncate(1) != first_order_rep(g, 1)]
        entries.append(CheckResult(
            name="rep/first-order-table", passed=not bad,
            residual="0" if not bad else ", ".join(bad), params={"order": str(order)}))
    return entries


# -- eigenproblem ----------------------------------------------------------------


@dataclass(frozen=True)
class EigenProblem:
    """Exact coefficients of beta1 N + beta2 B- + beta3 B+ + beta4 A- + beta5 A+."""

    betas: tuple
    eigenvalue: ComplexRational

    def __post_init__(self):
        if len(self.betas) != 5:
            raise ValueError("need exactly five beta coefficients")
        if all(not b for b in self.betas):
            raise ValueError("at least one beta must be nonzero")


def eigen_operator(problem, order, mode="full"):
    """sum_i beta_i rep(generator_i) - eigenvalue, in canonical form."""
    reps = {
        "classical": lambda g: classical_rep(g, order),
        "first-order": lambda g: first_order_rep(g, max(order, 1)).truncate(order)
        if order >= 1 else None,
        "full": lambda g: deformed_rep(g, order),
    }
    if mode not in reps:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "first-order" and order < 1:
        raise ValueError("first-order mode needs order >= 1")
    parts = [(reps[mode](gen), beta)
             for beta, gen in zip(problem.betas, GENERATOR_ORDER) if beta]
    parts.append((DiffOperator.identity(order), -problem.eigenvalue))
    return DiffOperator(order, linear_combination(parts))


class SingularRecurrenceError(ValueError):
    """The recurrence head vanished against a nonzero right-hand side."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"singular recurrence head at coefficient index {index}")


def series_solve(op, degree, seeds=None):
    """Power-series kernel element of a z-evaluated operator.

    The operator must have order 0 (exact scalars). Coefficients follow the
    triangular recurrence in which c_n is determined by the alpha^(n-d)
    equation, d being the largest derivative excess. Indices below d are free
    seeds (defaults c0 = 1, then c1 = 0). A vanishing head with vanishing
    right-hand side is a free direction: the seed value is used if supplied,
    otherwise 1 on an all-zero prefix and 0 after a nonzero one. A vanishing
    head against a nonzero right-hand side raises SingularRecurrenceError.

    Returns (coefficients, residual_tail) where the tail holds the nonzero
    image coefficients above degree + min(j - l).
    """
    if op.order != 0:
        raise ValueError("series_solve needs an order-0 operator; substitute z first")
    if op.is_zero():
        raise ValueError("degenerate zero operator")
    terms = {key: s.coeffs[0] for key, s in op.terms.items()}
    smin = min(j - l for (j, l) in terms)
    d = max(0, -smin)

    seeds = dict(seeds or {})
    defaults = {0: Fraction(1), 1: Fraction(0)}
    for n in range(d):
        seeds.setdefault(n, defaults.get(n, Fraction(0)))

    coeffs = {}
    for n in range(min(d, degree + 1)):
        coeffs[n] = seeds[n]

    for n in range(d, degree + 1):
        m = n - d
        head = Fraction(0)
        rhs = Fraction(0)
        for (j, l), c in terms.items():
            s = j - l
            if s == smin:
                head = head + c * _falling(n, l)
            else:
                np = m - s
                if 0 <= np < n:
                    prev = coeffs.get(np, Fraction(0))
                    if prev:
                        rhs = rhs + c * _falling(np, l) * prev
        if head == 0:
            if rhs != 0:
                raise SingularRecurrenceError(n)
            if n in seeds:
                coeffs[n] = seeds[n]
            else:
                coeffs[n] = Fraction(1) if all(v == 0 for v in coeffs.values()) else Fraction(0)
        else:
            coeffs[n] = -rhs / head

    image = op.apply_to_polynomial(coeffs)
    solved_through = degree + smin
    tail = {}
    for m, s in image.items():
        val = s.coeffs[0]
        if val == 0:
            continue
        if m <= solved_through:
            raise AssertionError(f"recurrence left residual at degree {m}")
        tail[m] = val
    return [coeffs.get(n, Fraction(0)) for n in range(degree + 1)], tail
