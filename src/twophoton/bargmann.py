"""Differential-operator calculus on the Fock-Bargmann space.

Operators are sums alpha^j d^l with truncated-series-in-z coefficients, kept
in canonical form (all derivatives to the right). Each one-boson realization
(classical, first-order, deformed) is one table {generator: operator}. One
realization map, ``algebra._realized_words``, takes the ``H6_RELATIONS``
rows, exponentials expanded at order k, and the eigen operator's words into
it through one prefix memo of word images. The deformed table is assembled
in this one ring, from exponentials and square roots of the multiplication
operator 2 z alpha^2, exact divisions by z and by powers of alpha, and
composition with d. The apparent 1/alpha factors of the closed forms must
cancel order by order: an exact division by alpha^m raises on any term below
alpha^m, so the construction asserts that instead of assuming it.

Composition makes no Fraction: it sums int numerators over one
denominator per product, keyed by (alpha power, d power, z power), and
regroups them into series as the PBW kernel does.

Every operator is over one ring, Q. Complex numbers appear only as the
eigenproblem's parsed inputs and its solved coefficients: its operator
is the pair of real and imaginary operators over Q, and ``series_solve``
reads that pair as one operator with Gaussian-integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import H6_GENERATORS, H6_RELATIONS, _realized_words, _row_terms
from .report import CheckResult, residual_entry
from .scalars import ComplexRational, _rational
from .series import TruncatedSeries, _coerce, _series_terms, exp_nilpotent, sqrt_unit
from .sparse import SparseTerms, collect, monomial, render_sum, weyl_terms

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
        """Composition; d^l alpha^m reorders through [d, alpha] = 1.

        Fraction-free. Each operand's coefficients are read as int
        numerators over the lcm of its denominators, and the int Weyl
        coefficients of ``weyl_terms`` multiply them, so the product is one
        dict of int numerators keyed by (alpha power, d power, z power) over
        the product of the two lcms; a pair of terms past z^k is skipped
        before it is multiplied. ``_series_terms``, the PBW kernel's
        regroup, turns the numerators that do not cancel into series, one
        object per distinct coefficient.
        """
        if not isinstance(other, DiffOperator):
            return self.scale(other)
        self._require_same(other)
        k = self.order
        left, den_left = _numerators(self)
        right, den_right = _numerators(other)
        acc = {}
        for j1, l1, p1 in left:
            for j2, l2, p2 in right:
                weyl = weyl_terms(l1, j2)
                for n1, x1 in p1:
                    for n2, x2 in p2:
                        n = n1 + n2
                        if n > k:
                            break
                        x = x1 * x2
                        for t, w in weyl:
                            key = ((j1 + j2 - t, l1 + l2 - t), n)
                            acc[key] = acc.get(key, 0) + x * w
        return self._holding(self.space, _series_terms(acc, k, den_left * den_right))

    def truncate(self, order):
        return DiffOperator(order, {k: s.truncate(order) for k, s in self.terms.items()})

    def low_order(self):
        """Least z power among the coefficients, or None for the zero operator."""
        return min((s.low_order() for s in self.terms.values()), default=None)

    def divided_by_z(self):
        """Exact division by z; every coefficient needs zero constant term."""
        return DiffOperator(self.order - 1,
                            {k: s.divided_by_z() for k, s in self.terms.items()})

    def divided_by_alpha(self, m):
        """alpha^-m times self, exact: a term below alpha^m raises ValueError."""
        low = min((j for j, _ in self.terms), default=m)
        if low < m:
            raise ValueError(f"alpha^{low} is not divisible by alpha^{m}")
        return DiffOperator(self.order, {(j - m, l): s for (j, l), s in self.terms.items()})

    def substitute_z(self, z):
        """Collapse the series coefficients at an exact rational z value."""
        z = _rational(z, DiffOperator)
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


def _numerators(op):
    """op's terms as (j, l, ((z power, numerator), ...)) rows over one
    denominator, the lcm of its coefficients' denominators, and that lcm."""
    rows = [(j, l, s.triples) for (j, l), s in op.terms.items()]
    den = lcm(*(d for _, _, ints in rows for _, _, d in ints))
    return [(j, l, [(n, x * (den // d)) for n, x, d in ints]) for j, l, ints in rows], den


# -- representations -------------------------------------------------------------

_CLASSICAL = {
    "N": (1, 1), "A+": (1, 0), "A-": (0, 1),
    "M": (0, 0), "B+": (2, 0), "B-": (0, 2),
}


def classical_rep(order=0):
    """Undeformed one-boson table: N = a d, A+ = a, A- = d, M = 1, B+ = a^2, B- = d^2."""
    return {gen: DiffOperator(order, {key: TruncatedSeries.one(order)})
            for gen, key in _CLASSICAL.items()}


def first_order_rep():
    """The displayed first-order table, at order 1."""
    def s(c0=0, c1=0):
        return TruncatedSeries([Fraction(c0), Fraction(c1)], 1)

    tables = {
        "N": {(1, 1): s(1), (3, 1): s(0, 1)},
        "A+": {(1, 0): s(1), (3, 0): s(0, Fraction(-1, 2))},
        "A-": {(0, 1): s(1), (2, 1): s(0, Fraction(3, 2))},
        "M": {(0, 0): s(1)},
        "B+": {(2, 0): s(1)},
        "B-": {(0, 2): s(1), (2, 2): s(0, 1), (1, 1): s(0, 1)},
    }
    return {gen: DiffOperator(1, terms) for gen, terms in tables.items()}


def deformed_rep(order):
    """Deformed one-boson table, exact mod z^(order+1).

    Built from the closed forms, whose z- and alpha-dependent factors are
    multiplication operators: DiffOperators without d, with the d factors
    composed on the right. e^{2 z a^2}, the growth factor and the radical
    shared by A+ and A- are computed once for the whole table. Each
    apparent 1/alpha is an exact divided_by_alpha, which raises unless the
    closed form's lower powers cancel, so the construction asserts that
    cancellation instead of assuming it. One internal division by z costs
    one order, so e^{2 z a^2} is computed at order+1. B+ and M keep their
    classical images.
    """
    k = order
    rep = classical_rep(k)
    a, a2, d, d2 = (rep[g] for g in ("A+", "B+", "A-", "B-"))
    one, one_kk = DiffOperator.identity(k), DiffOperator.identity(k + 1)
    u = DiffOperator(k + 1, {(2, 0): TruncatedSeries.z_power(1, k + 1, 2)})  # 2 z a^2

    exp_kk = exp_nilpotent(u, one_kk)
    exp_u = exp_kk.truncate(k)       # e^{2 z a^2}, back at order k
    # (e^{2 z a^2} - 1)/(2z), exactly order k after the division
    growth = (exp_kk - one_kk).divided_by_z().scale(Fraction(1, 2))
    # shared radical ((1 - e^{-2 z a^2})/(2z))^{1/2} = a * sqrt(unit)
    radicand = (one_kk - exp_nilpotent(-u, one_kk)).divided_by_z().scale(Fraction(1, 2))
    root = sqrt_unit(radicand.divided_by_alpha(2) - one, one)

    # N: (e^{2 z a^2} - 1)/(2z) * a^{-1} d
    rep["N"] = growth.divided_by_alpha(1) * d
    rep["A+"] = a * root
    # A-: e^{2 z a^2} a^{-1} * (a * root) d = e^{2 z a^2} root d
    rep["A-"] = exp_u * root * d
    # B-: ((e^{2 z a^2}-1)/(2 z a^2)) d^2 + ((e^{2 z a^2} a^2 - (e^{2 z a^2}-1)/(2z))/a^3) d
    rep["B-"] = growth.divided_by_alpha(2) * d2 + (exp_u * a2 - growth).divided_by_alpha(3) * d
    return rep


def verify_rep(order, images=None):
    """Every deformed commutator matches the image of the tabulated bracket.

    ``images`` is the deformed table at ``order``, built here if not given.
    Each ``H6_RELATIONS`` row, read when the check runs, is expanded at
    ``order`` and realized through one prefix memo of word images shared by
    all fifteen brackets, so each distinct prefix costs one composition.
    """
    if images is None:
        images = deformed_rep(order)
    index = {g: i for i, g in enumerate(H6_GENERATORS)}
    memo = {(): DiffOperator.identity(order), **{(i,): images[g] for g, i in index.items()}}
    entries = []
    for i, x in enumerate(H6_GENERATORS):
        for y in H6_GENERATORS[:i]:
            lhs = images[x].commutator(images[y])
            row = H6_RELATIONS.get((x, y), ({}, ()))
            rhs = _realized_words(_row_terms(*row, index, order).items(), memo)
            entries.append(residual_entry(f"rep/bracket/{x},{y}", lhs - rhs,
                                          {"order": str(order)}))
    return entries


def rep_checks(order):
    """Bracket residuals plus the classical-limit and first-order table ties,
    on one build of the deformed table."""
    images = deformed_rep(order)
    entries = list(verify_rep(order, images))

    def tie(name, rep, want, at):
        bad = [g for g in _CLASSICAL if rep[g] != want[g]]
        return CheckResult(name=name, passed=not bad, residual=", ".join(bad) or "0",
                           params={"order": str(at)})

    entries.append(tie("rep/classical-limit", deformed_rep(0), classical_rep(0), 0))
    if order >= 1:
        full = {g: op.truncate(1) for g, op in images.items()}
        entries.append(tie("rep/first-order-table", full, first_order_rep(), order))
    return entries


# -- eigenproblem ----------------------------------------------------------------


@dataclass(frozen=True)
class EigenProblem:
    """Exact coefficients of beta1 N + beta2 B- + beta3 B+ + beta4 A- + beta5 A+,
    each an int, a Fraction or a ComplexRational, as is the eigenvalue."""

    betas: tuple
    eigenvalue: ComplexRational

    def __post_init__(self):
        if len(self.betas) != 5:
            raise ValueError("need exactly five beta coefficients")
        for x in (*self.betas, self.eigenvalue):
            _parts(x)
        if all(not b for b in self.betas):
            raise ValueError("at least one beta must be nonzero")


def _parts(x):
    """An exact scalar's real and imaginary parts, as Fractions."""
    if isinstance(x, ComplexRational):
        return x.re, x.im
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    raise TypeError("EigenProblem takes int, Fraction or ComplexRational scalars, "
                    f"not {type(x).__name__}")


def eigen_operator(problem, rep):
    """sum_i beta_i rep[generator_i] - eigenvalue rep["M"], in canonical form,
    as the pair (re, im) of operators over Q: sum_i Re beta_i X_i - Re
    lambda M and sum_i Im beta_i X_i - Im lambda M.

    ``rep`` is a one-boson table (classical_rep, first_order_rep or
    deformed_rep), in each of which M is the identity; both operators have
    the table's order.
    """
    weights = [((gen,), _parts(beta)) for beta, gen in zip(problem.betas, GENERATOR_ORDER)]
    weights.append((("M",), tuple(-x for x in _parts(problem.eigenvalue))))
    memo = {(): rep["M"], **{(g,): op for g, op in rep.items()}}
    return tuple(_realized_words(((w, c[part]) for w, c in weights), memo) for part in (0, 1))


class SingularRecurrenceError(ValueError):
    """The recurrence head vanished against a nonzero right-hand side."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"singular recurrence head at coefficient index {index}")


def _gaussian(re, im):
    """Exact parts re + im i as (re, im, q): a Gaussian-integer numerator over q > 0."""
    q = lcm(re.denominator, im.denominator)
    return re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q


def _gmul(ar, ai, br, bi):
    """Gaussian-integer product (ar + ai i)(br + bi i), skipping zero parts."""
    if not ai:
        return ar * br, ar * bi if bi else 0
    if not bi:
        return ar * br, ai * br
    return ar * br - ai * bi, ar * bi + ai * br


def series_solve(op, degree, seeds=None):
    """Power-series kernel element of a z-evaluated operator.

    ``op`` is the pair (re, im) of ``eigen_operator``, the operator re + i
    im, or a real operator alone; both parts must have order 0 (exact
    scalars). Coefficients follow the
    triangular recurrence in which c_n is determined by the
    alpha^(n + smin) equation, smin being the least j - l and d = max(0,
    -smin) the largest derivative excess. Indices below d are free seeds
    (defaults c0 = 1, then c1 = 0). A vanishing head with vanishing
    right-hand side is a free direction: the seed value is used if
    supplied, otherwise 1 on an all-zero prefix and 0 after a nonzero one.
    A vanishing head against a nonzero right-hand side raises
    SingularRecurrenceError.

    The arithmetic is fraction-free. The operator is scaled by the lcm of
    its coefficient denominators, so its coefficients are Gaussian
    integers, and c_n is held as a Gaussian-integer numerator P_n over
    the running denominator D_n = q_0 ... q_n. Here q_n is the head when
    it is real and |head|^2 otherwise (P_n then carries the conjugate
    head), or the denominator of a seed. A step brings each earlier P onto
    D_(n-1) with the few q between, so it multiplies big integers by small
    ones only. The new q_n and P_n then lose their common factor, found by
    a gcd against the small q_n, so the operator's scale and the head's
    content do not pile up in D_n. The residual check applies the whole
    operator to every P_n brought onto D_degree and requires the image to
    vanish exactly through degree + smin. Each coefficient and each tail
    value is reduced once, when it is returned.

    Returns (coefficients, residual_tail) where the tail holds the nonzero
    image coefficients above degree + smin. Values are ComplexRational if
    the imaginary operator is nonzero or a seed is a ComplexRational, else
    Fraction: complex numbers appear only here and in the eigenproblem's
    inputs. Seed and free-direction values are returned as given.
    """
    op = op if isinstance(op, tuple) else (op, DiffOperator.zero(op.order))
    if any(part.order != 0 for part in op):
        raise ValueError("series_solve needs an order-0 operator; substitute z first")
    terms = {}
    for i, part in enumerate(op):
        for key, s in part.terms.items():
            terms.setdefault(key, [Fraction(0), Fraction(0)])[i] = s.coeffs[0]
    if not terms:
        raise ValueError("degenerate zero operator")
    smin = min(j - l for (j, l) in terms)
    d = max(0, -smin)

    seeds = {n: v if isinstance(v, ComplexRational) else _coerce(v)
             for n, v in (seeds or {}).items()}
    defaults = {0: Fraction(1), 1: Fraction(0)}
    for n in range(d):
        seeds.setdefault(n, defaults.get(n, Fraction(0)))
    is_complex = bool(op[1]) or any(isinstance(v, ComplexRational) for v in seeds.values())

    parts = {key: _gaussian(*c) for key, c in terms.items()}
    scale = lcm(*(q for _, _, q in parts.values()))
    ops = [(j, l, re * (scale // q), im * (scale // q))
           for (j, l), (re, im, q) in parts.items()]
    nums, dens, given = _recurrence(ops, smin, d, degree, seeds)

    def reduced(re, im, den):
        if is_complex:
            return ComplexRational(Fraction(re, den), Fraction(im, den))
        return Fraction(re, den)

    image, common = _image(ops, nums, dens)
    solved_through = degree + smin
    tail = {}
    for m in sorted(image):
        re, im = image[m]
        if re or im:
            if m <= solved_through:
                raise AssertionError(f"recurrence left residual at degree {m}")
            tail[m] = reduced(re, im, scale * common)

    coeffs = []
    den = 1
    for n, (re, im) in enumerate(nums):
        den *= dens[n]
        coeffs.append(given[n] if n in given else reduced(re, im, den))
    return coeffs, tail


def _recurrence(ops, smin, d, degree, seeds):
    """Numerators P_n, factors q_n and the seed or free values of series_solve.

    c_n = P_n / D_n with D_n = q_0 ... q_n. The equation of alpha^(n + smin)
    reads head_n c_n + sum_k feed_k c_(n-k) = 0, where a term alpha^j d^l
    with offset k = j - l - smin feeds c_(n-k) into it; scaled by D_(n-1),
    c_(n-k) becomes P_(n-k) q_(n-k+1) ... q_(n-1). A given value p/q
    enters as P_n = p D_(n-1), q_n = q. Each q_n is stored divided by
    gcd(q_n, P_n), and P_n with it.
    """
    seeds = {n: (v, _gaussian(*_parts(v))) for n, v in seeds.items()}
    # the free-direction value, keyed by whether a nonzero c came before
    free = {False: (Fraction(1), (1, 0, 1)), True: (Fraction(0), (0, 0, 1))}
    heads = [(l, re, im) for j, l, re, im in ops if j - l == smin]
    feeds = sorted((j - l - smin, l, re, im) for j, l, re, im in ops if j - l != smin)
    nums, dens, given = [], [], {}
    nonzero = False
    den = 1  # D_(n-1)
    for n in range(degree + 1):
        value = None
        if n < d:
            value = seeds[n]
        else:
            hr = hi = 0
            for l, re, im in heads:
                f = _falling(n, l)
                hr += re * f
                hi += im * f
            rr = ri = 0
            gap, spanned = 1, 1  # gap = q_(n-1) ... q_(n-spanned+1)
            for k, l, re, im in feeds:
                if k > n:
                    break
                while spanned < k:
                    gap *= dens[n - spanned]
                    spanned += 1
                pr, pi = nums[n - k]
                f = _falling(n - k, l) * gap
                if f and (pr or pi):
                    xr, xi = _gmul(re * f, im * f, pr, pi)
                    rr += xr
                    ri += xi
            if hi:
                (pr, pi), q = _gmul(-rr, -ri, hr, -hi), hr * hr + hi * hi
            elif hr:
                pr, pi, q = -rr, -ri, hr
            elif rr or ri:
                raise SingularRecurrenceError(n)
            else:
                value = seeds.get(n, free[nonzero])
        if value is not None:
            given[n], (pr, pi, q) = value
            pr, pi = pr * den, pi * den
        # q_n is small, so this gcd costs one big-mod-small step per part
        g = gcd(q, pr, pi)
        if g > 1:
            pr, pi, q = pr // g, pi // g, q // g
        nums.append((pr, pi))
        dens.append(q)
        den *= q
        nonzero = nonzero or bool(pr or pi)
    return nums, dens, given


def _image(ops, nums, dens):
    """Integer image of sum_n c_n alpha^n under the scaled operator, over D_degree.

    Walks n downwards with the suffix product q_(n+1) ... q_degree, so each
    P_n is put on the common denominator as it is used and nothing is
    kept but the image. Returns ({alpha power: (re, im)}, D_degree).
    """
    image = {}
    suffix = 1
    for n in range(len(nums) - 1, -1, -1):
        pr, pi = nums[n]
        if pr or pi:
            xr, xi = pr * suffix, pi * suffix if pi else 0
            for j, l, re, im in ops:
                f = _falling(n, l)
                if f:
                    yr, yi = _gmul(re * f, im * f, xr, xi)
                    m = n + j - l
                    cr, ci = image.get(m, (0, 0))
                    image[m] = cr + yr, ci + yi
        suffix *= dens[n]
    return image, suffix
