"""Truncated formal power series in the deformation parameter z.

A series has a truncation order k and all arithmetic is mod z^(k+1). It
stores only its nonzero terms, as an ascending tuple of int triples (power,
numerator, denominator) with 0 <= power <= k, each coefficient in lowest
terms with a positive denominator. The deformed tables are homogeneous for
a grading in which z has a weight, so most series are monomials: a product
of two monomials is two gcds and two int products, and no operation visits
a zero coefficient. Every ring operation reads and writes the triples: a
sum or a product collects int numerators over one denominator and reduces
them through one helper, ``_lowest_terms``, which drops the numerators that
cancel, so equal series store equal triples. The PBW product kernel and the
Bargmann operator composition read their operands' triples and make their
results through the same helper, in ``_series_terms``. Fractions are made
only when a series is read through ``pairs`` or ``coeffs``.

Coefficients are over one ring, Q: the constructors and the scalar
products take an int or a Fraction and refuse any other type (float,
complex, Decimal, ComplexRational) with TypeError, so nothing inexact
enters a series. Complex numbers appear only as the eigenproblem's parsed
inputs and its solved coefficients: ``bargmann.eigen_operator`` splits
the eigenproblem into a real and an imaginary operator over Q. The
variable z itself is always central. Mixing truncation orders is an
error, never a silent coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .sparse import SparseTerms

__all__ = ["TruncatedSeries", "exp_nilpotent", "sqrt_unit"]


_ZERO = Fraction(0)


def _coerce(c):
    """A rational coefficient: an int as a Fraction, a Fraction as it is;
    anything else (float, complex, Decimal, ComplexRational, ...) raises
    TypeError."""
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"inexact or non-rational coefficient {c!r}; use int or Fraction")


def _lowest_terms(terms, den):
    """The triples of ascending (power, numerator) pairs over the positive
    denominator ``den``, each reduced by one gcd; zero numerators are dropped."""
    return tuple([(n, x // g, den // g) for n, x in terms if x for g in (gcd(x, den),)])


def _den(triples):
    """The lcm of the denominators of ``triples``."""
    return lcm(*[d for _, _, d in triples])


class TruncatedSeries:
    """c_0 + c_1 z + ... + c_k z^k, stored as ``triples``: the ascending
    (n, numerator, denominator) of each c_n != 0, in lowest terms with a
    positive denominator.

    ``pairs``, the (n, c_n) with c_n a Fraction, and ``coeffs``, the dense
    tuple c_0..c_k for the readers that index by power, are derived from
    the triples on each read.
    """

    __slots__ = ("order", "triples")

    def __init__(self, coeffs, order=None):
        """The series with the dense coefficients c_0..c_order."""
        coeffs = tuple(_coerce(c) for c in coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.triples = tuple([(n, c.numerator, c.denominator)
                              for n, c in enumerate(coeffs) if c])

    @classmethod
    def _from_ints(cls, triples, order):
        """Wrap ascending (power, numerator, denominator) triples, each a
        nonzero Fraction in lowest terms with a positive denominator: the
        ring operations make their results so, and the public constructor's
        coercion would only repeat work."""
        series = object.__new__(cls)
        series.order = order
        series.triples = triples
        return series

    @property
    def pairs(self):
        """The ascending (power, coefficient) pairs of the nonzero terms."""
        return tuple([(n, Fraction(x, d)) for n, x, d in self.triples])

    @property
    def coeffs(self):
        """The dense coefficients c_0..c_k; zero powers read Fraction(0)."""
        out = [_ZERO] * (self.order + 1)
        for n, x, d in self.triples:
            out[n] = Fraction(x, d)
        return tuple(out)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls.z_power(0, order, 0)

    @classmethod
    def one(cls, order):
        return cls.z_power(0, order, 1)

    @classmethod
    def constant(cls, c, order):
        return cls.z_power(0, order, c)

    @classmethod
    def z_power(cls, power, order, coeff=1):
        """coeff * z^power, truncated (zero if power exceeds the order)."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeff = _coerce(coeff)
        return cls._from_ints(((power, coeff.numerator, coeff.denominator),)
                              if coeff and 0 <= power <= order else (), order)

    # -- helpers ------------------------------------------------------------

    def _require_same_order(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def is_zero(self):
        return not self.triples

    def __bool__(self):
        return bool(self.triples)

    def low_order(self):
        """Power of the first nonzero coefficient, or None for the zero series."""
        triples = self.triples
        return triples[0][0] if triples else None

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return TruncatedSeries._from_ints(tuple([t for t in self.triples if t[0] <= order]),
                                          order)

    def divided_by_z(self):
        """Exact division by z; requires zero constant term, drops one order."""
        if self.low_order() == 0:
            raise ValueError("division by z needs zero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by z")
        return TruncatedSeries._from_ints(tuple([(n - 1, x, d) for n, x, d in self.triples]),
                                          self.order - 1)

    # -- ring operations ----------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, summed over the lcm of both denominators."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        a, b = self.triples, other.triples
        if not b:
            return self
        den = lcm(_den(a), _den(b))
        acc = {n: x * (den // d) for n, x, d in a}
        for n, x, d in b:
            acc[n] = acc.get(n, 0) + sign * x * (den // d)
        return TruncatedSeries._from_ints(_lowest_terms(sorted(acc.items()), den), self.order)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return TruncatedSeries._from_ints(tuple([(n, -x, d) for n, x, d in self.triples]),
                                          self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            k = self.order
            a, b = self.triples, other.triples
            if len(a) == len(b) == 1:
                # two monomials: x/y * u/v, cross-reduced as Fraction does,
                # nonzero as Q has no zero divisors
                (i, x, y), (j, u, v) = a[0], b[0]
                if i + j > k:
                    return TruncatedSeries._from_ints((), k)
                g, h = gcd(x, v), gcd(u, y)
                return TruncatedSeries._from_ints(
                    ((i + j, (x // g) * (u // h), (y // h) * (v // g)),), k)
            da, db = _den(a), _den(b)
            b = [(j, u * (db // v)) for j, u, v in b]
            acc = {}
            for i, x, y in a:
                x *= da // y
                for j, u in b:
                    if i + j > k:
                        break
                    acc[i + j] = acc.get(i + j, 0) + x * u
            return TruncatedSeries._from_ints(_lowest_terms(sorted(acc.items()), da * db), k)
        if isinstance(other, SparseTerms):
            # an element takes a series as its scalar: x.scale(self)
            return NotImplemented
        return self._scaled(other)

    def _scaled(self, c):
        """self times the rational c, each triple cross-reduced."""
        c = _coerce(c)
        u, v = c.numerator, c.denominator
        if not u:
            return TruncatedSeries._from_ints((), self.order)
        return TruncatedSeries._from_ints(tuple([
            (n, (x // g) * (u // h), (d // h) * (v // g))
            for n, x, d in self.triples for g, h in ((gcd(x, v), gcd(u, d)),)]), self.order)

    __rmul__ = _scaled

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers: use inverse() first")
        out = TruncatedSeries.one(self.order)
        for _ in range(n):
            out = out * self
        return out

    # -- transcendental-by-truncation ---------------------------------------

    def exp(self):
        """Sum a^n/n!; requires zero constant term so the sum is finite."""
        return exp_nilpotent(self, TruncatedSeries.one(self.order))

    def sqrt(self):
        """Unique square root with unit constant term; requires c0 == 1."""
        one = TruncatedSeries.one(self.order)
        return sqrt_unit(self - one, one)

    def inverse(self):
        """Multiplicative inverse; requires nonzero constant term."""
        coeffs = self.coeffs
        if coeffs[0] == 0:
            raise ValueError("series inverse needs nonzero constant term")
        k = self.order
        b0 = 1 / coeffs[0]
        b = [b0] + [Fraction(0)] * k
        for n in range(1, k + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc = acc + coeffs[i] * b[n - i]
            b[n] = -b0 * acc
        return TruncatedSeries(b, k)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.triples == other.triples

    def __hash__(self):
        return hash((self.order, self.triples))

    def __str__(self):
        parts = []
        for i, c in self.pairs:
            if i == 0:
                parts.append(str(c))
            else:
                zpow = "z" if i == 1 else f"z^{i}"
                coeff = "" if c == 1 else f"{c}*"
                parts.append(f"{coeff}{zpow}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def _series_terms(numerators, order, den=1, words=None):
    """Regroup a {(key, z power): numerator} map over the positive
    denominator ``den`` into {key: series at ``order``}, dropping zero
    numerators; with ``words``, a key is a tuple of indices into ``words``
    and each surviving key is turned into its tuple of words.

    The one way from the int accumulators of the PBW kernel and of the
    Bargmann composition to series. Each key's (power, numerator) pairs,
    sorted by power, become its series' triples through ``_lowest_terms``;
    no zero power is filled in and no Fraction is made. The powers must not
    exceed ``order``. Equal coefficients become one object: one series per
    distinct tuple of (power, numerator) pairs, looked up by the numerators
    themselves.
    """
    pairs = {}
    for (key, n), a in numerators.items():
        if a:
            pairs.setdefault(key, []).append((n, a))
    shared = {}
    out = {}
    word_of = None if words is None else words.__getitem__
    for key, p in pairs.items():
        p = tuple(sorted(p))
        s = shared.get(p)
        if s is None:
            shared[p] = s = TruncatedSeries._from_ints(_lowest_terms(p, den), order)
        if word_of is not None:
            key = tuple(map(word_of, key))
        out[key] = s
    return out


# -- exp and sqrt over any ring truncated in z ------------------------------------
#
# x is a TruncatedSeries or a bargmann.DiffOperator, the multiplication
# operators of the deformed realization: anything with .order, .low_order(),
# +, * (by itself and by a Fraction) and a truth value that is False exactly
# for zero. A strictly positive z order makes x^n vanish for n > order, so
# both sums are finite; they stop at the first vanishing power.


def exp_nilpotent(x, one):
    """exp(x) = sum_n x^n / n!; ``one`` is the unit of x's ring."""
    if x.low_order() == 0:
        raise ValueError("exp needs a strictly positive z order")
    acc = power = one
    for n in range(1, x.order + 1):
        power = power * x
        if not power:
            break
        acc = acc + power * Fraction(1, factorial(n))
    return acc


def sqrt_unit(q, one):
    """sqrt(1 + q) by the binomial series; ``one`` is the unit of q's ring."""
    if q.low_order() == 0:
        raise ValueError("sqrt needs 1 + q with q of strictly positive z order")
    acc = power = one
    binom = Fraction(1)
    for n in range(1, q.order + 1):
        power = power * q
        if not power:
            break
        binom = binom * (Fraction(1, 2) - (n - 1)) / n
        acc = acc + power * binom
    return acc
