"""Truncated formal power series in the deformation parameter z.

A series has a truncation order k and all arithmetic is mod z^(k+1). It
stores only its nonzero terms, as an ascending tuple of (power, coefficient)
pairs with 0 <= power <= k. The deformed tables are homogeneous for a
grading in which z has a weight, so most series are monomials: a product
of two monomials is one scalar multiplication, and no operation visits a
zero coefficient. A sum or product whose coefficients cancel drops them,
so equal series store equal pairs.

A series has a second form, the same terms as int triples (power,
numerator, denominator) in lowest terms with a positive denominator. A
series holds one form or both: each is derived from the other on its
first read and then kept. The PBW product kernel and the Bargmann
operator composition make their results in the int form, through the one
regroup ``_series_terms``, and read their operands in it, and a product
of two monomials is made on ints, two gcds and two int products, so the
many coefficient products of a Yang-Baxter residual make no Fraction;
Fractions are made only for a series that is read through ``pairs``.

Coefficients are over one ring, Q: the constructors and the scalar
products turn an int into a Fraction and refuse any other type (float,
complex, Decimal, ComplexRational) with TypeError, so nothing inexact
enters a series. Complex numbers appear only as the eigenproblem's parsed
inputs and its solved coefficients: ``bargmann.eigen_operator`` splits
the eigenproblem into a real and an imaginary operator over Q. The
variable z itself is always central. Mixing truncation orders is an
error, never a silent coercion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

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


def _nonzero_sorted(acc):
    """The ascending (power, coefficient) pairs of a {power: coefficient} map
    whose coefficients may have cancelled to zero."""
    return tuple(sorted((n, c) for n, c in acc.items() if c))


class TruncatedSeries:
    """c_0 + c_1 z + ... + c_k z^k, kept as the pairs (n, c_n) with c_n != 0.

    ``pairs`` is the one public form: ascending in n, every coefficient
    a nonzero Fraction. A series may hold the same terms as int triples
    (n, numerator, denominator) instead, read by ``_int_terms()``; each form
    is made from the other on its first read and then kept, and a series
    made in one form never makes the other unless it is read. Both list the
    same powers, so ``low_order`` and the truth value read the first term
    of either, and equality, hashing, ``str`` and ``coeffs`` see the same
    values whichever form a series was made in. ``coeffs`` is the dense
    tuple c_0..c_k, derived on each access for the readers that index by
    power.
    """

    __slots__ = ("order", "_pairs", "_ints")

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
        self._pairs = tuple((n, c) for n, c in enumerate(coeffs) if c)
        self._ints = None

    @classmethod
    def _exact(cls, pairs, order):
        """Wrap ascending (power, coefficient) pairs with nonzero exact coefficients.

        The ring operations build their results here: their coefficients
        come from exact operands, so the public constructor's coercion and
        float rejection would only repeat work.
        """
        series = object.__new__(cls)
        series.order = order
        series._pairs = pairs
        series._ints = None
        return series

    @classmethod
    def _from_ints(cls, ints, order):
        """Wrap ascending (power, numerator, denominator) triples, each a
        nonzero Fraction in lowest terms with a positive denominator."""
        series = object.__new__(cls)
        series.order = order
        series._pairs = None
        series._ints = ints
        return series

    @property
    def pairs(self):
        """The ascending (power, coefficient) pairs of the nonzero terms."""
        pairs = self._pairs
        if pairs is None:
            self._pairs = pairs = tuple([(n, Fraction(x, d)) for n, x, d in self._ints])
        return pairs

    def _int_terms(self):
        """The ascending (power, numerator, denominator) triples, in lowest
        terms with positive denominators."""
        ints = self._ints
        if ints is None:
            self._ints = ints = tuple([(n, c.numerator, c.denominator) for n, c in self._pairs])
        return ints

    def _monomial(self):
        """The one (power, numerator, denominator) triple of a monomial, else None."""
        ints = self._ints
        if ints is None:
            if len(self._pairs) != 1:
                return None
            ints = self._int_terms()
        return ints[0] if len(ints) == 1 else None

    def _terms(self):
        """Whichever form is stored; both list the same powers."""
        return self._ints if self._pairs is None else self._pairs

    @property
    def coeffs(self):
        """The dense coefficients c_0..c_k; zero powers read Fraction(0)."""
        out = [_ZERO] * (self.order + 1)
        for n, c in self.pairs:
            out[n] = c
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
        return cls._exact(((power, coeff),) if coeff and 0 <= power <= order else (), order)

    # -- helpers ------------------------------------------------------------

    def _require_same_order(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def is_zero(self):
        return not self._terms()

    def __bool__(self):
        return bool(self._terms())

    def low_order(self):
        """Power of the first nonzero coefficient, or None for the zero series."""
        terms = self._terms()
        return terms[0][0] if terms else None

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return TruncatedSeries._exact(tuple(p for p in self.pairs if p[0] <= order), order)

    def divided_by_z(self):
        """Exact division by z; requires zero constant term, drops one order."""
        if self.low_order() == 0:
            raise ValueError("division by z needs zero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by z")
        return TruncatedSeries._exact(tuple((n - 1, c) for n, c in self.pairs),
                                      self.order - 1)

    # -- ring operations ----------------------------------------------------

    def _plus(self, other_pairs):
        """self + the series with ``other_pairs``, at self's order."""
        if not other_pairs:
            return self
        if not self.pairs:
            return TruncatedSeries._exact(other_pairs, self.order)
        acc = dict(self.pairs)
        for n, c in other_pairs:
            prev = acc.get(n)
            acc[n] = c if prev is None else prev + c
        return TruncatedSeries._exact(_nonzero_sorted(acc), self.order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return self._plus(other.pairs)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return self._plus(tuple((n, -c) for n, c in other.pairs))

    def __neg__(self):
        return TruncatedSeries._exact(tuple((n, -c) for n, c in self.pairs), self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            k = self.order
            a, b = self._monomial(), other._monomial()
            if a is not None and b is not None:
                # two monomials: x/y * u/v on ints, cross-reduced as Fraction
                # does, nonzero as Q has no zero divisors
                i, x, y = a
                j, u, v = b
                if i + j > k:
                    return TruncatedSeries._exact((), k)
                g, h = gcd(x, v), gcd(u, y)
                return TruncatedSeries._from_ints(
                    ((i + j, (x // g) * (u // h), (y // h) * (v // g)),), k)
            a, b = self.pairs, other.pairs
            acc = {}
            for i, x in a:
                for j, y in b:
                    if i + j > k:
                        break
                    prev = acc.get(i + j)
                    acc[i + j] = x * y if prev is None else prev + x * y
            return TruncatedSeries._exact(_nonzero_sorted(acc), k)
        if isinstance(other, SparseTerms):
            # an element takes a series as its scalar: x.scale(self)
            return NotImplemented
        c = _coerce(other)
        if not c:
            return TruncatedSeries._exact((), self.order)
        return TruncatedSeries._exact(tuple((n, a * c) for n, a in self.pairs), self.order)

    def __rmul__(self, other):
        c = _coerce(other)
        if not c:
            return TruncatedSeries._exact((), self.order)
        return TruncatedSeries._exact(tuple((n, c * a) for n, a in self.pairs), self.order)

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
        return self.order == other.order and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.order, self.pairs))

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
    Bargmann composition to series. Each key's (power, numerator / den)
    terms, sorted by power, are its series' int triples, each numerator
    reduced against ``den`` with one gcd per distinct numerator; no zero
    power is filled in and no Fraction is made. The powers must not exceed
    ``order``. Equal coefficients become one object: one series per
    distinct tuple of (power, numerator) pairs, looked up by the numerators
    themselves.
    """
    pairs = {}
    for (key, n), a in numerators.items():
        if a:
            pairs.setdefault(key, []).append((n, a))
    reduced = {}
    shared = {}
    out = {}
    word_of = None if words is None else words.__getitem__
    for key, p in pairs.items():
        p = tuple(sorted(p))
        s = shared.get(p)
        if s is None:
            triples = []
            for n, a in p:
                c = reduced.get(a)
                if c is None:
                    g = gcd(a, den)
                    reduced[a] = c = (a // g, den // g)
                triples.append((n,) + c)
            shared[p] = s = TruncatedSeries._from_ints(tuple(triples), order)
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
