"""Truncated formal power series in the deformation parameter z.

A series carries exactly order+1 coefficients c0..ck and all arithmetic is
mod z^(k+1). Coefficients default to Fraction but any exact scalar ring with
+, -, *, equality against 0/1 and a truth value that is False exactly for
zero works (ComplexRational in particular); the variable z itself is always
central. Mixing truncation orders is an error, never a silent coercion.

In the z-graded algebras most series are monomials, so the ring operations
skip zero slots: no scalar arithmetic is done on them, and a zero slot of a
result is an operand's zero or the ring's shared zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = ["TruncatedSeries", "exp_nilpotent", "sqrt_unit"]


_ZERO = Fraction(0)


def _coerce(c):
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}; use Fraction")
    if isinstance(c, int):
        return Fraction(c)
    return c


def _inv_scalar(c):
    rec = getattr(c, "reciprocal", None)
    if rec is not None:
        return rec()
    return 1 / c


class TruncatedSeries:
    __slots__ = ("order", "coeffs", "_low")

    def __init__(self, coeffs, order=None):
        coeffs = tuple(_coerce(c) for c in coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs
        self._low = -2  # lazy low_order cache; -2 means not yet computed

    @classmethod
    def _exact(cls, coeffs, order):
        """Wrap a tuple of order+1 coefficients that are already exact scalars.

        The ring operations build their results here: their coefficients
        come from exact operands, so the public constructor's coercion and
        float rejection would only repeat work.
        """
        series = object.__new__(cls)
        series.order = order
        series.coeffs = coeffs
        series._low = -2
        return series

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls((Fraction(0),) * (order + 1), order)

    @classmethod
    def one(cls, order):
        return cls.constant(Fraction(1), order)

    @classmethod
    def constant(cls, c, order):
        return cls((_coerce(c),) + (Fraction(0),) * order, order)

    @classmethod
    def z_power(cls, power, order, coeff=1):
        """coeff * z^power, truncated (zero if power exceeds the order)."""
        coeffs = [Fraction(0)] * (order + 1)
        if 0 <= power <= order:
            coeffs[power] = _coerce(coeff)
        return cls(coeffs, order)

    # -- helpers ------------------------------------------------------------

    def _require_same_order(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def is_zero(self):
        return self.low_order() is None

    def __bool__(self):
        return self.low_order() is not None

    def low_order(self):
        """Index of the first nonzero coefficient, or None for the zero series."""
        if self._low == -2:
            self._low = next((i for i, c in enumerate(self.coeffs) if c), None)
        return self._low

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def divided_by_z(self):
        """Exact division by z; requires zero constant term, drops one order."""
        if self.coeffs[0] != 0:
            raise ValueError("division by z needs zero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by z")
        return TruncatedSeries(self.coeffs[1:], self.order - 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries._exact(tuple((a + b if b else a) if a else b
                                            for a, b in zip(self.coeffs, other.coeffs)),
                                      self.order)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries._exact(tuple((a - b if a else -b) if b else a
                                            for a, b in zip(self.coeffs, other.coeffs)),
                                      self.order)

    def __neg__(self):
        return TruncatedSeries._exact(tuple(-a if a else a for a in self.coeffs), self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            # only nonzero coefficients are visited, and adding to a zero slot
            # is a copy
            k = self.order
            out = [_ZERO] * (k + 1)
            nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in nonzero:
                        if i + j > k:
                            break
                        prev = out[i + j]
                        out[i + j] = prev + a * b if prev else a * b
            return TruncatedSeries._exact(tuple(out), k)
        if isinstance(other, float):
            return NotImplemented
        c = _coerce(other)
        return TruncatedSeries._exact(tuple(a * c if a else a for a in self.coeffs), self.order)

    def __rmul__(self, other):
        if isinstance(other, (TruncatedSeries, float)):
            return NotImplemented
        c = _coerce(other)
        return TruncatedSeries._exact(tuple(c * a if a else a for a in self.coeffs), self.order)

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
        if self.coeffs[0] == 0:
            raise ValueError("series inverse needs nonzero constant term")
        k = self.order
        b0 = _inv_scalar(self.coeffs[0])
        b = [b0] + [Fraction(0)] * k
        for n in range(1, k + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc = acc + self.coeffs[i] * b[n - i]
            b[n] = -b0 * acc
        return TruncatedSeries(b, k)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
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


# -- exp and sqrt over any ring truncated in z ------------------------------------
#
# x is a TruncatedSeries or a sparse sum with series coefficients: anything
# with .order, .low_order(), +, * (by itself and by a Fraction) and a truth
# value that is False exactly for zero. A strictly positive z order makes
# x^n vanish for n > order, so both sums are finite; they stop at the first
# vanishing power.


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
