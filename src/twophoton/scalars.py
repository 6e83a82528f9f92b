"""Exact scalars: rational parsing and Gaussian rationals.

Every identity downstream is certified with residual exactly zero, so no
floating point is allowed anywhere in coefficient arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ComplexRational", "parse_rational", "parse_complex_rational"]

_ZERO = Fraction(0)


def _rational(value, owner):
    """``value``, an int or a Fraction, as a Fraction; a float (its binary
    expansion) or another ring's scalar raises TypeError naming ``owner``,
    the class or function that takes it."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"{owner.__name__} takes int or Fraction scalars, not {type(value).__name__}")


def parse_rational(text):
    """Parse 'p' or 'p/q' into a Fraction, rejecting anything inexact."""
    if isinstance(text, float):
        raise ValueError(f"refusing float {text!r}; pass an exact rational")
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


class ComplexRational:
    """Gaussian rational a + b*i with exact Fraction parts.

    Interoperates with int and Fraction through the reflected operators, so
    mixed coefficient arithmetic inside series and operators stays exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("ComplexRational parts must be exact rationals")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _exact(cls, re, im):
        """Wrap parts that are already Fractions, without the validation."""
        z = object.__new__(cls)
        z.re, z.im = re, im
        return z

    @staticmethod
    def _coerce(other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, Fraction):
            return ComplexRational._exact(other, _ZERO)
        if isinstance(other, int):
            return ComplexRational._exact(Fraction(other), _ZERO)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational._exact(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational._exact(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational._exact(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        return ComplexRational._exact(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def reciprocal(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero ComplexRational")
        return ComplexRational._exact(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __neg__(self):
        return ComplexRational._exact(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}i" if self.im < 0 else f"+{self.im}i"
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{imag}"

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"


def parse_complex_rational(text):
    """Parse 'p/q', 'p/q+r/si', 'r/si', 'i', '-i' into a ComplexRational."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex rational")
    if not s.endswith("i"):
        return ComplexRational(parse_rational(s))
    body = s[:-1]
    # split at the last sign that is not the leading one
    split = max(body.rfind("+", 1), body.rfind("-", 1))
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return ComplexRational(parse_rational(re_part), parse_rational(im_part))
