"""Exact scalars: rational parsing and Gaussian rationals.

Every identity downstream is certified with residual exactly zero, so no
floating point is allowed anywhere in coefficient arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ComplexRational", "parse_rational", "parse_complex_rational"]


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

    A value, not a ring: the eigenproblem's betas and eigenvalue are parsed
    into it and its solved coefficients are returned in it, to be compared
    and printed. Series and operators are over Q; the eigenproblem splits
    each value into its parts ``re`` and ``im``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("ComplexRational parts must be exact rationals")
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

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
