"""Independent sympy oracles for the operator products and the lattice solutions.

Each test rebuilds the object as a sympy expression and lets sympy do the
calculus, so a wrong Weyl reordering, binomial shift or solution family
shows up here even when the engine agrees with itself. Skipped when sympy
is not installed.
"""

import random
from fractions import Fraction

import pytest

from twophoton.bargmann import DiffOperator, deformed_rep
from twophoton.discrete import (ExpPolyFunction, exponential_solutions,
                                heat_polynomials, regular_kappas)
from twophoton.series import TruncatedSeries

sp = pytest.importorskip("sympy")

ORDER = 2
alpha, x, t, z = sp.symbols("alpha x t z")


def _q(c):
    return sp.Rational(c.numerator, c.denominator)


def _series_expr(s):
    return sum(_q(c) * z ** i for i, c in enumerate(s.coeffs))


def _apply_diffop(op, f):
    """sum c_jl(z) alpha^j d^l f, by sympy differentiation."""
    return sum(_series_expr(s) * alpha ** j * sp.diff(f, alpha, l)
               for (j, l), s in op.terms.items())


def _truncate_z(expr, order):
    poly = sp.Poly(sp.expand(expr), z)
    return sum(c * z ** m for (m,), c in poly.terms() if m <= order)


def _random_diffop(rng):
    terms = {}
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ORDER + 1)]
        terms[(rng.randrange(4), rng.randrange(4))] = TruncatedSeries(coeffs)
    return DiffOperator(ORDER, terms)


def test_diffop_composition_matches_sympy_on_monomials():
    rng = random.Random(5)
    for _ in range(6):
        a, b = _random_diffop(rng), _random_diffop(rng)
        ab = a * b
        for n in range(6):
            f = alpha ** n
            want = _truncate_z(_apply_diffop(a, _apply_diffop(b, f)), ORDER)
            assert sp.expand(_apply_diffop(ab, f) - want) == 0
            image = ab.apply_to_polynomial({n: Fraction(1)})
            got = sum(_series_expr(s) * alpha ** m for m, s in image.items())
            assert sp.expand(got - want) == 0


# the closed forms of the deformed one-boson realization, each generator a
# {derivative order l: multiplication factor} map acting by sum_l c_l d^l;
# a positive alpha lets sympy take sqrt(alpha^2) = alpha in the radical
_A = sp.Symbol("a", positive=True)
_E = sp.exp(2 * z * _A ** 2)
_ROOT = sp.sqrt((1 - 1 / _E) / (2 * z))
_CLOSED_FORMS = {
    "N": {1: (_E - 1) / (2 * z * _A)},
    "A+": {0: _ROOT},
    "A-": {1: _E * _ROOT / _A},
    "B-": {2: (_E - 1) / (2 * z * _A ** 2),
           1: (_E * _A ** 2 - (_E - 1) / (2 * z)) / _A ** 3},
}


@pytest.mark.parametrize("gen", sorted(_CLOSED_FORMS))
def test_deformed_rep_matches_its_closed_forms(gen):
    # sympy expands each closed-form factor in z to z^5; the engine's
    # realization is the classical table in w and d/dw, which never sees
    # these forms, so they are the one copy of the paper's formulas
    order = 5
    factors = {l: sp.series(c, z, 0, order + 1).removeO().subs(_A, alpha)
               for l, c in _CLOSED_FORMS[gen].items()}
    op = deformed_rep(order)[gen]
    for n in range(6):
        f = alpha ** n
        want = sum(c * sp.diff(f, alpha, l) for l, c in factors.items())
        assert sp.expand(_apply_diffop(op, f) - want) == 0, (gen, n)


def _sparse_series(rng, order, head):
    """head + a random series in z with zero slots, as a TruncatedSeries."""
    coeffs = [Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)) if rng.random() < 0.5
              else Fraction(0) for _ in range(order + 1)]
    coeffs[0] = Fraction(head)
    return TruncatedSeries(coeffs)


@pytest.mark.parametrize("order", [1, 3, 5])
def test_series_exp_sqrt_inverse_match_sympy(order):
    # exp, sqrt and inverse are sums of powers built with + and scalar *,
    # which skip zero slots; sympy expands the same functions in z
    rng = random.Random(order)
    for _ in range(4):
        nil = _sparse_series(rng, order, 0)
        unit = _sparse_series(rng, order, 1)
        head = _sparse_series(rng, order, rng.choice((-2, Fraction(1, 3), 5)))
        for s, f, got in ((nil, sp.exp, nil.exp()), (unit, sp.sqrt, unit.sqrt()),
                          (head, lambda e: 1 / e, head.inverse())):
            want = sp.series(f(_series_expr(s)), z, 0, order + 1).removeO()
            assert sp.expand(_series_expr(got) - want) == 0, (s, f)


def _lattice_step(z_value):
    """r^(t/(4z)): the step factor as a function that T^n multiplies by r^n."""
    return lambda r: _q(r) ** (t / (4 * _q(z_value)))


def _formal_step(r):
    """The step factor as a constant, so that dt sees only e^{w t}."""
    return sp.Symbol(f"step[{r}]")


def _function_expr(phi, step):
    """sum c x^a t^b e^{kappa x} e^{w t} step(r) over the terms."""
    return sum(_q(c) * x ** a * t ** b * sp.exp(_q(kap) * x + _q(w) * t) * step(r)
               for (a, b, kap, w, r), c in phi.terms.items())


def _vanishes(expr):
    return sp.simplify(sp.powsimp(sp.expand(expr), force=True)) == 0


def _random_function(rng, z_value, omegas):
    terms = {}
    for _ in range(4):
        key = (rng.randrange(3), rng.randrange(3), Fraction(rng.randint(-1, 2)),
               Fraction(rng.choice(omegas)), Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))))
        terms[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return ExpPolyFunction(z_value, terms)


def test_exppoly_derivatives_match_sympy():
    rng = random.Random(8)
    for _ in range(6):
        phi = _random_function(rng, Fraction(1, 10), omegas=(0, 1, -2))
        f = _function_expr(phi, _formal_step)
        assert _vanishes(_function_expr(phi.ddx(), _formal_step) - sp.diff(f, x))
        assert _vanishes(_function_expr(phi.ddt(), _formal_step) - sp.diff(f, t))


def test_exppoly_shift_matches_sympy():
    rng = random.Random(9)
    z_value = Fraction(1, 6)
    step = _lattice_step(z_value)
    for _ in range(6):
        # the shift is e^{4 z w}-blind: discrete-equation functions carry w = 0
        phi = _random_function(rng, z_value, omegas=(0,))
        f = _function_expr(phi, step)
        for steps in (1, -1, 2):
            want = f.subs(t, t + 4 * _q(z_value) * steps)
            assert _vanishes(_function_expr(phi.shift(steps), step) - want)


@pytest.mark.parametrize("mass,z_value", [(Fraction(1), Fraction(1, 10)),
                                          (Fraction(2), Fraction(1, 4))])
def test_lattice_solutions_solve_the_discrete_equation(mass, z_value):
    """(dx^2 - 2m D_t^-) phi = 0 with D_t^- phi = (phi(t) - phi(t - 4z)) / (4z)."""
    h = 4 * _q(z_value)
    kappas = regular_kappas(mass, z_value, [0, 1, 2, Fraction(-1, 2)])
    sols = heat_polynomials(mass, z_value, 5) + exponential_solutions(mass, z_value, kappas)
    for phi in sols:
        f = _function_expr(phi, _lattice_step(z_value))
        backward = (f - f.subs(t, t - h)) / h
        assert _vanishes(sp.diff(f, x, 2) - 2 * _q(mass) * backward), str(phi)
