"""Exact operator algebra in the space-time variables and the discrete-time
Schrodinger equation.

The time shift T is a first-class generator with the exact relations
T t = (t + 4z) T and T T^{-1} = 1; no series truncation happens here, so
every identity is certified with zero tolerance at a fixed rational z >= 0.
T and dt are algebraically independent: every commutation identity closes
without imposing T = e^{4z dt}, and only the function layer lets both act
on the same carriers. z = 0 is the classical limit, the undeformed
realization and the heat operator; z < 0 raises ValueError. Every scalar
that enters, z, coefficients and parameters alike, passes one coercion that
takes ints and Fractions only and raises TypeError on any other; the keys
of operators and functions hold int powers and exact rates, or raise
TypeError too. Operator composition sums int numerators over one
denominator per product, that of the shift's 4z included, and makes one
Fraction per term of the result.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, factorial, lcm
from operator import mul

from .algebra import SCH_CASIMIR, SCH_GENERATORS, SCH_RELATIONS
from .report import CheckResult, residual_entry
from .scalars import _rational
from .sparse import (SparseTerms, collect, linear_combination, monomial, render_sum,
                     solve_linear, weyl_terms)

__all__ = [
    "SchrodingerOperator", "ExpPolyFunction",
    "realize", "discrete_derivative", "casimir",
    "verify_realization", "symmetry_check", "symmetry_checks",
    "heat_polynomials", "exponential_solutions", "apply_and_recheck",
    "solution_checks", "regular_kappas", "sample_grid",
]


def _operator_key(key):
    """``key`` if it is (x, t, T, dx, dt) powers as ints, each but the T
    power nonnegative; any other key raises TypeError."""
    if type(key) is tuple and len(key) == 5:
        x, t, shift, dx, dt = key
        if (type(x) is int and type(t) is int and type(shift) is int and type(dx) is int
                and type(dt) is int and x >= 0 and t >= 0 and dx >= 0 and dt >= 0):
            return key
    raise TypeError(f"SchrodingerOperator keys are (x, t, T, dx, dt) powers as ints, "
                    f"T's alone possibly negative, not {key!r}")


_EXACT = frozenset((int, Fraction))


def _function_key(key):
    """``key`` if it is (x power, t power, kappa, omega, rho) with the powers
    nonnegative ints and the rates ints or Fractions; any other key raises
    TypeError."""
    if type(key) is tuple and len(key) == 5:
        a, b, kappa, omega, rho = key
        if (type(a) is int and type(b) is int and a >= 0 and b >= 0 and type(kappa) in _EXACT
                and type(omega) in _EXACT and type(rho) in _EXACT):
            return key
    raise TypeError(f"ExpPolyFunction keys are (x power, t power, kappa, omega, rho) with "
                    f"nonnegative int powers and int or Fraction rates, not {key!r}")


def _binomial_shift(b, delta):
    """(t + delta)^b = sum_i C(b,i) delta^(b-i) t^i, as (i, coefficient) pairs, zeros dropped."""
    pairs = ((i, comb(b, i) * delta ** (b - i)) for i in range(b + 1))
    return [(i, c) for i, c in pairs if c != 0]


def _numerators(terms):
    """[(key, numerator)] of a {key: Fraction} map over one denominator, the
    lcm of its denominators, and that lcm."""
    den = lcm(*(c.denominator for c in terms.values()))
    return [(key, c.numerator * (den // c.denominator)) for key, c in terms.items()], den


class SchrodingerOperator(SparseTerms):
    """Operator in x, t, dx, dt and the time shift T at fixed rational z.

    Canonical words are tuples (x_pow, t_pow, T_pow, dx_pow, dt_pow) with the
    T power a possibly negative integer; coefficients are exact rationals.
    """

    __slots__ = ("z",)

    def __init__(self, z, terms):
        self.z = _rational(z, SchrodingerOperator)
        super().__init__((self.z,), {_operator_key(key): _rational(c, SchrodingerOperator)
                                     for key, c in terms.items()})

    @classmethod
    def identity(cls, z):
        return cls(z, {(0, 0, 0, 0, 0): Fraction(1)})

    def __mul__(self, other):
        """Composition; dx^p1 past x^a2 and dt^q1 past t^b2 by the Weyl rule,
        then T^t1 past the surviving t powers, t -> t + 4z t1.

        Fraction-free. With z = u/v in lowest terms and b the largest t
        power of ``other``, each operand's coefficients are read as int
        numerators over the lcm of its denominators, and the product is one
        dict of int numerators keyed by the five powers over the two lcms
        times v^b. The Weyl coefficients of ``weyl_terms`` are ints, and on
        that denominator so is each term C(e, i) (4 u t1)^(e-i) v^(b-e+i) of
        the shift (t + 4z t1)^e; the terms of each (t1, e) are made once.
        One Fraction is made per key that does not cancel.
        """
        if not isinstance(other, SchrodingerOperator):
            # a scalar is checked first, so that another ring's scalar raises
            # naming this class, not from inside Fraction; scale refuses an element
            return self.scale(other if isinstance(other, SparseTerms)
                              else _rational(other, SchrodingerOperator))
        self._require_same(other)
        left, den_left = _numerators(self.terms)
        right, den_right = _numerators(other.terms)
        top = max((key[1] for key, _ in right), default=0)
        u, v = self.z.numerator, self.z.denominator
        shifts = {}
        acc = {}
        for (a1, b1, t1, p1, q1), x1 in left:
            for (a2, b2, t2, p2, q2), x2 in right:
                x = x1 * x2
                tau = t1 + t2
                for s, cs in weyl_terms(p1, a2):
                    a, p = a1 + a2 - s, p1 - s + p2
                    xs = x * cs
                    for r, cr in weyl_terms(q1, b2):
                        xr = xs * cr
                        q = q1 - r + q2
                        e = b2 - r
                        terms = shifts.get((t1, e))
                        if terms is None:
                            shifts[(t1, e)] = terms = [
                                (i, c * v ** (top - e + i))
                                for i, c in _binomial_shift(e, 4 * u * t1)]
                        for i, ci in terms:
                            key = (a, b1 + i, tau, p, q)
                            acc[key] = acc.get(key, 0) + xr * ci
        den = den_left * den_right * v ** top
        return self._holding(self.space, {key: Fraction(x, den) for key, x in acc.items() if x})

    def __rmul__(self, other):
        """A scalar times this operator, the scalar checked as ``__mul__`` checks it."""
        return self.scale(_rational(other, SchrodingerOperator))

    def apply(self, func):
        """Act on an ExpPolyFunction.

        The term x^a t^b T^tau dx^p dt^q maps func to x^a t^b times the
        image T^tau dx^p dt^q func, which is made once for each distinct
        (tau, p, q) of the operator's terms.
        """
        if func.z != self.z:
            raise ValueError(f"lattice step mismatch: z={self.z} vs {func.z}")
        images = {}

        def image(a, b, tau, p, q):
            img = images.get((tau, p, q))
            if img is None:
                img = func
                for _ in range(q):
                    img = img.ddt()
                for _ in range(p):
                    img = img.ddx()
                if tau:
                    img = img.shift(tau)
                images[(tau, p, q)] = img
            return img.mul_powers(a, b)

        return ExpPolyFunction._holding(func.space, linear_combination(
            (image(*key), c) for key, c in self.terms.items()))

    def __str__(self):
        return render_sum(self.terms, lambda key: monomial(*zip(("x", "t", "T", "dx", "dt"), key)))

    def __repr__(self):
        return f"<SchrodingerOperator z={self.z}: {self}>"


# -- realization -----------------------------------------------------------------


def _galilean(mass, z):
    """H, P and M at exact m and z >= 0: the same operators at every z."""
    m, z = _rational(mass, SchrodingerOperator), _rational(z, SchrodingerOperator)
    if z < 0:
        raise ValueError(f"the realization needs z >= 0 (z = 0 is classical), not z = {z}")
    return {"H": SchrodingerOperator(z, {(0, 0, 0, 0, 1): 1}),
            "P": SchrodingerOperator(z, {(0, 0, 0, 1, 0): 1}),
            "M": SchrodingerOperator(z, {(0, 0, 0, 0, 0): m})}


def realize(mass, rep_param, z):
    """The realized generator table {name: operator} at exact rational
    parameters; b = mass/2 - 2.

    H, P and M are the same at every z; at z > 0 the deformed K, D and C
    carry the shift T, and z = 0 gives the classical table.
    """
    ops = _galilean(mass, z)
    z = ops["H"].z
    m, a = _rational(mass, SchrodingerOperator), _rational(rep_param, SchrodingerOperator)
    b = m / 2 - 2
    if z:
        table = {
            "K": {(0, 1, 1, 1, 0): -1, (0, 0, 1, 1, 0): -4 * z, (1, 0, 0, 0, 0): -m},
            "D": {(0, 1, 1, 0, 0): Fraction(1, 2) / z,
                  (0, 1, 0, 0, 0): Fraction(-1, 2) / z,
                  (0, 0, 1, 0, 0): 2,
                  (0, 0, 0, 0, 0): -2 - a,
                  (1, 0, 0, 1, 0): 1},
            "C": {(0, 2, 1, 0, 0): Fraction(1, 4) / z,
                  (0, 2, 0, 0, 0): Fraction(-1, 4) / z,
                  (0, 1, 1, 0, 0): -b,
                  (1, 1, 0, 1, 0): 1,
                  (0, 1, 0, 0, 0): b - a,
                  (2, 0, 0, 0, 0): m / 2,
                  (0, 0, 1, 0, 0): -4 * z * (b + 1),
                  (2, 0, 0, 2, 0): -z,
                  (1, 0, 0, 1, 0): -2 * z * (b - a + Fraction(1, 2)),
                  (0, 0, 0, 0, 0): -z * (b - a) ** 2},
        }
    else:
        table = {
            "K": {(0, 1, 0, 1, 0): -1, (1, 0, 0, 0, 0): -m},
            "D": {(0, 1, 0, 0, 1): 2, (1, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0): -a},
            "C": {(0, 2, 0, 0, 1): 1, (1, 1, 0, 1, 0): 1,
                  (0, 1, 0, 0, 0): -a, (2, 0, 0, 0, 0): m / 2},
        }
    ops.update((gen, SchrodingerOperator(z, terms)) for gen, terms in table.items())
    return {gen: ops[gen] for gen in SCH_GENERATORS}


def discrete_derivative(z, direction="forward"):
    """(T - 1)/(4z) forward, (1 - T^{-1})/(4z) backward; dt in both
    directions at z = 0, the classical limit."""
    z = _rational(z, SchrodingerOperator)
    if z < 0:
        raise ValueError(
            f"the discrete derivative needs z >= 0 (z = 0 is classical), not z = {z}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if not z:
        return SchrodingerOperator(z, {(0, 0, 0, 0, 1): 1})
    c = Fraction(1, 4) / z
    if direction == "forward":
        return SchrodingerOperator(z, {(0, 0, 1, 0, 0): c, (0, 0, 0, 0, 0): -c})
    return SchrodingerOperator(z, {(0, 0, 0, 0, 0): c, (0, 0, -1, 0, 0): -c})


def _realized(row, ops):
    """One Schrodinger row (terms, exps) realized by the generators ops, at their z.

    A word is the product of its realized generators and z^p the rational
    z^p. At z > 0, e^{4jzH} is the shift T^j exactly, so an exponential row
    is T^j minus its terms below lo; any other rate raises. At z = 0 a row
    keeps its z^0 part.
    """
    terms, exps = row
    z = ops["H"].z
    parts = [([ops[g] for g in w], c * z ** p) for w, (p, c) in terms.items()]
    for scale, base, lo, zshift, suffix in exps:
        if base % 4:
            raise ValueError(f"e^({base}zH) is not a power of the shift T = e^(4zH)")
        # the term scale z^zshift (base zH)^n / n! suffix of the row's sum
        term = lambda n: ([ops[g] for g in ("H",) * n + suffix],
                          scale * base ** n * z ** (n + zshift) / factorial(n))
        if z:
            shift = SchrodingerOperator(z, {(0, 0, base // 4, 0, 0): 1})
            parts.append(([shift] + [ops[g] for g in suffix], scale * z ** zshift))
            parts.extend((w, -c) for w, c in map(term, range(lo)))
        elif -zshift >= lo:
            parts.append(term(-zshift))
    return SchrodingerOperator(z, linear_combination(
        (reduce(mul, factors) if factors else SchrodingerOperator.identity(z), c)
        for factors, c in parts if c))


def casimir(mass, z):
    """The equation operator: the row ``SCH_CASIMIR`` realized.

    At z > 0 it is dx^2 - 2m (1 - T^{-1})/(4z), dx^2 minus 2m times the
    backward discrete derivative; at z = 0 it is dx^2 - 2m dt.
    """
    return _realized(SCH_CASIMIR, _galilean(mass, z))


# -- bracket table verification ----------------------------------------------------


def _expected_brackets(ops):
    """The fifteen brackets [x, y], x before y in M, D, K, P, H, C (the order
    of the check names), as the Schrodinger relation rows realized."""
    rank = SCH_GENERATORS.index
    table = {}
    for x, y in combinations(("M", "D", "K", "P", "H", "C"), 2):
        key, sign = ((x, y), 1) if rank(x) > rank(y) else ((y, x), -1)
        table[(x, y)] = _realized(SCH_RELATIONS.get(key, ({}, ())), ops).scale(sign)
    return table


def _label_params(mass, rep_param, z):
    """A check's name label, classical at z = 0, and its {z, m, a} params."""
    m, a, z = (_rational(v, SchrodingerOperator) for v in (mass, rep_param, z))
    return "deformed" if z else "classical", {"z": str(z), "m": str(m), "a": str(a)}


def verify_realization(mass, rep_param, z):
    """All fifteen bracket identities of the realized table, exactly."""
    ops = realize(mass, rep_param, z)
    label, params = _label_params(mass, rep_param, z)
    entries = []
    for (x, y), want in sorted(_expected_brackets(ops).items()):
        entries.append(residual_entry(f"discrete-se/realization-{label}/[{x},{y}]",
                                      ops[x].commutator(ops[y]) - want, params))
    return entries


# -- symmetry analysis --------------------------------------------------------------


def symmetry_check(gen, mass, rep_param, z):
    """[E, S] must equal Lambda * E with Lambda in the span of {1, t, x dx}.

    Returns (entry, lambdas); a failed structural division reports the
    nonzero remainder, which is the expected outcome for C away from the
    symmetric representation value.
    """
    return _symmetry_entry(gen, casimir(mass, z), realize(mass, rep_param, z),
                           _label_params(mass, rep_param, z))


def _symmetry_entry(gen, ez, ops, labelled):
    """``symmetry_check`` of ops[gen] against the equation operator ez."""
    z = ez.z
    com = ez.commutator(ops[gen])
    # 1, t and x dx
    basis_ops = [SchrodingerOperator(z, {key: 1})
                 for key in ((0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 1, 0))]
    columns = [(b * ez).terms for b in basis_ops]
    sol, consistent = solve_linear(columns, com.terms)

    label, params = labelled
    name = f"discrete-se/symmetry-{label}/{gen}"
    lam = SchrodingerOperator(z, linear_combination(zip(basis_ops, sol)))
    if not consistent:
        remainder = com - lam * ez
        return CheckResult(name=name, passed=False, residual=str(remainder),
                           params=params), None
    entry = CheckResult(name=name, passed=True, residual="0",
                        params={**params, "lambda": str(lam)})
    return entry, tuple(sol)


def symmetry_checks(mass, rep_param, z):
    """Symmetry status of all six generators, with the expected Lambda values.

    K, H, P, M commute with the equation operator; D scales it by 2; C is a
    symmetry exactly at rep_param = -1/2, where Lambda = 2t + 2z(1 - m) -
    4z x dx, 2t at z = 0.
    """
    m, a, z = (_rational(v, SchrodingerOperator) for v in (mass, rep_param, z))
    zero = (Fraction(0),) * 3
    expected = {"K": zero, "H": zero, "P": zero, "M": zero,
                "D": (Fraction(2), Fraction(0), Fraction(0))}
    if a == Fraction(-1, 2):
        expected["C"] = (2 * z * (1 - m), Fraction(2), -4 * z)
    ez = casimir(m, z)
    ops = realize(m, a, z)
    labelled = _label_params(m, a, z)
    entries = []
    for gen in SCH_GENERATORS:
        entry, lams = _symmetry_entry(gen, ez, ops, labelled)
        want = expected.get(gen)
        if lams is not None and want is not None and lams != want:
            entry = CheckResult(name=entry.name, passed=False,
                                residual=f"unexpected Lambda {lams} != {want}",
                                params=entry.params)
        elif lams is not None and want is None:
            # divisibility away from the symmetric representation value would
            # invalidate the negative control; flag it loudly
            entry = CheckResult(name=entry.name, passed=False,
                                residual=f"unexpectedly divisible, Lambda = {lams}",
                                params=entry.params)
        entries.append(entry)
    return entries


# -- function layer -----------------------------------------------------------------


class ExpPolyFunction(SparseTerms):
    """Finite sum of c * x^a t^b e^{kx} Theta(w, r) terms at fixed z.

    The temporal factor Theta carries two independent exact attributes: dt
    multiplies by w, the shift T multiplies by r (and shifts polynomial t
    dependence). Discrete-equation solutions constrain only r and carry
    w = 0; classical solutions, at z = 0, carry r = 1.

    The constructor checks every key and coefficient. The derivatives, the
    shift, ``mul_powers`` and ``SchrodingerOperator.apply`` make their
    results from checked terms by exact arithmetic, so they hold them
    without a second check (``SparseTerms._holding``).
    """

    __slots__ = ("z",)

    def __init__(self, z, terms):
        self.z = _rational(z, ExpPolyFunction)
        super().__init__((self.z,), {_function_key(key): _rational(c, ExpPolyFunction)
                                     for key, c in terms.items()})

    @classmethod
    def from_monomials(cls, z, monomials):
        """Build a plain polynomial in x, t: {(x_pow, t_pow): c}."""
        one = Fraction(1)
        return cls(z, {(a, b, Fraction(0), Fraction(0), one): c
                       for (a, b), c in monomials.items()})

    @classmethod
    def exponential(cls, z, kappa, omega, rho, coeff=1):
        kappa, omega, rho = (_rational(v, cls) for v in (kappa, omega, rho))
        return cls(z, {(0, 0, kappa, omega, rho): coeff})

    def _derivative(self, var):
        """d/dx for var = 0, d/dt for var = 1.

        A key holds the variable's power at slot var and its exponential rate
        (kappa or w) at slot var + 2.
        """
        def pairs():
            for key, c in self.terms.items():
                power, rate = key[var], key[var + 2]
                if power:
                    yield key[:var] + (power - 1,) + key[var + 1:], c * power
                if rate:
                    yield key, c * rate

        return self._holding(self.space, collect(pairs()))

    def ddx(self):
        return self._derivative(0)

    def ddt(self):
        return self._derivative(1)

    def shift(self, steps=1):
        """T^steps for an int ``steps``: t -> t + 4 z steps on polynomial
        factors, times r^steps; a term with r = 0 vanishes forwards and
        raises backwards."""
        if type(steps) is not int:
            raise TypeError(f"shift takes an int number of steps, not {steps!r}")
        delta = 4 * self.z * steps

        def pairs():
            for (a, b, kap, w, r), c in self.terms.items():
                if r == 0 and steps < 0:
                    raise ValueError("step factor 0 cannot be shifted backwards")
                factor = c * Fraction(r) ** steps
                for i, ci in _binomial_shift(b, delta):
                    yield (a, i, kap, w, r), factor * ci

        return self._holding(self.space, collect(pairs()))

    def mul_powers(self, x_pow, t_pow):
        """x^x_pow t^t_pow times this function, the powers nonnegative ints."""
        if x_pow == 0 and t_pow == 0:
            return self
        if not (type(x_pow) is int and type(t_pow) is int and x_pow >= 0 and t_pow >= 0):
            raise TypeError(f"mul_powers takes nonnegative int powers, not {x_pow!r}, {t_pow!r}")
        return self._holding(self.space, {
            (a + x_pow, b + t_pow, kap, w, r): c
            for (a, b, kap, w, r), c in self.terms.items()})

    def __str__(self):
        def body(key):
            a, b, kap, w, r = key
            names = [monomial(("x", a), ("t", b)), f"exp({kap}x)" if kap else "",
                     f"exp[w={w}]" if w else "", f"step[{r}]" if r != 1 else ""]
            return "*".join(name for name in names if name)

        return render_sum(self.terms, body)

    def to_json_dict(self):
        return {
            "z": str(self.z),
            "terms": [
                {"x_pow": a, "t_pow": b, "kappa": str(kap), "omega": str(w),
                 "step": str(r), "coeff": str(c)}
                for (a, b, kap, w, r), c in sorted(self.terms.items())
            ],
        }


# -- exact solution families ----------------------------------------------------------


def _antiderivative(poly, z):
    """q with backward-difference (or d/dt at z = 0) derivative equal to poly."""
    if not poly:
        return {}
    d = max(poly)
    if z == 0:
        return {i + 1: c / (i + 1) for i, c in poly.items()}
    # q(t) - q(t - 4z) = 4z p(t) with q constant-free, solved top down
    q = {}
    z4 = 4 * z
    for j in range(d, -1, -1):
        acc = z4 * poly.get(j, Fraction(0))
        for i in range(j + 2, d + 2):
            qi = q.get(i, Fraction(0))
            if qi:
                acc += qi * comb(i, j) * (-z4) ** (i - j)
        q[j + 1] = acc / (z4 * (j + 1))
    return {i: c for i, c in q.items() if c != 0}


def heat_polynomials(mass, z, count):
    """The first ``count`` polynomial solutions (1, x, x^2 + t/m, ...).

    Built from the two-term recurrence between the coefficient polynomials of
    x^(n-2j) and certified against the equation operator before returning;
    at z = 0 they are the heat polynomials of dx^2 - 2m dt.
    """
    ez = casimir(mass, z)
    m = _rational(mass, SchrodingerOperator)
    out = []
    for n in range(count):
        q = {0: Fraction(1)}  # coefficient polynomial of x^n
        terms = {}
        j = 0
        while n - 2 * j >= 0:
            terms.update({(n - 2 * j, deg): c for deg, c in q.items()})
            power = n - 2 * j
            if power < 2:
                break
            scale = Fraction(power * (power - 1), 2) / m
            q = _antiderivative({deg: c * scale for deg, c in q.items()}, ez.z)
            j += 1
        phi = ExpPolyFunction.from_monomials(ez.z, terms)
        if not ez.apply(phi).is_zero():
            raise AssertionError(f"heat polynomial of degree {n} failed certification")
        out.append(phi)
    return out


def exponential_solutions(mass, z, kappas):
    """Spatial exponentials e^{kx}; the temporal factor gains rho per step.

    At z > 0, rho = 1/(1 - 2 z k^2 / m) and the dt attribute is zero; at
    z = 0 the factor is e^{w t} with w = k^2/(2m).
    """
    ez = casimir(mass, z)
    m, z = _rational(mass, SchrodingerOperator), ez.z
    out = []
    for kap in kappas:
        kap = _rational(kap, ExpPolyFunction)
        if z:
            denom = 1 - 2 * z * kap * kap / m
            if denom == 0:
                raise ValueError(f"kappa={kap} sits on the step-factor pole")
            phi = ExpPolyFunction.exponential(z, kap, 0, 1 / denom)
        else:
            phi = ExpPolyFunction.exponential(z, kap, kap * kap / (2 * m), 1)
        if not ez.apply(phi).is_zero():
            raise AssertionError(f"exponential solution kappa={kap} failed")
        out.append(phi)
    return out


def apply_and_recheck(gen, phi, mass, rep_param, tag=None):
    """Certify that the realized generator maps the solution to a solution,
    at the z that phi carries.

    ``tag`` names the solution in the check name. Its default is read off
    phi, which cannot tell the kappa = 0 exponential from the degree-0
    polynomial: both are the constant 1.
    """
    ez = casimir(mass, phi.z)
    if not ez.apply(phi).is_zero():
        raise ValueError("input function is not a solution of the equation")
    return _solution_map_entry(gen, phi, ez, realize(mass, rep_param, phi.z),
                               _label_params(mass, rep_param, phi.z), tag)


def _solution_map_entry(gen, phi, ez, ops, labelled, tag):
    """The residual ez(ops[gen](phi)) of a certified solution phi of ez."""
    label, params = labelled
    return residual_entry(
        f"discrete-se/solution-map-{label}/{gen}/{tag or _phi_tag(phi)}",
        ez.apply(ops[gen].apply(phi)), params)


def _phi_tag(phi):
    """Short deterministic tag for a solution, used in check names."""
    if not phi.terms:
        return "zero"
    kappas = {kap for (_, _, kap, _, _) in phi.terms}
    if kappas != {Fraction(0)}:
        kap = max(kappas)
        return f"exp(k={kap})"
    degree = max(a + b for (a, b, _, _, _) in phi.terms)
    return f"poly(deg={degree})"


def regular_kappas(mass, z, kappas):
    """The kappas, as Fractions, off the step-factor pole 1 - 2 z kappa^2 / m = 0."""
    m, z = _rational(mass, SchrodingerOperator), _rational(z, SchrodingerOperator)
    kappas = [_rational(kap, ExpPolyFunction) for kap in kappas]
    return [kap for kap in kappas if 1 - 2 * z * kap ** 2 / m != 0]


def solution_checks(mass, rep_param, z, n_poly=5, kappas=(0, 1, 2)):
    """Certified solution families plus their images under all six generators.

    Each solution is named by its family: the kappa = 0 exponential is the
    constant 1, as is the degree-0 heat polynomial, and its name must differ.
    """
    entries = []
    labelled = _label_params(mass, rep_param, z)
    label, params = labelled
    usable = regular_kappas(mass, z, kappas)
    # both families are certified as they are built
    polys = heat_polynomials(mass, z, n_poly)
    exps = exponential_solutions(mass, z, usable)
    ez = casimir(mass, z)
    ops = realize(mass, rep_param, z)
    tagged = ([(_phi_tag(phi), phi) for phi in polys]
              + [(f"exp(k={kap})", phi) for kap, phi in zip(usable, exps)])
    for tag, phi in tagged:
        entries.append(CheckResult(
            name=f"discrete-se/solution-{label}/{tag}",
            passed=True, residual="0",
            params={**params, "solution": json.dumps(phi.to_json_dict(),
                                                     sort_keys=True)}))
        entries.extend(_solution_map_entry(gen, phi, ez, ops, labelled, tag)
                       for gen in SCH_GENERATORS)
    return entries


def sample_grid(phi, xs, t0, steps):
    """Float samples on the lattice t0 + 4zn for external plotting only.

    The step factor r applies once per lattice step from t = 0, so t0 must
    lie on the lattice; a classical solution (z = 0) has r = 1 everywhere.
    """
    import math

    z = phi.z
    t0 = _rational(t0, ExpPolyFunction)
    start = t0 / (4 * z) if z else Fraction(0)
    if start.denominator != 1:
        raise ValueError(f"t0={t0} is not on the time lattice 4z*n with z={z}")
    rows = []
    for n in range(steps):
        t = t0 + 4 * z * n
        for x in xs:
            val = 0.0
            for (a, b, kap, w, r), c in phi.terms.items():
                term = float(c) * float(x) ** a * float(t) ** b
                if kap:
                    term *= math.exp(float(kap) * float(x))
                if w:
                    term *= math.exp(float(w) * float(t))
                if r != 1:
                    term *= float(r) ** (start.numerator + n)
                val += term
            rows.append((float(x), float(t), val))
    return rows
