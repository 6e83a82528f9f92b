import random
from fractions import Fraction
from math import comb

import pytest

from twophoton import algebra, cli, discrete, hopf
from twophoton.algebra import SCH_CASIMIR, SCH_GENERATORS, SCH_RELATIONS, schrodinger_algebra
from twophoton.discrete import (ExpPolyFunction, SchrodingerOperator,
                                apply_and_recheck, casimir,
                                discrete_derivative, exponential_solutions,
                                heat_polynomials, realize, regular_kappas, sample_grid,
                                solution_checks, symmetry_check,
                                symmetry_checks, verify_realization)
from twophoton.scalars import ComplexRational
from twophoton.series import TruncatedSeries
from twophoton.sparse import collect, linear_combination, weyl_terms

Z = Fraction(1, 10)
M = Fraction(1)
A = Fraction(-1, 2)

PARAM_MATRIX = [(z, m, a)
                for z in (Fraction(1, 10), Fraction(1, 4))
                for m in (Fraction(1), Fraction(2))
                for a in (Fraction(-1, 2), Fraction(0))]


def basis_op(z, key):
    return SchrodingerOperator(z, {key: Fraction(1)})


def test_canonicalization_confluent_on_random_words():
    # multiply the same word with different association orders
    rng = random.Random(21)
    letters = [
        (1, 0, 0, 0, 0),   # x
        (0, 1, 0, 0, 0),   # t
        (0, 0, 1, 0, 0),   # T
        (0, 0, -1, 0, 0),  # T^{-1}
        (0, 0, 0, 1, 0),   # dx
        (0, 0, 0, 0, 1),   # dt
    ]
    for _ in range(20):
        word = [basis_op(Z, rng.choice(letters)) for _ in range(rng.randint(2, 8))]
        left = word[0]
        for w in word[1:]:
            left = left * w
        right = word[-1]
        for w in reversed(word[:-1]):
            right = w * right
        assert left == right


def _collect_composition(x, y):
    """The composition as it was before the int numerators, kept as the
    reference for ``SchrodingerOperator.__mul__``: every Weyl and shift term
    of every pair of terms is one Fraction product, and ``collect`` sums
    them."""
    z4 = 4 * x.z

    def pairs():
        for (a1, b1, t1, p1, q1), c1 in x.terms.items():
            for (a2, b2, t2, p2, q2), c2 in y.terms.items():
                for s, cs in weyl_terms(p1, a2):
                    for r, cr in weyl_terms(q1, b2):
                        for i, ci in discrete._binomial_shift(b2 - r, z4 * t1):
                            yield ((a1 + a2 - s, b1 + i, t1 + t2, p1 - s + p2, q1 - r + q2),
                                   c1 * c2 * cs * cr * ci)

    return collect(pairs())


def _random_spacetime_operator(rng, z):
    """Up to five terms with T powers in -2..2, t powers up to 4 and
    coefficients whose denominators differ."""
    return SchrodingerOperator(z, {
        (rng.randint(0, 2), rng.randint(0, 4), rng.randint(-2, 2), rng.randint(0, 2),
         rng.randint(0, 2)): Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))
        for _ in range(rng.randint(0, 5))})


@pytest.mark.parametrize("z", [Fraction(0), Fraction(1, 10), Fraction(7, 3)])
def test_composition_matches_the_collect_reference(z):
    rng = random.Random(str(z))
    mass = Fraction(-5, 3)
    ops = list(realize(mass, A, z).values()) + [casimir(mass, z), discrete_derivative(z)]
    randoms = [_random_spacetime_operator(rng, z) for _ in range(40)]
    pairs = [(x, y) for x in ops for y in ops]
    pairs += [(rng.choice(ops + randoms), rng.choice(randoms)) for _ in range(60)]
    pairs += [(x, y) for x, y in zip(randoms, reversed(randoms))]
    for x, y in pairs:
        got = x * y
        want = _collect_composition(x, y)
        assert got.terms == want
        assert all(type(c) is Fraction and c for c in got.terms.values())


def test_shift_relations():
    t = basis_op(Z, (0, 1, 0, 0, 0))
    T = basis_op(Z, (0, 0, 1, 0, 0))
    Tinv = basis_op(Z, (0, 0, -1, 0, 0))
    # T t = (t + 4z) T
    assert T * t == (t + SchrodingerOperator(Z, {(0, 0, 0, 0, 0): 4 * Z})) * T
    assert Tinv * t == (t - SchrodingerOperator(Z, {(0, 0, 0, 0, 0): 4 * Z})) * Tinv
    assert T * Tinv == SchrodingerOperator.identity(Z)
    dt = basis_op(Z, (0, 0, 0, 0, 1))
    assert (dt * t - t * dt) == SchrodingerOperator.identity(Z)
    # dt and T are independent generators: they commute as operators
    assert (dt * T) == (T * dt)


def test_realize_examples():
    ops = realize(M, A, Z)
    assert ops["H"] == basis_op(Z, (0, 0, 0, 0, 1))
    assert ops["P"] == basis_op(Z, (0, 0, 0, 1, 0))
    assert ops["M"] == SchrodingerOperator(Z, {(0, 0, 0, 0, 0): M})
    assert ops["K"] == SchrodingerOperator(Z, {
        (0, 1, 1, 1, 0): -1, (0, 0, 1, 1, 0): -4 * Z, (1, 0, 0, 0, 0): -M})
    assert ops["D"] == SchrodingerOperator(Z, {
        (0, 1, 1, 0, 0): Fraction(1, 2) / Z, (0, 1, 0, 0, 0): -Fraction(1, 2) / Z,
        (0, 0, 1, 0, 0): 2, (0, 0, 0, 0, 0): -2 - A, (1, 0, 0, 1, 0): 1})


def _transcribed_realization(mass, rep_param, z):
    """K, D and C transcribed by hand as two tables, the deformed one in T
    and the classical one in dt, apart from the one lattice table that
    realize reads; b = m/2 - 2."""
    m, a, z = Fraction(mass), Fraction(rep_param), Fraction(z)
    b = m / 2 - 2
    if z:
        table = {
            "K": {(0, 1, 1, 1, 0): -1, (0, 0, 1, 1, 0): -4 * z, (1, 0, 0, 0, 0): -m},
            "D": {(0, 1, 1, 0, 0): Fraction(1, 2) / z, (0, 1, 0, 0, 0): Fraction(-1, 2) / z,
                  (0, 0, 1, 0, 0): 2, (0, 0, 0, 0, 0): -2 - a, (1, 0, 0, 1, 0): 1},
            "C": {(0, 2, 1, 0, 0): Fraction(1, 4) / z, (0, 2, 0, 0, 0): Fraction(-1, 4) / z,
                  (0, 1, 1, 0, 0): -b, (1, 1, 0, 1, 0): 1, (0, 1, 0, 0, 0): b - a,
                  (2, 0, 0, 0, 0): m / 2, (0, 0, 1, 0, 0): -4 * z * (b + 1),
                  (2, 0, 0, 2, 0): -z, (1, 0, 0, 1, 0): -2 * z * (b - a + Fraction(1, 2)),
                  (0, 0, 0, 0, 0): -z * (b - a) ** 2},
        }
    else:
        table = {
            "K": {(0, 1, 0, 1, 0): -1, (1, 0, 0, 0, 0): -m},
            "D": {(0, 1, 0, 0, 1): 2, (1, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0): -a},
            "C": {(0, 2, 0, 0, 1): 1, (1, 1, 0, 1, 0): 1,
                  (0, 1, 0, 0, 0): -a, (2, 0, 0, 0, 0): m / 2},
        }
    return {gen: SchrodingerOperator(z, terms) for gen, terms in table.items()}


def test_realize_is_the_transcribed_deformed_and_classical_tables():
    points = [(m, a, z) for z, m, a in PARAM_MATRIX]
    points += [(Fraction(3), Fraction(2, 7), Fraction(7, 3)), (Fraction(5, 2), Fraction(0), 100),
               (Fraction(-5, 3), Fraction(7, 2), 9), (0, 0, Fraction(1, 10))]
    for m, a, z in points:
        for step in (z, 0):
            ops = realize(m, a, step)
            want = _transcribed_realization(m, a, step)
            assert {gen: ops[gen] for gen in want} == want, (m, a, step)


def _transcribed_difference(z, direction):
    """The discrete derivative's two quotients transcribed by hand, and dt at z = 0."""
    z = Fraction(z)
    if not z:
        return SchrodingerOperator(z, {(0, 0, 0, 0, 1): 1})
    c = Fraction(1, 4) / z
    if direction == "forward":
        return SchrodingerOperator(z, {(0, 0, 1, 0, 0): c, (0, 0, 0, 0, 0): -c})
    return SchrodingerOperator(z, {(0, 0, 0, 0, 0): c, (0, 0, -1, 0, 0): -c})


def test_discrete_derivative_is_the_transcribed_quotient():
    for z in (0, Fraction(1, 10), Fraction(1, 4), Fraction(7, 3), 9, 100):
        for direction in ("forward", "backward"):
            assert discrete_derivative(z, direction) == _transcribed_difference(z, direction)


def _two_branch_antiderivative(poly, z):
    """The antiderivative as two branches: the integral at z = 0, and at
    z > 0 q(t) - q(t - 4z) = 4z p(t) solved top down with the division by
    4z left to the end of each step."""
    if not poly:
        return {}
    d = max(poly)
    if z == 0:
        return {i + 1: c / (i + 1) for i, c in poly.items()}
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


def test_antiderivative_is_the_two_branch_reference():
    rng = random.Random(39)
    for z in (Fraction(0), Fraction(1, 10), Fraction(7, 3), Fraction(100)):
        for _ in range(200):
            poly = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for j in rng.sample(range(7), rng.randint(0, 5))}
            want = {i: c for i, c in _two_branch_antiderivative(poly, z).items() if c}
            assert discrete._antiderivative(poly, z) == want, (poly, z)


def test_solution_families_need_a_nonzero_mass():
    # the families divide by m; a mass of 0 raised ZeroDivisionError from Fraction
    for z in (Z, 0):
        for call in (lambda: heat_polynomials(0, z, 3), lambda: heat_polynomials(0, z, 1),
                     lambda: exponential_solutions(0, z, [1]),
                     lambda: regular_kappas(Fraction(0), z, [1]),
                     lambda: solution_checks(0, A, z)):
            with pytest.raises(ValueError, match="nonzero mass, not m = 0"):
                call()
        # the realization, the equation operator and the symmetries take m = 0
        assert realize(0, A, z)["M"].is_zero()
        assert casimir(0, z) == basis_op(z, (0, 0, 0, 2, 0))
        assert all(e.passed for e in verify_realization(0, A, z))
        assert len(symmetry_checks(0, A, z)) == 6


def test_realize_tables_hold_the_six_generators():
    for ops in (realize(M, A, Z), realize(M, A, 0)):
        assert sorted(ops) == sorted(("H", "D", "M", "P", "K", "C"))
        with pytest.raises(KeyError):
            ops["N"]


def test_realization_brackets_over_matrix():
    for z, m, a in PARAM_MATRIX:
        for entry in verify_realization(m, a, z):
            assert entry.passed, (entry.name, z, m, a, entry.residual)
    for entry in verify_realization(M, A, 0):
        assert entry.passed, entry.name


def _transcribed_brackets(ops, mass):
    """The realized commutator table transcribed by hand, apart from the
    Schrodinger relation rows that the discrete layer derives it from;
    series in H enter exactly through T, and z = 0 is classical."""
    m = Fraction(mass)
    z = ops["H"].z
    zero = SchrodingerOperator(z, {})
    one = SchrodingerOperator.identity(z)
    H, D, M, P, K, C = (ops[g] for g in SCH_GENERATORS)
    if not z:
        table = {
            ("D", "H"): H.scale(-2), ("D", "P"): -P, ("D", "K"): K,
            ("D", "C"): C.scale(2), ("H", "C"): D, ("K", "H"): P,
            ("K", "P"): M, ("K", "C"): zero, ("P", "H"): zero, ("P", "C"): -K,
        }
    else:
        shift = SchrodingerOperator(z, {(0, 0, 1, 0, 0): 1})
        one_minus_T = one - shift
        d_plus_half_m = D + M.scale(Fraction(1, 2))
        table = {
            ("D", "H"): one_minus_T.scale(Fraction(1, 2) / z),
            ("D", "P"): -P,
            ("D", "K"): K,
            ("D", "C"): C.scale(2) + (d_plus_half_m * d_plus_half_m).scale(2 * z),
            ("H", "C"): D + one_minus_T.scale(m / 2),
            ("K", "H"): shift * P,
            ("K", "P"): M,
            ("K", "C"): (D * K + K * D + K * M).scale(z),
            ("P", "H"): zero,
            ("P", "C"): -K - (D * P + P * D + P * M).scale(z),
        }
    for g in SCH_GENERATORS:
        if g != "M":
            table[("M", g)] = zero
    return table


def test_derived_brackets_match_the_transcribed_table():
    points = [(Fraction(1), Fraction(-1, 2), Fraction(1, 10)),
              (Fraction(3), Fraction(0), Fraction(2, 7)),
              (Fraction(-5, 3), Fraction(7, 2), Fraction(9))]
    points += [(m, a, z) for z, m, a in PARAM_MATRIX]
    for m, a, z in points:
        for step in (z, 0):
            ops = realize(m, a, step)
            derived = discrete._expected_brackets(ops)
            assert len(derived) == 15
            assert derived == _transcribed_brackets(ops, m), (m, a, step)


def test_only_the_shift_realizes_an_exponential_row(monkeypatch):
    # e^{2zH} is no power of T = e^{4zH}: the row raises, it is not skipped
    monkeypatch.setitem(SCH_RELATIONS, ("K", "H"), ({}, ((1, 2, 0, 0, ("P",)),)))
    with pytest.raises(ValueError, match="shift"):
        verify_realization(M, A, Z)


def _failed(entries):
    return sum(not e.passed for e in entries)


def test_realization_checks_see_every_relation_coefficient(monkeypatch):
    # +1 on each polynomial coefficient and on each exponential scale of the
    # Schrodinger relation rows, one at a time; a z^0 coefficient must fail
    # a classical entry too, and any other must leave them all passing
    mutations = []
    for key, (terms, exps) in SCH_RELATIONS.items():
        for w, (p, c) in terms.items():
            mutations.append((key, ({**terms, w: (p, c + 1)}, exps), p == 0))
        for i, (scale, base, lo, zshift, suffix) in enumerate(exps):
            bumped = exps[:i] + ((scale + 1, base, lo, zshift, suffix),) + exps[i + 1:]
            mutations.append((key, (terms, bumped), lo + zshift <= 0))
    assert (len(mutations), sum(z0 for *_, z0 in mutations)) == (18, 8)
    assert _failed(verify_realization(M, A, Z)) == 0
    assert _failed(verify_realization(M, A, 0)) == 0
    for key, row, z0 in mutations:
        with monkeypatch.context() as patch:
            patch.setitem(SCH_RELATIONS, key, row)
            assert _failed(verify_realization(M, A, Z)) >= 1, (key, row)
            classical = _failed(verify_realization(M, A, 0))
            assert (classical >= 1) == z0, (key, row, classical)


def test_discrete_group_catches_every_realize_coefficient(monkeypatch):
    # +1 on each coefficient of the realized generators at the defaults
    # z = 1/10, m = 1, a = -1/2 fails at least one discrete-se entry
    parser = cli.build_parser()
    cfg = cli.parse_config(parser.parse_args(["--checks", "discrete-se", "--order", "2"]),
                           parser)
    assert _failed(cli.run_discrete(cfg)) == 0
    original = discrete.realize
    caught = {}
    # mode True mutates the classical table, the one realized at z = 0
    for mode in (False, True):
        for gen, op in original(M, A, 0 if mode else Z).items():
            for key in op.terms:
                def mutated(mass, rep_param, z, gen=gen, key=key, mode=mode):
                    ops = original(mass, rep_param, z)
                    if (z == 0) == mode:
                        ops[gen] = ops[gen] + SchrodingerOperator(ops[gen].z, {key: 1})
                    return ops

                monkeypatch.setattr(discrete, "realize", mutated)
                caught[(mode, gen, key)] = _failed(cli.run_discrete(cfg))
    assert (len(caught), sum(mode for mode, *_ in caught)) == (33, 12)
    assert min(caught.values()) >= 1, {site: n for site, n in caught.items() if not n}
    # the weakest sites: the constant terms of the deformed C and of the
    # classical D, and the classical M, are each caught by one entry
    constant = (0, 0, 0, 0, 0)
    assert sorted(site for site, n in caught.items() if n == 1) == [
        (False, "C", constant), (True, "D", constant), (True, "M", constant)]


def test_discrete_derivative_examples():
    fwd = discrete_derivative(Z, "forward")
    t = ExpPolyFunction.from_monomials(Z, {(0, 1): 1})
    t2 = ExpPolyFunction.from_monomials(Z, {(0, 2): 1})
    one = ExpPolyFunction.from_monomials(Z, {(0, 0): 1})
    assert fwd.apply(t) == one
    # ((t+4z)^2 - t^2)/(4z) = 2t + 4z
    assert fwd.apply(t2) == ExpPolyFunction.from_monomials(
        Z, {(0, 1): 2, (0, 0): 4 * Z})
    bwd = discrete_derivative(Z, "backward")
    assert bwd.apply(one).is_zero()
    with pytest.raises(ValueError):
        discrete_derivative(Z, "sideways")
    # z = 0 is the classical limit: both differences become dt, which the
    # classical Casimir dx^2 - 2m dt carries
    dt = SchrodingerOperator(0, {(0, 0, 0, 0, 1): 1})
    assert discrete_derivative(0) == discrete_derivative(0, "backward") == dt
    assert casimir(M, 0) == basis_op(0, (0, 0, 0, 2, 0)) - 2 * M * dt
    assert discrete_derivative(0).apply(ExpPolyFunction.from_monomials(0, {(0, 2): 1})) == \
        ExpPolyFunction.from_monomials(0, {(0, 1): 2})
    for z in (-1, Fraction(-1, 10)):
        with pytest.raises(ValueError, match="z >= 0"):
            discrete_derivative(z)
    with pytest.raises(ValueError, match="unknown direction"):
        discrete_derivative(0, "sideways")


def test_keys_hold_int_powers_and_exact_rates():
    # a float rate or exponent used to be stored, printed and serialized
    # (exp(0.5x), T^0.5); only a later derivative, shift or product raised
    for key in ((0, 0, 0.5, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0, 0), ("x", 0, 0, 0, 0),
                (0, Fraction(1), 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 0, 0, -1),
                (True, 0, 0, 0, 0)):
        with pytest.raises(TypeError, match="SchrodingerOperator keys"):
            SchrodingerOperator(Z, {key: 1})
    for key in ((0, 0, 0.5, 0, 1), (0, 0, 0, 0.0, 1), (0, 0, 0, 0, 1.0), (0.0, 0, 0, 0, 1),
                (0, -1, 0, 0, 1), (0, 0, ComplexRational(1, 1), 0, 1), (0, 0, 0, 1)):
        with pytest.raises(TypeError, match="ExpPolyFunction keys"):
            ExpPolyFunction(Z, {key: 1})
    # the T power alone may be negative, and a rate is an int or a Fraction
    assert SchrodingerOperator(Z, {(0, 0, -2, 0, 0): 1}).terms == {(0, 0, -2, 0, 0): 1}
    phi = ExpPolyFunction(Z, {(1, 0, Fraction(1, 2), 0, 1): 1})
    assert phi == ExpPolyFunction.exponential(Z, Fraction(1, 2), 0, 1).mul_powers(1, 0)
    assert str(phi) == "(1)*x*exp(1/2x)"


def test_derived_functions_keep_the_checks_of_the_public_constructor():
    # derivatives, shifts and products hold their terms unchecked; the
    # constructor still refuses a bad key, a float rate or a float coefficient
    for key in ((0, 0, 0.5, 0, 1), (0, 0, 0, 0.5, 1), (0, 0, 0, 0, 0.5), (-1, 0, 0, 0, 1)):
        with pytest.raises(TypeError, match="ExpPolyFunction keys"):
            ExpPolyFunction(Z, {key: 1})
    with pytest.raises(TypeError, match="ExpPolyFunction takes int or Fraction"):
        ExpPolyFunction(Z, {(0, 0, 0, 0, 1): 0.5})
    # a held result has exact coefficients and valid keys, an int rate included
    phi = ExpPolyFunction(Z, {(2, 3, 1, 0, 2): 3, (0, 1, Fraction(1, 2), 0, Fraction(1, 3)): 1})
    for derived in (phi.ddx(), phi.ddt(), phi.shift(2), phi.shift(-1), phi.mul_powers(1, 2)):
        assert derived == ExpPolyFunction(Z, derived.terms)
        assert all(type(c) is Fraction for c in derived.terms.values())
    assert phi.shift(-1).shift(1) == phi
    for bad in (lambda: phi.shift(0.5), lambda: phi.shift(Fraction(1, 2)),
                lambda: phi.mul_powers(-1, 0), lambda: phi.mul_powers(0, 0.5)):
        with pytest.raises(TypeError):
            bad()


def _reference_derivative(func, var):
    """d/dx (var = 0) or d/dt (var = 1) as it was before the int numerators,
    kept as the reference of ``ddx`` and ``ddt``: one Fraction product per
    term, summed by ``collect``."""
    def pairs():
        for key, c in func.terms.items():
            power, rate = key[var], key[var + 2]
            if power:
                yield key[:var] + (power - 1,) + key[var + 1:], c * power
            if rate:
                yield key, c * rate

    return ExpPolyFunction(func.z, collect(pairs()))


def _reference_shift(func, steps):
    """T^steps as it was before the int numerators, kept as the reference of
    ``shift``: (t + 4 z steps)^b and r^steps as Fractions, term by term."""
    delta = 4 * func.z * steps

    def pairs():
        for (a, b, kap, w, r), c in func.terms.items():
            if r == 0 and steps < 0:
                raise ValueError("step factor 0 cannot be shifted backwards")
            factor = c * Fraction(r) ** steps
            for i in range(b + 1):
                yield (a, i, kap, w, r), factor * comb(b, i) * delta ** (b - i)

    return ExpPolyFunction(func.z, collect(pairs()))


def _reference_mul_powers(func, x_pow, t_pow):
    return ExpPolyFunction(func.z, {(a + x_pow, b + t_pow, kap, w, r): c
                                    for (a, b, kap, w, r), c in func.terms.items()})


def _per_term_apply(op, func):
    """``SchrodingerOperator.apply`` as it was before it shared the images of
    equal (T, dx, dt) powers and summed int numerators, kept as its
    reference: each term's image made from func by the Fraction references
    above, and the sum checked by the public constructor."""
    def image(a, b, tau, p, q):
        img = func
        for _ in range(q):
            img = _reference_derivative(img, 1)
        for _ in range(p):
            img = _reference_derivative(img, 0)
        if tau:
            img = _reference_shift(img, tau)
        return _reference_mul_powers(img, a, b)

    return ExpPolyFunction(op.z, linear_combination(
        (image(*key), c) for key, c in op.terms.items()))


def _assert_canonical(func):
    """Nonzero Fraction coefficients, and every integral rate an int."""
    assert all(type(c) is Fraction and c for c in func.terms.values())
    assert all(type(r) is int for key in func.terms for r in key[2:] if r.denominator == 1)


def _same_outcome(got, want):
    """got() equals want(), or both raise the same ValueError."""
    try:
        expected = want()
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            got()
        return
    result = got()
    assert result == expected
    _assert_canonical(result)


def _test_functions(z):
    """The certified solutions at z, and functions with integral and
    non-integral kappa, omega and rho, a zero rho among them, and terms
    whose derivative or shift cancels."""
    functions = (heat_polynomials(M, z, 5)
                 + exponential_solutions(M, z, regular_kappas(M, z, [0, 1, 2, Fraction(-1, 2)])))
    functions.append(ExpPolyFunction(z, {
        (2, 3, 1, 0, 2): 3, (0, 1, Fraction(1, 2), 0, Fraction(1, 3)): 1,
        (1, 2, Fraction(-3, 2), Fraction(5, 7), Fraction(-4, 3)): Fraction(-2, 5),
        (0, 2, -2, 2, -1): 7}))
    functions.append(ExpPolyFunction(z, {
        (0, 2, 0, 2, 0): 7, (3, 1, 2, Fraction(1, 3), 0): Fraction(1, 6),
        (1, 0, Fraction(5, 4), 0, 1): -1}))
    # x e^x - e^x: d/dx leaves x e^x; t - 4z: T leaves t
    functions.append(ExpPolyFunction(z, {(1, 0, 1, 0, 1): 1, (0, 0, 1, 0, 1): -1}))
    functions.append(ExpPolyFunction(z, {(0, 1, 0, 0, 1): 1, (0, 0, 0, 0, 1): -4 * z}))
    return functions


@pytest.mark.parametrize("z", [Fraction(1, 10), Fraction(0), Fraction(7, 3)])
def test_apply_matches_the_per_term_reference(z):
    ops = list(realize(M, A, z).values()) + [casimir(M, z), discrete_derivative(z, "backward")]
    # terms that share (T, dx, dt) powers, T^-1 among them
    ops.append(SchrodingerOperator(z, {(1, 0, -1, 1, 1): 2, (0, 2, -1, 1, 1): Fraction(-1, 3),
                                       (0, 0, -1, 0, 0): 5, (2, 1, 1, 2, 0): 1}))
    ops.append(ops[-1] * casimir(M, z))
    # T^2 and dx^2 dt^2 with no T^-1, so that a zero step factor survives
    ops.append(SchrodingerOperator(z, {(0, 1, 2, 2, 2): Fraction(3, 4), (1, 0, 0, 0, 1): -2}))
    for phi in _test_functions(z):
        _assert_canonical(phi)
        _same_outcome(phi.ddx, lambda: _reference_derivative(phi, 0))
        _same_outcome(phi.ddt, lambda: _reference_derivative(phi, 1))
        for steps in (1, -1, 2, -2):
            _same_outcome(lambda: phi.shift(steps), lambda: _reference_shift(phi, steps))
        _same_outcome(lambda: phi.mul_powers(2, 1), lambda: _reference_mul_powers(phi, 2, 1))
        for op in ops:
            _same_outcome(lambda: op.apply(phi), lambda: _per_term_apply(op, phi))


def test_integral_rates_are_stored_as_ints():
    # a key with Fraction(1) rates is the key with int rates: equal, of
    # equal hash, rendered and serialized alike; the constructor stores the
    # int, and a non-integral rate stays a Fraction
    key = (1, 2, Fraction(1), Fraction(0), Fraction(3))
    assert key == (1, 2, 1, 0, 3) and hash(key) == hash((1, 2, 1, 0, 3))
    frac = ExpPolyFunction(Z, {key: 2, (0, 0, Fraction(1, 2), 0, Fraction(5, 4)): 1})
    ints = ExpPolyFunction(Z, {(1, 2, 1, 0, 3): 2, (0, 0, Fraction(1, 2), 0, Fraction(5, 4)): 1})
    assert frac == ints and hash(frac) == hash(ints)
    assert str(frac) == str(ints) == "(1)*exp(1/2x)*step[5/4] + (2)*x*t^2*exp(1x)*step[3]"
    assert frac.to_json_dict() == ints.to_json_dict()
    assert {key: [type(r) for r in key[2:]] for key in frac.terms} == {
        (1, 2, 1, 0, 3): [int, int, int],
        (0, 0, Fraction(1, 2), 0, Fraction(5, 4)): [Fraction, int, Fraction]}
    rho = Fraction(1) / (1 - 2 * Z / M)
    assert [type(r) for key in ExpPolyFunction.exponential(Z, Fraction(2), 0, rho).terms
            for r in key[2:]] == [int, int, Fraction]
    assert [type(r) for key in ExpPolyFunction.from_monomials(Z, {(1, 1): 1}).terms
            for r in key[2:]] == [int, int, int]
    for phi in exponential_solutions(M, Z, [0, 1, 2]) + exponential_solutions(M, 0, [0, 1, 2]):
        _assert_canonical(phi)
    # a zero step factor vanishes forwards and still raises backwards
    zero = ExpPolyFunction(Z, {(0, 1, 1, 0, Fraction(0)): 1})
    assert zero.shift(1).is_zero() and zero.shift(0) == zero
    for steps in (-1, -2):
        with pytest.raises(ValueError, match="step factor 0 cannot be shifted backwards"):
            zero.shift(steps)
    # a float rate or coefficient still raises, naming the class
    with pytest.raises(TypeError, match="ExpPolyFunction keys"):
        ExpPolyFunction(Z, {(0, 0, 1, 0, 0.5): 1})
    for bad in (lambda: ExpPolyFunction.exponential(Z, 0.5, 0, 1),
                lambda: ExpPolyFunction.exponential(Z, 1, 0, 1.0),
                lambda: ExpPolyFunction(Z, {(0, 0, 1, 0, 1): 0.5})):
        with pytest.raises(TypeError, match="ExpPolyFunction takes int or Fraction"):
            bad()


def test_deformed_casimir_needs_positive_z():
    # z < 0 used to build an operator and lattice "solutions" of it; z = 0 is
    # the classical limit, where the Casimir is dx^2 - 2m dt
    assert casimir(1, 0) == SchrodingerOperator(
        0, {(0, 0, 0, 2, 0): 1, (0, 0, 0, 0, 1): -2})
    calls = (lambda z: realize(1, A, z), lambda z: casimir(1, z),
             lambda z: heat_polynomials(1, z, 3), lambda z: symmetry_check("D", 1, A, z),
             lambda z: solution_checks(1, A, z))
    for call in calls:
        with pytest.raises(ValueError, match="z >= 0"):
            call(-1)
        with pytest.raises(ValueError, match="z >= 0"):
            call(Fraction(-1, 10))


def _transcribed_casimir(mass, z):
    """The equation operator transcribed by hand, apart from the row
    SCH_CASIMIR that casimir realizes: dx^2 - 2m (1 - T^{-1})/(4z), and
    dx^2 - 2m dt at z = 0."""
    m, z = Fraction(mass), Fraction(z)
    if not z:
        return SchrodingerOperator(z, {(0, 0, 0, 2, 0): 1, (0, 0, 0, 0, 1): -2 * m})
    c = m / (2 * z)
    return SchrodingerOperator(z, {(0, 0, 0, 2, 0): 1,
                                   (0, 0, 0, 0, 0): -c,
                                   (0, 0, -1, 0, 0): c})


def test_casimir_is_the_transcribed_operator():
    points = [(z, m) for z, m, _ in PARAM_MATRIX]
    points += [(z, Fraction(-5, 3)) for z in (Fraction(1, 10), Fraction(1, 4), Fraction(9))]
    for z, m in points:
        for step in (z, 0):
            assert casimir(m, step) == _transcribed_casimir(m, step), (m, step)


def test_every_casimir_row_coefficient_is_load_bearing(monkeypatch):
    # +1 on each of the two sites of SCH_CASIMIR, the one row that both the
    # PBW Casimir and the equation operator expand
    terms, exps = SCH_CASIMIR
    ((scale, *rest),) = exps
    mutations = [({("P", "P"): (0, 2)}, exps), (terms, ((scale + 1, *rest),))]
    sch = schrodinger_algebra(2)
    assert _failed(hopf.casimir_checks(sch)) == 0
    for row in mutations:
        with monkeypatch.context() as patch:
            for module in (algebra, discrete, hopf):
                patch.setattr(module, "SCH_CASIMIR", row)
            failed = [e.name for e in hopf.casimir_checks(sch) if not e.passed]
            assert failed == ["discrete-se/schrodinger11/casimir-central/K"], row
            for z in (Z, 0):
                failed = [e.name.rsplit("/", 1)[1]
                          for e in symmetry_checks(M, A, z) if not e.passed]
                assert failed == ["K", "C"], (row, z)
                # the solutions no longer solve it: they fail their self-certification
                with pytest.raises(AssertionError, match="failed certification"):
                    solution_checks(M, A, z)


def test_only_ints_and_fractions_enter_the_layer():
    # a float entered as its binary expansion (z = 0.1 ran as
    # 3602879701896397/36028797018963968), and another ring's scalar raised
    # from inside Fraction
    float_error = "takes int or Fraction scalars, not float"
    with pytest.raises(TypeError, match=f"SchrodingerOperator {float_error}"):
        verify_realization(1, -0.5, 0.1)
    for z, coeff in ((0.1, 3), (Z, 0.3), (0.1, 0.3)):
        with pytest.raises(TypeError, match=f"ExpPolyFunction {float_error}"):
            ExpPolyFunction.from_monomials(z, {(1, 0): coeff})
    h = realize(1, A, Z)["H"]
    for scalar in (0.5, ComplexRational(1, 1), TruncatedSeries.z_power(1, 2, 1)):
        for product in (lambda: h * scalar, lambda: scalar * h):
            with pytest.raises(TypeError, match=f"SchrodingerOperator takes int or Fraction "
                                                f"scalars, not {type(scalar).__name__}"):
                product()
    phi = heat_polynomials(M, Z, 3)[2]
    calls = (lambda: realize(1, 0.5, Z), lambda: casimir(1.0, Z),
             lambda: discrete_derivative(0.1), lambda: symmetry_checks(1, A, 0.1),
             lambda: heat_polynomials(1.5, Z, 3), lambda: exponential_solutions(1, Z, [0.5]),
             lambda: regular_kappas(1, Z, [0.5]), lambda: solution_checks(1, -0.5, Z),
             lambda: apply_and_recheck("H", phi, 1, -0.5),
             lambda: sample_grid(phi, [0], 0.0, 1))
    for call in calls:
        with pytest.raises(TypeError, match=float_error):
            call()
    # ints and Fractions still enter, as equal exact values
    assert realize(1, Fraction(-1, 2), Fraction(1, 10)) == realize(Fraction(1), A, Z)
    assert realize(2, 0, 0) == realize(Fraction(2), Fraction(0), Fraction(0))
    assert h * 2 == 2 * h == h.scale(Fraction(2))
    assert ExpPolyFunction.from_monomials(Z, {(1, 0): 3}) == ExpPolyFunction.from_monomials(
        Fraction(1, 10), {(1, 0): Fraction(3)})
    assert regular_kappas(1, 0, [1, Fraction(1, 2)]) == [Fraction(1), Fraction(1, 2)]


def test_casimir_annihilates_basic_solutions():
    ez = casimir(M, Z)
    for mono in ({(0, 0): 1}, {(1, 0): 1}, {(2, 0): 1, (0, 1): Fraction(1) / M}):
        phi = ExpPolyFunction.from_monomials(Z, mono)
        assert ez.apply(phi).is_zero()


def test_symmetry_lambdas():
    entries = {e.name.rsplit("/", 1)[1]: e for e in symmetry_checks(M, A, Z)}
    assert all(e.passed for e in entries.values()), {
        k: e.residual for k, e in entries.items() if not e.passed}
    _, lams = symmetry_check("D", M, A, Z)
    assert lams == (Fraction(2), Fraction(0), Fraction(0))
    _, lams = symmetry_check("C", M, A, Z)
    # Lambda = 2t + 2z(1 - m) - 4z x dx
    assert lams == (2 * Z * (1 - M), Fraction(2), -4 * Z)
    for gen in ("K", "H", "P", "M"):
        _, lams = symmetry_check(gen, M, A, Z)
        assert lams == (0, 0, 0)


def test_symmetry_lambda_matrix():
    for z, m, a in PARAM_MATRIX:
        if a != Fraction(-1, 2):
            continue
        _, lams = symmetry_check("C", m, a, z)
        assert lams == (2 * z * (1 - m), Fraction(2), -4 * z), (z, m)


def test_conformal_negative_control():
    entry, lams = symmetry_check("C", M, Fraction(0), Z)
    assert lams is None
    assert not entry.passed
    assert entry.residual != "0"
    # the obstruction is exactly m(1 + 2a) at a = 0
    entries = symmetry_checks(M, Fraction(0), Z)
    conformal = [e for e in entries if e.name.endswith("/C")][0]
    assert not conformal.passed


def test_classical_symmetries():
    entries = {e.name.rsplit("/", 1)[1]: e for e in symmetry_checks(M, A, 0)}
    assert all(e.passed for e in entries.values())
    _, lams = symmetry_check("C", M, A, 0)
    assert lams == (Fraction(0), Fraction(2), Fraction(0))


def test_heat_polynomials_values():
    polys = heat_polynomials(M, Z, 5)
    assert polys[2] == ExpPolyFunction.from_monomials(
        Z, {(2, 0): 1, (0, 1): Fraction(1) / M})
    assert polys[3] == ExpPolyFunction.from_monomials(
        Z, {(3, 0): 1, (1, 1): Fraction(3) / M})
    # degree four gains the lattice correction 3t(t + 4z)/m^2
    assert polys[4] == ExpPolyFunction.from_monomials(
        Z, {(4, 0): 1, (2, 1): Fraction(6) / M,
            (0, 2): Fraction(3) / M ** 2, (0, 1): Fraction(12) * Z / M ** 2})


def test_exponential_solution_step_factor():
    sols = exponential_solutions(Fraction(1), Fraction(1, 10), [Fraction(1)])
    ((_, _, kap, omega, rho),) = sols[0].terms
    assert (kap, omega, rho) == (Fraction(1), Fraction(0), Fraction(5, 4))
    zero_sol = exponential_solutions(M, Z, [Fraction(0)])[0]
    assert zero_sol == ExpPolyFunction.from_monomials(Z, {(0, 0): 1})
    with pytest.raises(ValueError):
        exponential_solutions(Fraction(1), Fraction(1, 8), [Fraction(2)])


def test_step_factor_zero_vanishes_forwards_and_raises_backwards():
    # a term with r = 0 is T-annihilated: T phi = 0 * phi(t + 4z), while the
    # backward shift would divide by r
    dead = ExpPolyFunction(Z, {(1, 2, Fraction(0), Fraction(0), Fraction(0)): 3})
    live = ExpPolyFunction.exponential(Z, 1, 0, Fraction(1, 2))
    for steps in (1, 2):
        assert (dead + live).shift(steps) == live.shift(steps)
        assert dead.shift(steps).is_zero()
    assert dead.shift(0) == dead
    for steps in (-1, -2):
        with pytest.raises(ValueError, match="step factor 0 cannot be shifted backwards"):
            (dead + live).shift(steps)
        assert live.shift(steps).shift(-steps) == live


def test_apply_and_recheck():
    phi = heat_polynomials(M, Z, 3)[2]
    for gen in ("H", "D", "M", "P", "K", "C"):
        entry = apply_and_recheck(gen, phi, M, A)
        assert entry.passed, (gen, entry.residual)
    not_solution = ExpPolyFunction.from_monomials(Z, {(0, 1): 1})
    with pytest.raises(ValueError):
        apply_and_recheck("H", not_solution, M, A)


def test_solution_checks_count_and_classical():
    entries = solution_checks(M, A, Z)
    # 5 polynomial + 3 exponential solutions, each certified and mapped by 6 generators
    assert len(entries) == 8 * 7
    assert all(e.passed for e in entries)
    entries = solution_checks(M, A, 0)
    assert all(e.passed for e in entries)


def test_operator_and_function_level_agree():
    ez = casimir(M, Z)
    sols = heat_polynomials(M, Z, 5) + exponential_solutions(M, Z, [1, 2])
    for gen, s_op in realize(M, A, Z).items():
        com = ez.commutator(s_op)
        for phi in sols:
            direct = com.apply(phi)
            stepwise = ez.apply(s_op.apply(phi)) - s_op.apply(ez.apply(phi))
            assert direct == stepwise, gen


@pytest.mark.parametrize("z", [Z, Fraction(0)])
@pytest.mark.parametrize("a", [Fraction(0), A])
def test_solution_map_hands_the_image_to_the_equation_operator_on_ints(z, a):
    # the residual of each solution-map entry is the generator's image, as
    # int numerators, under the equation operator: the two public
    # applications one after the other
    ez, ops = casimir(M, z), realize(M, a, z)
    sols = heat_polynomials(M, z, 5) + exponential_solutions(M, z, regular_kappas(M, z, (0, 1, 2)))
    residuals = []
    for phi in sols:
        for gen in SCH_GENERATORS:
            got = discrete._applied(phi, ops[gen], ez)
            assert got == ez.apply(ops[gen].apply(phi)), (gen, phi)
            _assert_canonical(got)
            residuals.append(str(got))
    # C maps solutions to solutions only at a = -1/2
    assert any(r != "0" for r in residuals) == (a == 0)
    # solution_checks reports these residuals, solution by solution
    entries = solution_checks(M, a, z)
    assert [e.residual for e in entries if "/solution-map-" in e.name] == residuals


@pytest.mark.parametrize("z", [Z, Fraction(0), Fraction(7, 3)])
def test_chained_application_skips_the_terms_that_cancel_between_operators(z):
    # (dt - 2) cancels e^{2t} with step factor 0, which the backward
    # difference could not shift: the cancelled term must not reach it
    dead = ExpPolyFunction(z, {(0, 0, 0, 2, 0): 1})
    cancel = SchrodingerOperator(z, {(0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): -2})
    backward = discrete_derivative(z, "backward")
    assert discrete._applied(dead, cancel, backward).is_zero()
    ops = [cancel, backward, casimir(M, z)] + list(realize(M, A, z).values())
    for phi in _test_functions(z) + [dead]:
        for first in ops:
            for second in (backward, casimir(M, z), ops[-1]):
                _same_outcome(lambda: discrete._applied(phi, first, second),
                              lambda: second.apply(first.apply(phi)))


def test_backward_difference_matches_quotient():
    bwd = discrete_derivative(Z, "backward")
    samples = heat_polynomials(M, Z, 4) + exponential_solutions(M, Z, [1])
    for phi in samples:
        quotient = (phi - phi.shift(-1)).scale(Fraction(1, 4) / Z)
        assert bwd.apply(phi) == quotient


def test_sample_grid():
    phi = exponential_solutions(Fraction(1), Fraction(1, 10), [Fraction(1)])[0]
    rows = sample_grid(phi, [Fraction(0), Fraction(1)], Fraction(0), 3)
    assert len(rows) == 6
    x, t, v = rows[0]
    assert (x, t) == (0.0, 0.0) and v == 1.0
    # after one step the value gains the factor rho = 5/4
    assert rows[2][2] == 1.25


def test_sample_grid_window_off_origin():
    phi = exponential_solutions(1, Fraction(1, 10), [1])[0]
    # the window starts one lattice step after t = 0, so rho^1 then rho^2
    rows = sample_grid(phi, [Fraction(0)], 4 * phi.z, 2)
    assert [v for _, _, v in rows] == [1.25, 1.5625]
    with pytest.raises(ValueError):
        sample_grid(phi, [Fraction(0)], phi.z, 2)
    # at z = 0 there is no lattice: no run of copies of t = t0
    with pytest.raises(ValueError, match="time lattice 4z"):
        sample_grid(heat_polynomials(1, 0, 2)[1], [1], 0, 2)


def test_solution_serialization():
    phi = heat_polynomials(M, Z, 3)[2]
    data = phi.to_json_dict()
    assert data["z"] == "1/10"
    assert {"x_pow": 2, "t_pow": 0, "kappa": "0", "omega": "0",
            "step": "1", "coeff": "1"} in data["terms"]


def test_solution_check_names_are_unique():
    # the kappa = 0 exponential is the constant 1, like the degree-0 polynomial
    for z in (Z, 0):
        names = [e.name for e in solution_checks(M, A, z)]
        assert len(names) == len(set(names))
        assert sum(n.endswith("/exp(k=0)") for n in names) == 7


def test_apply_and_recheck_takes_the_tag_of_its_caller():
    # the kappa = 0 exponential is the constant 1, which phi alone would tag poly(deg=0)
    phi = exponential_solutions(M, Z, [0])[0]
    entry = apply_and_recheck("H", phi, M, A, tag="exp(k=0)")
    assert entry.passed
    assert entry.name == "discrete-se/solution-map-deformed/H/exp(k=0)"
