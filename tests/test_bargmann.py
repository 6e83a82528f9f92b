import hashlib
import random
from fractions import Fraction
from functools import reduce
from math import perm
from operator import mul

import pytest

from twophoton import cli
from twophoton.algebra import H6_RELATIONS, QuantumAlgebra, _realized_words, two_photon_algebra
from twophoton.bargmann import (DiffOperator, EigenProblem,
                                SingularRecurrenceError, classical_rep,
                                deformed_rep, eigen_operator, first_order_rep,
                                rep_checks, series_solve, verify_rep)
from twophoton.discrete import SchrodingerOperator, realize
from twophoton.scalars import ComplexRational
from twophoton.series import TruncatedSeries, exp_nilpotent
from twophoton.sparse import collect, weyl_terms


def op0(terms):
    return DiffOperator.from_scalar_terms(0, {k: Fraction(v) for k, v in terms.items()})


def _pair(x):
    """An exact scalar as its (re, im) Fraction parts."""
    if isinstance(x, ComplexRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def cop0(terms):
    """The (re, im) pair of order-0 operators whose sum re + i im has the
    given exact coefficients, the form eigen_operator returns."""
    parts = {k: _pair(v) for k, v in terms.items()}
    return tuple(op0({k: p[i] for k, p in parts.items()}) for i in (0, 1))


def test_compose_boson_relation():
    rep = classical_rep()
    d, a, n = rep["A-"], rep["A+"], rep["N"]
    assert d * a == op0({(1, 1): 1, (0, 0): 1})
    assert a * a == op0({(2, 0): 1})
    assert n * n == op0({(2, 2): 1, (1, 1): 1})


def test_compose_matches_action_on_monomials():
    rng = random.Random(3)
    for _ in range(15):
        x = DiffOperator.from_scalar_terms(0, {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
            for _ in range(3)})
        y = DiffOperator.from_scalar_terms(0, {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
            for _ in range(3)})
        both = x * y
        for n in range(13):
            mono = {n: Fraction(1)}
            via_product = both.apply_to_polynomial(mono)
            via_steps = x.apply_to_polynomial(y.apply_to_polynomial(mono))
            assert via_product == via_steps, (x, y, n)


def test_compose_associative_random():
    rng = random.Random(9)
    for _ in range(10):
        ops = []
        for _ in range(3):
            ops.append(DiffOperator(1, {
                (rng.randint(0, 2), rng.randint(0, 2)): TruncatedSeries(
                    [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))])
                for _ in range(3)}))
        x, y, z = ops
        assert (x * y) * z == x * (y * z)


def _collect_composition(x, y):
    """The composition as it was before the int numerators, kept as the
    reference for ``DiffOperator.__mul__``: each pair of terms multiplies
    its series and each Weyl term scales that product, and ``collect``
    sums the pairs."""
    def pairs():
        for (j1, l1), s1 in x.terms.items():
            for (j2, l2), s2 in y.terms.items():
                s = s1 * s2
                if s:
                    for t, c in weyl_terms(l1, j2):
                        yield (j1 + j2 - t, l1 + l2 - t), s * Fraction(c)

    return collect(pairs())


def _random_operator(rng, order):
    """Up to five terms alpha^j d^l, j, l <= 4, whose series have several z
    powers, negative numerators and denominators whose sums cancel."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 6, 10)))
                  if rng.random() < 0.6 else Fraction(0) for _ in range(order + 1)]
        terms[(rng.randint(0, 4), rng.randint(0, 4))] = TruncatedSeries(coeffs, order)
    return DiffOperator(order, terms)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_composition_matches_the_collect_reference(order):
    rng = random.Random(100 + order)
    for _ in range(80):
        x, y = _random_operator(rng, order), _random_operator(rng, order)
        got = x * y
        want = _collect_composition(x, y)
        assert got.terms == want
        assert {k: s.coeffs for k, s in got.terms.items()} == \
            {k: s.coeffs for k, s in want.items()}
        assert all(got.terms.values())
    # the same composition on operators that are themselves products
    x, y = _random_operator(rng, order), _random_operator(rng, order)
    assert (x * y) * x == DiffOperator(order, _collect_composition(
        DiffOperator(order, _collect_composition(x, y)), x))


def test_composition_cancels_across_denominators():
    # (a/2 + d/3)(3a/5 - 2d/5): the alpha d terms -1/5 and +1/5 cancel
    # and [d, a] leaves the constant 1/5
    x = op0({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    y = op0({(1, 0): Fraction(3, 5), (0, 1): Fraction(-2, 5)})
    got = x * y
    assert got == op0({(2, 0): Fraction(3, 10), (0, 2): Fraction(-2, 15),
                       (0, 0): Fraction(1, 5)})
    assert (1, 1) not in got.terms and all(got.terms.values())


def test_composition_is_over_the_rationals():
    # series and operators are over Q: a ComplexRational, even a real one,
    # is no scalar of a series, a Bargmann operator or an algebra element
    n_op, n_elem = classical_rep()["N"], two_photon_algebra(1).gen("N")
    for c in (ComplexRational(1, 1), ComplexRational(2)):
        for scaled in (lambda: TruncatedSeries([c]), lambda: n_op.scale(c),
                       lambda: n_elem.scale(c)):
            with pytest.raises(TypeError, match="ComplexRational"):
                scaled()


def test_weyl_terms_are_ints():
    assert weyl_terms(2, 2) == ((0, 1), (1, 4), (2, 2))
    assert weyl_terms(0, 3) == ((0, 1),)
    for l in range(6):
        for j in range(6):
            terms = weyl_terms(l, j)
            assert [t for t, _ in terms] == list(range(min(l, j) + 1))
            assert all(type(c) is int and c > 0 for _, c in terms)


def test_classical_table():
    rep = classical_rep()
    assert rep["B-"] == op0({(0, 2): 1})
    assert rep["M"] == op0({(0, 0): 1})
    com = rep["A-"].commutator(rep["A+"])
    assert com == DiffOperator.identity(0)
    with pytest.raises(KeyError):
        rep["Q"]


def test_every_table_holds_the_six_generators():
    for rep in (classical_rep(), classical_rep(2), first_order_rep(), deformed_rep(2)):
        assert sorted(rep) == sorted(("B+", "N", "M", "A+", "A-", "B-"))
        with pytest.raises(KeyError):
            rep["Q"]


def test_deformed_first_order_values():
    z1 = lambda c: TruncatedSeries([Fraction(0), Fraction(c)])
    one1 = TruncatedSeries([Fraction(1), Fraction(0)])
    rep = deformed_rep(1)
    assert rep["N"] == DiffOperator(1, {(1, 1): one1, (3, 1): z1(1)})
    assert rep["A+"] == DiffOperator(1, {(1, 0): one1, (3, 0): z1(Fraction(-1, 2))})
    assert rep["B-"] == DiffOperator(1, {(0, 2): one1, (2, 2): z1(1), (1, 1): z1(1)})
    assert rep["B+"] == DiffOperator(1, {(2, 0): one1})


def test_deformed_rep_reduces_to_classical():
    assert deformed_rep(0) == classical_rep(0)


# sha256 of the six deformed generators at order 8, rendered one per line in
# the order N, B-, B+, A-, A+, M; taken before the construction moved from a
# separate Laurent-polynomial ring onto DiffOperator
DEFORMED_K8_SHA256 = "bd805f513fcf7e932b238e71b0face7e16b6bad662ccc485cbbaa96c1276b10f"


def test_deformed_rep_rendering_pinned_at_order_8():
    rep = deformed_rep(8)
    text = "\n".join(str(rep[g]) for g in ("N", "B-", "B+", "A-", "A+", "M"))
    assert hashlib.sha256(text.encode()).hexdigest() == DEFORMED_K8_SHA256


def test_multiplication_operator_divisions():
    k = 3
    one = DiffOperator.identity(k)
    u = DiffOperator(k, {(2, 0): TruncatedSeries.z_power(1, k, 2)})  # 2 z a^2
    exp_u = exp_nilpotent(u, one)
    assert u.low_order() == 1 and exp_u.low_order() == 0
    assert DiffOperator.zero(k).low_order() is None
    # (e^{2 z a^2} - 1)/z starts at 2 a^2, so alpha^2 divides it exactly
    growth = (exp_u - one).divided_by_z()
    assert growth.order == k - 1
    assert growth.divided_by_alpha(2).terms[(0, 0)] == TruncatedSeries.constant(2, k - 1)
    with pytest.raises(ValueError):
        exp_u.divided_by_z()


def test_divided_by_alpha_rejects_inexact_division():
    # negative control: e^{2 z a^2} has a constant term, so 1/alpha leaves alpha^-1
    k = 3
    u = DiffOperator(k, {(2, 0): TruncatedSeries.z_power(1, k, 2)})
    exp_u = exp_nilpotent(u, DiffOperator.identity(k))
    with pytest.raises(ValueError, match="not divisible"):
        exp_u.divided_by_alpha(1)
    with pytest.raises(ValueError, match="not divisible"):
        (exp_u * classical_rep(k)["B+"]).divided_by_alpha(3)
    assert (exp_u * classical_rep(k)["A+"]).divided_by_alpha(1) == exp_u


def test_first_order_table_equals_truncated_full():
    assert {g: op.truncate(1) for g, op in deformed_rep(3).items()} == first_order_rep()


def test_verify_rep_all_orders():
    for order in (0, 1, 2, 3, 4):
        for entry in verify_rep(order):
            assert entry.passed, (entry.name, order, entry.residual)
    for entry in rep_checks(2):
        assert entry.passed, entry.name


def test_rep_checks_build_the_table_once_and_compose_each_prefix_once(monkeypatch):
    from twophoton import bargmann
    from twophoton.algebra import two_photon_algebra

    order = 8
    alg = two_photon_algebra(order)
    words = {w for i, x in enumerate(alg.generators) for y in alg.generators[:i]
             for w in alg.relation(x, y).terms}
    prefixes = {w[:n] for w in words for n in range(2, len(w) + 1)}
    builds, products = [], []
    build, compose = bargmann.deformed_rep, DiffOperator.__mul__
    monkeypatch.setattr(bargmann, "deformed_rep", lambda k: builds.append(k) or build(k))
    entries = rep_checks(order)
    assert all(e.passed for e in entries) and len(entries) == 17
    assert sorted(builds) == [0, order]
    images = build(order)
    monkeypatch.setattr(DiffOperator, "__mul__",
                        lambda x, y: products.append(1) or compose(x, y))
    assert [e.residual for e in verify_rep(order, images)] == ["0"] * 15
    # two compositions per commutator and one per prefix of two or more letters
    assert len(products) == 2 * 15 + len(prefixes)


def test_rep_brackets_see_every_h6_relation_coefficient(monkeypatch):
    # +1 on each polynomial coefficient, each exponential scale and each
    # exponential base of the h6 relation rows, one at a time: each fails its
    # own rep/bracket entry at k = 3 and no other
    mutations = []
    for key, (terms, exps) in H6_RELATIONS.items():
        for w, (p, c) in terms.items():
            mutations.append((key, ({**terms, w: (p, c + 1)}, exps)))
        for i, (scale, base, lo, zshift, suffix) in enumerate(exps):
            for bumped in ((scale + 1, base), (scale, base + 1)):
                row = exps[:i] + ((*bumped, lo, zshift, suffix),) + exps[i + 1:]
                mutations.append((key, (terms, row)))
    assert len(mutations) == 17
    images = deformed_rep(3)
    assert all(e.passed for e in verify_rep(3, images))
    for key, row in mutations:
        with monkeypatch.context() as patch:
            patch.setitem(H6_RELATIONS, key, row)
            failed = [e.name for e in verify_rep(3, images) if not e.passed]
        assert failed == ["rep/bracket/{},{}".format(*key)], (key, row)


def test_rep_and_eigen_build_no_algebra(monkeypatch, capsys):
    # the relation rows are realized straight from the table: no PBW engine
    builds = []
    init = QuantumAlgebra.__init__

    def counted(self, name, generators, order, **tables):
        builds.append((name, order))
        init(self, name, generators, order, **tables)

    monkeypatch.setattr(QuantumAlgebra, "__init__", counted)
    assert all(e.passed for e in rep_checks(3))
    assert cli.main(["--checks", "rep,eigen", "--order", "2"]) == 0
    assert builds == []


def test_realized_words_match_the_product_of_letters(monkeypatch):
    # a {word: c} map, realized through one memo shared by two maps, equals
    # the sum of c times each word's product of letters, and each distinct
    # prefix of two or more letters costs one composition
    first = {(): Fraction(3), ("A-",): Fraction(1, 2), ("B-", "A+"): Fraction(-2),
             ("B-", "A+", "N"): Fraction(5), ("N", "N", "B+"): Fraction(7, 3)}
    second = {("B-", "A+", "A+"): Fraction(1), ("N", "N"): Fraction(-1),
              ("N", "B+", "M"): Fraction(2)}
    prefixes = {w[:n] for w in (*first, *second) for n in range(2, len(w) + 1)}
    sch = {"B-": "C", "A-": "K", "A+": "P", "N": "D", "B+": "H", "M": "M"}
    tables = [(deformed_rep(3), DiffOperator.identity(3), {g: g for g in sch}),
              (realize(1, Fraction(-1, 2), Fraction(1, 10)),
               SchrodingerOperator.identity(Fraction(1, 10)), sch)]
    for table, one, name in tables:
        maps = [{tuple(name[g] for g in w): c for w, c in m.items()} for m in (first, second)]
        want = []
        for m in maps:
            acc = one.scale(0)
            for w, c in m.items():
                acc = acc + reduce(mul, [table[g] for g in w], one).scale(c)
            want.append(acc)
        products = []
        compose = type(one).__mul__
        with monkeypatch.context() as patch:
            patch.setattr(type(one), "__mul__",
                          lambda x, y: products.append(1) or compose(x, y))
            memo = {(): one, **{(g,): op for g, op in table.items()}}
            got = [_realized_words(m.items(), memo) for m in maps]
        assert got == want
        assert len(products) == len(prefixes) == 7


def test_eigen_operator_classical_shape():
    betas = tuple(ComplexRational(b) for b in (2, 3, 5, 7, 11))
    problem = EigenProblem(betas, ComplexRational(13))
    got, im = eigen_operator(problem, classical_rep())
    # beta2 d^2 + (beta1 a + beta4) d + (beta3 a^2 + beta5 a - lambda)
    want = op0({(0, 2): 3, (1, 1): 2, (0, 1): 7, (2, 0): 5, (1, 0): 11, (0, 0): -13})
    assert got == want
    assert im == DiffOperator.zero(0)


def test_eigen_operator_first_order_displayed_terms():
    betas = tuple(ComplexRational(b) for b in (2, 3, 5, 7, 11))
    problem = EigenProblem(betas, ComplexRational(13))
    got, im = eigen_operator(problem, first_order_rep())
    assert im.is_zero()
    z1 = lambda c: TruncatedSeries([Fraction(0), Fraction(c)])
    # d coefficient gains z(beta1 a^3 + beta2 a + 3 beta4 a^2 / 2)
    assert got.terms[(3, 1)] == z1(2)
    assert got.terms[(1, 1)].coeffs[1] == Fraction(3)
    assert got.terms[(2, 1)] == z1(Fraction(21, 2))
    # constant part gains -z beta5 a^3 / 2
    assert got.terms[(3, 0)] == z1(Fraction(-11, 2))
    # d^2 coefficient becomes beta2 (1 + z a^2)
    assert got.terms[(2, 2)] == z1(3)


def test_eigen_operator_is_the_explicit_sum_on_every_table():
    betas = (ComplexRational(2), ComplexRational(0), ComplexRational(Fraction(1, 3), 1),
             ComplexRational(-1), ComplexRational(0, 5))
    lam = ComplexRational(Fraction(7, 2), -1)
    problem = EigenProblem(betas, lam)
    for rep in (classical_rep(), first_order_rep(), deformed_rep(3)):
        order = rep["M"].order
        assert rep["M"] == DiffOperator.identity(order)
        want = []
        for part in (0, 1):
            sum_ = DiffOperator.identity(order).scale(-_pair(lam)[part])
            for beta, gen in zip(betas, ("N", "B-", "B+", "A-", "A+")):
                sum_ = sum_ + rep[gen].scale(_pair(beta)[part])
            want.append(sum_)
        assert eigen_operator(problem, rep) == tuple(want)
    # real betas and eigenvalue may be given as ints and Fractions
    real_betas, real_lam = (2, 0, Fraction(1, 3), -1, 0), Fraction(7, 2)
    as_complex = EigenProblem(tuple(map(ComplexRational, real_betas)), ComplexRational(real_lam))
    assert eigen_operator(EigenProblem(real_betas, real_lam), classical_rep()) == \
        eigen_operator(as_complex, classical_rep())


def test_first_order_equals_full_mod_z2():
    betas = tuple(ComplexRational(b) for b in (1, 1, 1, 1, 1))
    problem = EigenProblem(betas, ComplexRational(2, -1))
    for full, first in zip(eigen_operator(problem, deformed_rep(3)),
                           eigen_operator(problem, first_order_rep())):
        assert full.truncate(1) == first


def test_eigenproblem_validation():
    with pytest.raises(ValueError):
        EigenProblem((ComplexRational(0),) * 5, ComplexRational(1))
    with pytest.raises(ValueError):
        EigenProblem((ComplexRational(1),) * 4, ComplexRational(1))
    # a float is refused where the problem is made, not later by eigen_operator
    accepted = "EigenProblem takes int, Fraction or ComplexRational scalars, not float"
    for betas, eigenvalue in (((0.5, 0, 0, 0, 0), 1), ((1, 0, 0, 0, 0), 0.5),
                              ((ComplexRational(1), 0, 0, 0, 0.0), ComplexRational(1))):
        with pytest.raises(TypeError, match=accepted):
            EigenProblem(betas, eigenvalue)
    assert EigenProblem((1, Fraction(1, 2), ComplexRational(0, 1), 0, 0), 2).eigenvalue == 2


def _cmul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _cdiv(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _pair_terms(op):
    """{(j, l): (re, im)} of a real order-0 operator or of an (re, im) pair of them."""
    parts = op if isinstance(op, tuple) else (op, DiffOperator.zero(0))
    terms = {}
    for i, part in enumerate(parts):
        for key, s in part.terms.items():
            terms.setdefault(key, [Fraction(0), Fraction(0)])[i] = s.coeffs[0]
    return {key: tuple(c) for key, c in terms.items()}, parts


def _reference_solve(terms, degree, seeds=None):
    """The recurrence of series_solve, transcribed on (re, im) Fraction pairs:
    ``terms`` maps (j, l) to the pair of alpha^j d^l's coefficient."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    smin = min(j - l for (j, l) in terms)
    d = max(0, -smin)
    seeds = {n: _pair(v) for n, v in (seeds or {}).items()}
    for n in range(d):
        seeds.setdefault(n, one if n == 0 else zero)
    coeffs = []
    for n in range(degree + 1):
        if n < d:
            coeffs.append(seeds[n])
            continue
        head = rhs = zero
        for (j, l), c in terms.items():
            np = n + smin - (j - l)
            if np == n:
                f = perm(n, l)
                head = head[0] + c[0] * f, head[1] + c[1] * f
            elif np >= 0:
                f = perm(np, l)
                x, y = _cmul(c, coeffs[np])
                rhs = rhs[0] + x * f, rhs[1] + y * f
        if any(head):
            coeffs.append(_cdiv((-rhs[0], -rhs[1]), head))
        elif any(rhs):
            raise SingularRecurrenceError(n)
        else:
            coeffs.append(seeds.get(n, zero if any(map(any, coeffs)) else one))
    return coeffs


def _check_against_oracles(op, degree, seeds=None):
    """series_solve against the reference recurrence and against apply_to_polynomial;
    ``op`` is a real order-0 operator or an (re, im) pair of them."""
    terms, (re, im) = _pair_terms(op)
    try:
        want = _reference_solve(terms, degree, seeds)
    except SingularRecurrenceError as exc:
        with pytest.raises(SingularRecurrenceError) as got:
            series_solve(op, degree, seeds)
        assert got.value.index == exc.index
        return None
    coeffs, tail = series_solve(op, degree, seeds)
    assert [_pair(c) for c in coeffs] == want
    # (re + i im)(x + i y) applied part by part
    x, y = ({n: c[i] for n, c in enumerate(want)} for i in (0, 1))

    def applied(part, poly):
        return {m: s.coeffs[0] for m, s in part.apply_to_polynomial(poly).items()}

    rx, ry, ix, iy = applied(re, x), applied(re, y), applied(im, x), applied(im, y)
    image = {m: (rx.get(m, 0) - iy.get(m, 0), ry.get(m, 0) + ix.get(m, 0))
             for m in set().union(rx, ry, ix, iy)}
    image = {m: v for m, v in image.items() if any(v)}
    solved_through = degree + min(j - l for (j, l) in terms)
    assert all(m > solved_through for m in image)
    assert {m: _pair(v) for m, v in tail.items()} == image
    return coeffs, tail


def test_series_solve_number_operator():
    zero, one = ComplexRational(0), ComplexRational(1)
    problem = EigenProblem((one, zero, zero, zero, zero), ComplexRational(4))
    coeffs, tail = series_solve(eigen_operator(problem, classical_rep()), 9)
    assert coeffs == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert tail == {}


def test_series_solve_beta2_recurrence():
    zero, one = ComplexRational(0), ComplexRational(1)
    lam = ComplexRational(Fraction(3, 2))
    problem = EigenProblem((zero, one, zero, zero, zero), lam)
    coeffs, _ = series_solve(eigen_operator(problem, classical_rep()), 11)
    # independent recurrence c_{n+2} = lam c_n / ((n+1)(n+2))
    expect = [Fraction(1), Fraction(0)]
    for n in range(10):
        expect.append(Fraction(3, 2) * expect[n] / ((n + 1) * (n + 2)))
    assert coeffs == expect


def test_series_solve_deformed_residual_window():
    zero, one = ComplexRational(0), ComplexRational(1)
    problem = EigenProblem((zero, one, zero, zero, zero), one)
    op, im = (part.substitute_z(Fraction(1, 10))
              for part in eigen_operator(problem, first_order_rep()))
    assert im.is_zero()
    coeffs, tail = series_solve(op, 30)
    # the d^2 head lowers degree by two: residual vanishes through degree 28
    assert all(m > 28 for m in tail)
    assert tail
    image = op.apply_to_polynomial(dict(enumerate(coeffs)))
    for m, s in image.items():
        if m <= 28:
            assert s.coeffs[0] == 0


def test_series_solve_custom_seeds():
    # f'' = 0 with seeds picks out the affine solutions
    op = op0({(0, 2): 1})
    coeffs, tail = series_solve(op, 5, seeds={0: Fraction(2), 1: Fraction(3)})
    assert coeffs == [2, 3, 0, 0, 0, 0]
    assert tail == {}
    # seeds with denominators enter the running denominator
    op = op0({(0, 2): 1, (1, 1): Fraction(2, 3), (0, 0): Fraction(-5, 7)})
    coeffs, _ = _check_against_oracles(op, 20, {0: Fraction(2, 3), 1: Fraction(-5, 7)})
    assert coeffs[:2] == [Fraction(2, 3), Fraction(-5, 7)]


def test_substitute_z_takes_an_exact_rational():
    one, zero = ComplexRational(1), ComplexRational(0)
    op, _ = eigen_operator(EigenProblem((zero, one, one, zero, zero), one), first_order_rep())
    with pytest.raises(TypeError, match="DiffOperator takes int or Fraction scalars, not float"):
        op.substitute_z(0.1)
    assert op.substitute_z(0) == op.substitute_z(Fraction(0))


def test_series_solve_seeds_are_exact():
    # a float seed used to come back among the coefficients as it was given
    op = op0({(0, 2): 1})
    with pytest.raises(TypeError, match="non-rational coefficient 0.5"):
        series_solve(op, 5, seeds={0: 0.5})
    coeffs, _ = series_solve(op, 3, seeds={0: 2, 1: ComplexRational(0, 1)})
    assert coeffs == [2, ComplexRational(0, 1), 0, 0]
    assert type(coeffs[0]) is Fraction


def test_series_solve_singular_head_with_obstruction():
    # (1 - a/5) d + 1: the head (m+1)(1 - m/5) vanishes at m = 5 while the
    # constant term keeps feeding the right-hand side
    op = op0({(0, 1): 1, (1, 2): Fraction(-1, 5), (0, 0): 1})
    with pytest.raises(SingularRecurrenceError) as exc:
        series_solve(op, 10)
    assert exc.value.index == 6
    # the same obstruction with complex coefficients, against the reference
    op = cop0({(0, 1): ComplexRational(0, 1), (1, 2): ComplexRational(0, Fraction(-1, 5)),
               (0, 0): Fraction(1, 2)})
    assert _check_against_oracles(op, 10) is None
    with pytest.raises(SingularRecurrenceError) as exc:
        series_solve(op, 10)
    assert exc.value.index == 6


def test_series_solve_matches_oracles_on_random_operators():
    # fraction-free series_solve against a Fraction transcription of its
    # recurrence, and its residual tail against the operator applied directly.
    # An operator is an (re, im) pair, or its real part alone when the
    # imaginary part is zero
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    part = st.one_of(st.just(Fraction(0)), rational)
    pair = st.one_of(st.tuples(rational, st.just(Fraction(0))), st.tuples(part, part))
    operator = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), pair,
                               min_size=1, max_size=4)
    scalar = st.one_of(rational, st.builds(ComplexRational, part, part))
    seeds = st.one_of(st.none(), st.dictionaries(st.integers(0, 6), scalar, max_size=3))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(operator, seeds, st.integers(0, 30))
    def check(terms, seed_map, degree):
        op = tuple(op0({k: c[i] for k, c in terms.items()}) for i in (0, 1))
        hypothesis.assume(op[0] or op[1])
        _check_against_oracles(op if op[1] else op[0], degree, seed_map)

    check()


def test_series_solve_conjugate_head():
    # (1 + 2i) d^2 + (1/3) a d - 1/2: the head (1 + 2i) n (n - 1) is not real
    op = cop0({(0, 2): ComplexRational(1, 2), (1, 1): Fraction(1, 3), (0, 0): Fraction(-1, 2)})
    coeffs, tail = _check_against_oracles(op, 25)
    assert coeffs[2] == ComplexRational(Fraction(1, 20), Fraction(-1, 10))
    assert tail


def test_series_solve_complex_seeds_on_real_operator():
    # d^2 - 1 with complex seeds: the tail keeps its imaginary part
    op = op0({(0, 2): 1, (0, 0): -1})
    seeds = {0: ComplexRational(1, Fraction(1, 2)), 1: ComplexRational(0, 3)}
    coeffs, tail = _check_against_oracles(op, 12, seeds)
    assert coeffs[12] == ComplexRational(Fraction(1, 479001600), Fraction(1, 958003200))
    assert set(tail) == {11, 12}
    assert all(v.im for v in tail.values())


def test_series_solve_free_directions():
    # a d - 4: the head n - 4 vanishes at n = 4 after an all-zero prefix
    op = op0({(1, 1): 1, (0, 0): -4})
    coeffs, _ = _check_against_oracles(op, 8)
    assert coeffs == [0, 0, 0, 0, 1, 0, 0, 0, 0]
    coeffs, _ = _check_against_oracles(op, 8, {4: Fraction(5, 3)})
    assert coeffs[4] == Fraction(5, 3)
    # a d^2 - 3 d: the head n (n - 4) vanishes at n = 4 after c0 = 1
    op = op0({(1, 2): 1, (0, 1): -3})
    coeffs, _ = _check_against_oracles(op, 8)
    assert coeffs == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    coeffs, _ = _check_against_oracles(op, 8, {4: ComplexRational(0, 2)})
    assert coeffs == [1, 0, 0, 0, ComplexRational(0, 2), 0, 0, 0, 0]


def test_series_solve_all_terms_raise_degree():
    # a^2 d - 3 a + a^2 has j - l >= 1 in every term; the free c3 = 1 feeds
    # c4 through the a^2 term: (n - 3) c_n + c_(n-1) = 0
    op = op0({(2, 1): 1, (1, 0): -3, (2, 0): 1})
    coeffs, tail = _check_against_oracles(op, 8)
    assert coeffs == [0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 24),
                      Fraction(-1, 120)]
    assert tail == {10: Fraction(-1, 120)}


def test_series_solve_rejects_unsubstituted_operator():
    with pytest.raises(ValueError):
        series_solve(deformed_rep(2)["N"], 5)
    with pytest.raises(ValueError):
        series_solve(DiffOperator.zero(0), 5)
