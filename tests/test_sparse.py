"""The shared sparse-term core: tensor loop, linear axioms, solver, exp/sqrt."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from twophoton.algebra import (NCElement, TensorElement, schrodinger_algebra,
                               two_photon_algebra)
from twophoton.bargmann import DiffOperator, deformed_rep
from twophoton.bialgebra import WedgeElement, basis_change, two_photon_lie
from twophoton.discrete import ExpPolyFunction, SchrodingerOperator, realize
from twophoton.series import TruncatedSeries, exp_nilpotent, sqrt_unit
from twophoton.sparse import SparseTerms, collect, solve_linear

ORDER = 2
ALGEBRAS = (two_photon_algebra(ORDER), schrodinger_algebra(ORDER))


def _series(rng, order=ORDER, low=0):
    """Random series whose first ``low`` coefficients vanish."""
    tail = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(order + 1 - low)]
    return TruncatedSeries([Fraction(0)] * low + tail)


def _word(rng, max_len=2):
    return tuple(sorted(rng.randrange(6) for _ in range(rng.randint(0, max_len))))


def _random_tensor(alg, rng, rank, n_terms=3):
    return TensorElement(alg, rank, {tuple(_word(rng) for _ in range(rank)): _series(rng)
                                     for _ in range(n_terms)})


def _legwise_oracle(alg, rank, pairs):
    """sum over (legs_a, legs_b, s) of s * (x) NCElement(leg_a) * NCElement(leg_b)."""
    one = alg.one_series()
    acc = {}
    for legs_a, legs_b, s in pairs:
        partial = {(): s}
        for la, lb in zip(legs_a, legs_b):
            leg = NCElement(alg, {la: one}) * NCElement(alg, {lb: one})
            partial = {words + (w,): p * c for words, p in partial.items()
                       for w, c in leg.terms.items()}
        for words, p in partial.items():
            acc[words] = acc[words] + p if words in acc else p
    return TensorElement(alg, rank, acc)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_tensor_product_any_rank_matches_legwise_oracle(alg, rank):
    rng = random.Random(rank)
    for _ in range(3):
        a, b = _random_tensor(alg, rng, rank), _random_tensor(alg, rng, rank)
        pairs = [(wa, wb, sa * sb) for wa, sa in a.terms.items()
                 for wb, sb in b.terms.items()]
        want = _legwise_oracle(alg, rank, pairs)
        assert a * b == want
        # the same loop normal orders raw legs: leg a then leg b as one word
        raw = {}
        for wa, wb, s in pairs:
            key = tuple(x + y for x, y in zip(wa, wb))
            raw[key] = raw[key] + s if key in raw else s
        assert alg.tensor(raw, rank) == want


def _nc(rng):
    alg = ALGEBRAS[0]
    return NCElement(alg, {_word(rng, 3): _series(rng) for _ in range(3)})


def _tensor(rng):
    return _random_tensor(ALGEBRAS[0], rng, 2)


def _diffop(rng):
    return DiffOperator(ORDER, {(rng.randrange(3), rng.randrange(3)): _series(rng)
                                for _ in range(3)})


def _multiplication_op(rng, order=ORDER, low=0):
    """Random d-free DiffOperator: a multiplication operator in alpha."""
    return DiffOperator(order, {(rng.randrange(4), 0): _series(rng, order, low)
                                for _ in range(3)})


def _schop(rng):
    return SchrodingerOperator(Fraction(1, 10), {
        tuple(rng.randrange(-1 if i == 2 else 0, 2) for i in range(5)): rng.randint(-3, 3)
        for _ in range(4)})


def _exppoly(rng):
    return ExpPolyFunction(Fraction(1, 10), {
        (rng.randrange(3), rng.randrange(3), Fraction(rng.randrange(2)), Fraction(0),
         Fraction(rng.randint(1, 2))): rng.randint(-3, 3)
        for _ in range(4)})


def _wedge(rng):
    return WedgeElement({tuple(rng.sample(range(6), 2)): rng.randint(-3, 3) for _ in range(3)})


# (random element, an element of a different space or None when all share one)
SUBCLASSES = {
    "NCElement": (_nc, schrodinger_algebra(ORDER).gen("H")),
    "TensorElement": (_tensor, ALGEBRAS[0].tensor_one(3)),
    "DiffOperator": (_diffop, DiffOperator.identity(ORDER + 1)),
    "DiffOperator-multiplication": (_multiplication_op, DiffOperator.identity(ORDER + 1)),
    "SchrodingerOperator": (_schop, SchrodingerOperator.identity(Fraction(1, 4))),
    "ExpPolyFunction": (_exppoly, ExpPolyFunction.exponential(Fraction(1, 4), 1, 0, 1)),
    "WedgeElement": (_wedge, None),
}


@pytest.mark.parametrize("name", sorted(SUBCLASSES))
def test_linear_axioms(name):
    make, foreign = SUBCLASSES[name]
    rng = random.Random(name)
    for _ in range(10):
        a, b, c = make(rng), make(rng), make(rng)
        assert (a + b) + c == a + (b + c)
        assert (a + (-a)).is_zero() and not (a - a)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (a + b).scale(q) == a.scale(q) + b.scale(q)
        assert q * a == a.scale(q)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert len({a, a + b - b}) == 1
    if foreign is not None:
        with pytest.raises(ValueError):
            a + foreign
        with pytest.raises(ValueError):
            a - foreign


def test_an_element_of_another_class_is_no_scalar():
    # each operator took any other operand for a scalar: the product raised
    # from inside Fraction or the series ring, or held the element as a
    # coefficient
    diffop = deformed_rep(ORDER)["N"]
    schop = realize(1, Fraction(-1, 2), Fraction(1, 10))["H"]
    element = ALGEBRAS[0].gen("N")
    for a, b in permutations((diffop, schop, element), 2):
        with pytest.raises(TypeError, match=f"{type(a).__name__} by {type(b).__name__}"):
            a * b
    # the scalars of each coefficient ring still scale, from either side
    half = Fraction(1, 2)
    scalars = (half, TruncatedSeries.z_power(1, ORDER, Fraction(3, 2)))
    for x, ring in ((diffop, scalars), (element, scalars), (schop, scalars[:1])):
        for c in ring:
            assert type(x * c) is type(x)
            assert x * c == c * x == x.scale(c)
        assert x * half + half * x == x


def test_solve_linear_unique_solution():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(2)}]
    target = {0: Fraction(2), 1: Fraction(5), 2: Fraction(6)}
    assert solve_linear(cols, target) == ([Fraction(2), Fraction(3)], True)


def test_solve_linear_inconsistent():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(2)}]
    sol, consistent = solve_linear(cols, {0: Fraction(1), 3: Fraction(1)})
    assert not consistent
    assert sol == [Fraction(1), Fraction(-1)]


def test_basis_change_rejects_dependent_row():
    rows = [("X", {0: 1}), ("Y", {1: 1}), ("Z", {0: 1, 1: -2})]
    with pytest.raises(ValueError, match="dependent"):
        basis_change(two_photon_lie(), rows)


def test_exp_and_sqrt_shared_by_series_and_multiplication_operators():
    rng = random.Random(3)
    k = 4
    s_one = TruncatedSeries.one(k)
    c_one = DiffOperator.identity(k)
    for _ in range(5):
        x = _series(rng, k, low=1)
        assert exp_nilpotent(x, s_one) * exp_nilpotent(-x, s_one) == s_one
        assert sqrt_unit(x, s_one) ** 2 == s_one + x
        p = _multiplication_op(rng, k, low=1)
        assert exp_nilpotent(p, c_one) * exp_nilpotent(-p, c_one) == c_one
        root = sqrt_unit(p, c_one)
        assert root * root == c_one + p
    for one, unit in ((s_one, s_one), (c_one, c_one)):
        with pytest.raises(ValueError):
            exp_nilpotent(unit, one)
        with pytest.raises(ValueError):
            sqrt_unit(unit, one)


def test_collect_sums_repeated_keys_and_drops_zero_sums():
    half = Fraction(1, 2)
    assert collect([]) == {}
    assert collect([("a", Fraction(0))]) == {}
    assert collect([("a", half), ("b", Fraction(1)), ("a", half), ("b", Fraction(-1))]) \
        == {"a": Fraction(1)}
    s = TruncatedSeries.z_power(1, 2, 3)
    assert collect([((), s), ((0,), s), ((), -s), ((0,), s)]) == {(0,): s + s}


class _Sum(SparseTerms):
    __slots__ = ()

    def __init__(self, terms):
        super().__init__((), terms)


def test_collect_is_an_order_free_fold_of_add():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    pairs_strategy = st.lists(
        st.tuples(st.integers(0, 3), st.integers(-2, 2).map(Fraction)), max_size=12)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(pairs_strategy, st.randoms(use_true_random=False))
    def check(pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert collect(shuffled) == collect(pairs)
        folded = _Sum({})
        for k, c in pairs:
            folded = folded + _Sum({k: c})
        assert collect(pairs) == folded.terms

    check()


def test_public_constructions_drop_zero_coefficients():
    # the products hand their nonzero results over unfiltered; every public
    # constructor still filters what it is given
    alg = ALGEBRAS[0]
    zero, one = alg.zero_series(), alg.one_series()
    assert NCElement(alg, {(0,): zero, (1,): one}).terms == {(1,): one}
    assert TensorElement(alg, 2, {((0,), ()): zero, ((), (1,)): one}).terms == {((), (1,)): one}
    assert alg.element({(1, 0): 0, (0,): 0}).is_zero()
    assert alg.tensor({((1, 0), ()): 0}).is_zero()
    assert DiffOperator(ORDER, {(1, 0): TruncatedSeries.zero(ORDER)}).is_zero()
    assert SchrodingerOperator(Fraction(1, 10), {(0, 0, 1, 0, 0): 0}).is_zero()
    assert ExpPolyFunction(Fraction(1, 10), {(0, 0, 0, 0, 1): Fraction(0)}).is_zero()
    # and a kernel result whose terms cancel, or a memo of such results,
    # holds no zero coefficient
    n, a = alg.gen("N"), alg.gen("A+")
    word = (5, 4, 0)
    for x in (n.commutator(a), (a + n) * (a - n), a.commutator(a),
              alg.coproduct_word(word), alg.antipode_word(word)):
        assert all(x.terms.values())
    assert a.commutator(a).terms == {}
    assert alg.coproduct_word(word) == alg.coproduct(alg.element({word: 1}))
    assert alg.antipode_word(word) == alg.antipode(alg.element({word: 1}))
