import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest

from twophoton.algebra import two_photon_algebra
from twophoton.scalars import ComplexRational, parse_complex_rational, parse_rational
from twophoton.series import TruncatedSeries, _series_terms


def S(coeffs):
    return TruncatedSeries([Fraction(c) for c in coeffs])


def test_addition_examples():
    # (1 + z) + (1 - z) at k=2
    assert S([1, 1, 0]) + S([1, -1, 0]) == S([2, 0, 0])
    a = S([3, -2, 7])
    assert a + TruncatedSeries.zero(2) == a
    # both z^2 terms truncate away at k=1
    assert S([0, 0]) + S([0, 0]) == TruncatedSeries.zero(1)


def test_multiplication_examples():
    assert S([1, 1, 0]) * S([1, -1, 0]) == S([1, 0, -1])
    assert S([1, 1]) * S([1, 1]) == S([1, 2])
    z = TruncatedSeries.z_power(1, 1)
    assert z * z == TruncatedSeries.zero(1)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        S([1, 2]) + S([1, 2, 3])
    with pytest.raises(ValueError):
        S([1, 2]) * S([1, 2, 3])


def test_exp_examples():
    c = Fraction(3, 2)
    e = TruncatedSeries.z_power(1, 2, c).exp()
    assert e == TruncatedSeries([1, c, c * c / 2])
    assert TruncatedSeries.zero(3).exp() == TruncatedSeries.one(3)
    # exp(2z) exp(-2z) = 1 at k=3; both factors expanded independently
    plus = TruncatedSeries([Fraction(1), Fraction(2), Fraction(2), Fraction(4, 3)])
    minus = TruncatedSeries([Fraction(1), Fraction(-2), Fraction(2), Fraction(-4, 3)])
    assert TruncatedSeries.z_power(1, 3, 2).exp() == plus
    assert TruncatedSeries.z_power(1, 3, -2).exp() == minus
    assert plus * minus == TruncatedSeries.one(3)
    with pytest.raises(ValueError):
        S([1, 1]).exp()


def test_sqrt_examples():
    assert S([1, 1, 0]).sqrt() == TruncatedSeries(
        [Fraction(1), Fraction(1, 2), Fraction(-1, 8)])
    assert TruncatedSeries.one(4).sqrt() == TruncatedSeries.one(4)
    s = S([1, -2, 1, 0]).sqrt()
    assert s == S([1, -1, 0, 0])
    assert s * s == S([1, -2, 1, 0])
    with pytest.raises(ValueError):
        S([4, 0]).sqrt()


def test_inverse_examples():
    assert S([1, -1, 0]).inverse() == S([1, 1, 1])
    assert TruncatedSeries.one(3).inverse() == TruncatedSeries.one(3)
    a = S([1, 2, 0, 0, 0])
    assert a.inverse() * a == TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        S([0, 1]).inverse()


def test_divided_by_z():
    assert S([0, 2, 3]).divided_by_z() == S([2, 3])
    with pytest.raises(ValueError):
        S([1, 2]).divided_by_z()


def _random_series(rng, order):
    return TruncatedSeries(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)])


def test_ring_axioms_random():
    rng = random.Random(7)
    for order in (0, 1, 3, 5):
        for _ in range(25):
            a, b, c = (_random_series(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def _dense_product(x, y):
    """Textbook truncated convolution of two equal-length dense coefficient lists."""
    return [sum((x[i] * y[n - i] for i in range(n + 1)), Fraction(0)) for n in range(len(x))]


def test_sparse_series_kernels_and_ring_axioms():
    # the product kernel visits nonzero coefficients only: check it, and the
    # ring axioms, on series that are mostly zero
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    order = 5
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    series = st.dictionaries(st.integers(0, order), rational, max_size=3).map(
        lambda nonzero: TruncatedSeries(
            [nonzero.get(i, Fraction(0)) for i in range(order + 1)], order))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(series, series, series)
    def check(a, b, c):
        ab = a * b
        assert ab.coeffs == tuple(_dense_product(a.coeffs, b.coeffs))
        assert all(type(x) is Fraction for x in ab.coeffs)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == TruncatedSeries.zero(order) == a + (-a)

    check()
    with pytest.raises(TypeError):
        TruncatedSeries([0.5])


def _assert_canonical(series):
    """The stored triples of ``series`` are its one canonical form: ascending
    powers in 0..order, nonzero numerators, positive denominators, gcd 1."""
    powers = [n for n, _, _ in series.triples]
    assert powers == sorted(set(powers)) and all(0 <= n <= series.order for n in powers)
    assert all(x and d > 0 and gcd(x, d) == 1 for _, x, d in series.triples)
    assert all(type(v) is int for t in series.triples for v in t)


def test_stored_pairs_against_dense_reference():
    # a series stores only its nonzero terms, as canonical int triples: every
    # ring operation must agree with the dense formulas, and equal series
    # must store equal triples and hash alike however they were built. The
    # denominators 1..6 give the sums, products and scalar products gcds to
    # reduce by
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    order = 4
    zero = st.just(Fraction(0))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    scalar = st.one_of(zero, rational)
    dense = st.lists(scalar, min_size=order + 1, max_size=order + 1)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(dense, dense, scalar, st.integers(0, order))
    def check(x, y, c, cut):
        a, b = TruncatedSeries(x, order), TruncatedSeries(y, order)
        cases = [
            (a, x),
            (a + b, [p + q for p, q in zip(x, y)]),
            (a - b, [p - q for p, q in zip(x, y)]),
            (-a, [-p for p in x]),
            (a * b, _dense_product(x, y)),
            (a * c, [p * c for p in x]),
            (c * a, [c * p for p in x]),
            (a.truncate(cut), x[:cut + 1]),
            ((a - TruncatedSeries.constant(x[0], order)).divided_by_z(), x[1:]),
        ]
        for got, want in cases:
            _assert_canonical(got)
            k = len(want) - 1
            assert got.order == k
            assert all(type(v) is Fraction for _, v in got.pairs)
            assert got.pairs == tuple((n, v) for n, v in enumerate(want) if v)
            assert got.coeffs == tuple(want)
            assert TruncatedSeries(got.coeffs, k) == got
            built = TruncatedSeries(want, k)
            assert built == got and hash(built) == hash(got)
            assert got.low_order() == next((n for n, v in enumerate(want) if v), None)
            assert bool(got) == any(want)
        assert a - a == TruncatedSeries.zero(order) == a + (-a)
        assert hash(a - a) == hash(TruncatedSeries.zero(order))

    check()


def _sparse_random_series(rng, order, terms):
    powers = rng.sample(range(order + 1), min(terms, order + 1))
    return TruncatedSeries([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                            if n in powers else 0 for n in range(order + 1)], order)


def _from_numerators(series, scale):
    """The same series made as the PBW kernel makes its results: from int
    numerators over a common denominator, here not in lowest terms."""
    den = scale * lcm(*(c.denominator for _, c in series.pairs))
    numerators = {((), n): c.numerator * (den // c.denominator) for n, c in series.pairs}
    return _series_terms(numerators, series.order, den).get((), TruncatedSeries.zero(series.order))


@pytest.mark.parametrize("order", [0, 3, 8])
def test_int_backed_series_reads_like_fraction_pairs(order):
    rng = random.Random(24 + order)
    samples = [TruncatedSeries.zero(order), TruncatedSeries.one(order)] + [
        _sparse_random_series(rng, order, terms) for terms in (1, 1, 2, 3, order + 1)]
    for fractions in samples:
        read = _from_numerators(fractions, 6)
        _assert_canonical(read)
        assert read.triples == fractions.triples
        assert read.pairs == fractions.pairs
        assert all(type(c) is Fraction for _, c in read.pairs)
        assert read.coeffs == fractions.coeffs
        assert read == fractions and fractions == read
        assert hash(read) == hash(fractions)
        assert bool(read) == bool(fractions)
        assert read.low_order() == fractions.low_order()
        assert str(read) == str(fractions)
        assert read != _from_numerators(fractions + TruncatedSeries.one(order), 1)
        assert read != -fractions or not fractions


@pytest.mark.parametrize("order", [0, 3, 8])
def test_every_form_pairing_multiplies_to_the_fraction_reference(order):
    # the two forms of a product's operands: monomials, multiplied on two
    # triples, and multi-term series, summed over the product of two lcms
    rng = random.Random(8 * order + 1)
    k = order
    z_top = TruncatedSeries.z_power(k, k, Fraction(-5, 7))
    monomials = [
        TruncatedSeries.z_power(0, k, Fraction(2, 3)),
        TruncatedSeries.z_power(0, k, Fraction(3, 2)),      # 2/3 * 3/2 = 1
        TruncatedSeries.z_power(k // 2, k, Fraction(-4, 9)),
        TruncatedSeries.z_power(k - k // 3, k, Fraction(-27, 8)),
        z_top,                                              # past z^k with any z power
        TruncatedSeries.z_power(min(1, k), k, -6),
    ]
    multi = [_sparse_random_series(rng, k, terms) for terms in (2, 3, k + 1)]
    cases = monomials + multi
    for x in cases:
        for y in cases:
            want = tuple(_dense_product(x.coeffs, y.coeffs))
            got = x * y
            _assert_canonical(got)
            assert got.coeffs == want
            assert got == TruncatedSeries(want, k) and bool(got) == any(want)
    # a product of two monomials is reduced to lowest terms
    one = monomials[0] * monomials[1]
    assert one.triples == ((0, 1, 1),)
    assert one == TruncatedSeries.one(k)
    if k:
        past = z_top * TruncatedSeries.z_power(1, k, 3)
        assert past.triples == () and past == TruncatedSeries.zero(k)
        assert not past and past.low_order() is None


def test_int_backed_series_refuse_float_scalars():
    s = TruncatedSeries([Fraction(1, 3), 0, Fraction(-2, 5)])
    for product in (lambda: s * 0.5, lambda: 0.5 * s):
        with pytest.raises(TypeError):
            product()
    assert s.triples == ((0, 1, 3), (2, -2, 5))


def test_exp_sqrt_functional_identities_random():
    rng = random.Random(11)
    for order in (1, 2, 4, 6):
        for _ in range(10):
            a = _random_series(rng, order)
            nil = TruncatedSeries([Fraction(0)] + list(a.coeffs[1:]))
            assert nil.exp() * (-nil).exp() == TruncatedSeries.one(order)
            unit = TruncatedSeries([Fraction(1)] + list(a.coeffs[1:]))
            s = unit.sqrt()
            assert s * s == unit
            assert unit.inverse() * unit == TruncatedSeries.one(order)


def test_truncation_consistency_random():
    # computing at high order then truncating equals computing low order
    rng = random.Random(13)
    for _ in range(20):
        a, b = _random_series(rng, 6), _random_series(rng, 6)
        for kp in (0, 2, 4):
            assert (a * b).truncate(kp) == a.truncate(kp) * b.truncate(kp)
            assert (a + b).truncate(kp) == a.truncate(kp) + b.truncate(kp)


def test_floats_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries([0.5, 1])
    with pytest.raises(TypeError):
        S([1, 2]) * 0.5
    # complex and Decimal are inexact too: each used to be stored as given,
    # or to fail deep inside the product kernel
    alg = two_photon_algebra(2)
    inexact = [
        lambda: TruncatedSeries([1j, 0]),
        lambda: TruncatedSeries.z_power(1, 2, Decimal("0.1")),
        lambda: 0.5 * S([1, 2]),
        lambda: S([1, 2]) * 1j,
        lambda: alg.gen("N").scale(0.5j),
        lambda: alg.element({(1,): 0.5j}),
    ]
    for build in inexact:
        with pytest.raises(TypeError):
            build()
    # ints become Fractions, and Fractions pass; a series is over Q, so a
    # ComplexRational, even a real one, is refused
    assert TruncatedSeries([1, True]).pairs == ((0, Fraction(1)), (1, Fraction(1)))
    assert type(TruncatedSeries([3]).pairs[0][1]) is Fraction
    for c in (ComplexRational(0, 1), ComplexRational(1)):
        with pytest.raises(TypeError, match="ComplexRational"):
            TruncatedSeries([c])
        with pytest.raises(TypeError, match="ComplexRational"):
            S([1, 2]) * c


def test_scalar_parsing():
    assert parse_rational("1/10") == Fraction(1, 10)
    assert parse_rational("-3") == Fraction(-3)
    with pytest.raises(ValueError):
        parse_rational("x")
    assert parse_complex_rational("1/2+3/4i") == ComplexRational(
        Fraction(1, 2), Fraction(3, 4))
    assert parse_complex_rational("-i") == ComplexRational(0, -1)
    assert parse_complex_rational("2i") == ComplexRational(0, 2)
    assert parse_complex_rational("5/3") == ComplexRational(Fraction(5, 3))
    assert str(ComplexRational(Fraction(1, 2), Fraction(-1))) == "1/2-1i"


def test_complex_rational_string_round_trip():
    # a ComplexRational is a parsed and printed value: its string parses
    # back to an equal value, and a real one equals and hashes as its
    # Fraction
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    part = st.one_of(st.just(Fraction(0)), rational)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(part, part)
    def check(re, im):
        x = ComplexRational(re, im)
        assert type(x.re) is Fraction and type(x.im) is Fraction
        assert parse_complex_rational(str(x)) == x
        assert (x == re) == (not im) and bool(x) == bool(re or im)
        if not im:
            assert hash(x) == hash(re)

    check()
