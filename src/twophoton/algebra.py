"""PBW normal-ordering engine for the deformed generator algebras.

Elements are finite sums of PBW-ordered words (tuples of generator indices,
non-decreasing) with coefficients that are series in z truncated at z^k. One
recursion over raw words, ``QuantumAlgebra._nf``, does all the rewriting,
and one memo holds its normal forms. The generator orders of the built-in
algebras are chosen so that every relation term either strictly shortens the
word or carries a strictly positive z power; truncation then prunes the
exponential tails and rewriting terminates. A broken relation table that
rewrites without end surfaces as a ``NormalOrderError`` naming the word
instead of a hang.

Every product of elements, tensors or raw tensors, every residual of a
product identity and every commutator is one pass of one kernel,
``QuantumAlgebra._ordered``, entered through ``ordered_difference``:
``term_products`` and ``commutator_products`` make its raw streams from the
pairs of coefficient groups of ``_group_pairs``, and ``product_difference``
sets two products against each other.

Two algebras are built in:

* ``two_photon_algebra(order)``: generators B+ < N < M < A+ < A- < B-,
  with the z-deformed commutators, coproducts and antipodes of the
  two-photon algebra h6.
* ``schrodinger_algebra(order)``: generators H < D < M < P < K < C, the
  isomorphic deformed Schrodinger algebra in (1+1) dimensions.

Each is transcribed once, as order-free data: its relation, coproduct and
antipode tables (``H6_RELATIONS``, ``H6_COPRODUCTS``, ``H6_ANTIPODES`` and
the ``SCH_`` three) are rows in one format, polynomial terms and
exponentials in the first generator, expanded at the requested order: the
relation rows when the algebra is built, the coproduct and antipode rows
when the algebra first reads those tables. A generator without a coproduct
or antipode row is primitive, as a generator pair without a relation row
commutes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby
from math import factorial, gcd, lcm
from operator import add

from .series import TruncatedSeries, _series_terms
from .sparse import SparseTerms, collect, linear_combination, monomial, render_sum

__all__ = [
    "NormalOrderError",
    "NCElement",
    "TensorElement",
    "QuantumAlgebra",
    "commutator_products",
    "ordered_difference",
    "product_difference",
    "product_triples",
    "term_products",
    "two_photon_algebra",
    "schrodinger_algebra",
    "H6_GENERATORS",
    "SCH_GENERATORS",
]

H6_GENERATORS = ("B+", "N", "M", "A+", "A-", "B-")
SCH_GENERATORS = ("H", "D", "M", "P", "K", "C")


class NormalOrderError(RuntimeError):
    """Rewriting did not terminate on a word with a nonzero coefficient (a
    zero term is never rewritten); signals an inconsistent relation table."""

    def __init__(self, algebra_name, word):
        self.word = word
        super().__init__(
            f"normal ordering hit the recursion limit in {algebra_name} on word {word!r}")


def _first_inversion(word):
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            return i
    return None


def _combine(parts, order):
    """sum_i c_i / d_i * z^(n_i) * entry_i as a reduced memo entry.

    Each part is (c, d, n, (e, ((word id, m, x), ...))) with int c, d, e,
    x; terms past z^order are dropped, and the result is (D, ((word id,
    n + m, numerator), ...)) over the lcm D of the parts' denominators
    d * e, divided by the gcd of D and its nonzero numerators.
    """
    den = lcm(*(d * e for _, d, _, (e, _) in parts))
    acc = {}
    for c, d, n, (e, terms) in parts:
        s = c * (den // (d * e))
        for i, m, x in terms:
            if n + m <= order:
                key = (i, n + m)
                acc[key] = acc.get(key, 0) + s * x
    g = gcd(den, *acc.values())
    return den // g, tuple([(i, m, x // g) for (i, m), x in acc.items() if x])


def _grow(acc, den, b):
    """The least multiple of the denominator ``den`` that ``b`` divides, with
    the numerators of ``acc`` rescaled onto it in place."""
    grow = b // gcd(den, b)
    for key in acc:
        acc[key] *= grow
    return den * grow


def product_triples(a, b, order):
    """The (z power, numerator, denominator) triples of the product of two
    series' triples, up to z^order: one triple per surviving pair, neither
    reduced nor collected, for a raw stream of the product kernel. The list
    is empty when no pair survives, and the kernel then skips the term."""
    return [(i + j, x * u, y * v) for i, x, y in a for j, u, v in b if i + j <= order]


def _group_pairs(a_terms, b_terms, order):
    """(sa, keys of a, [(sb, keys of b), ...]) for each coefficient group of
    a, with the groups of b whose product with it survives z^order, from two
    factors' (key, series) terms.

    The one pairing of two factors. Each factor's terms are grouped by
    coefficient object, so a pair of groups costs one series product, which
    every key pair of the two groups shares. Grouping on ``id`` is exact for
    any input, and the kernel's results share equal coefficients, so
    products of its results (the R-matrix and its embeddings, above all)
    form far fewer groups than terms. b's groups are listed by low z order
    once, so a group of a with low order la visits only the groups of low
    order 0 .. k - la and no rejected pair.
    """
    buckets = [[] for _ in range(order + 1)]
    for sb, wbs in _coefficient_groups(b_terms):
        buckets[sb.low_order()].append((sb, wbs))
    # up_to[j]: the groups of b of low order 0 .. j
    up_to = list(accumulate(buckets))
    for sa, was in _coefficient_groups(a_terms):
        yield sa, was, up_to[order - sa.low_order()]


def _coefficient_groups(terms):
    """(series, [keys]) for each coefficient object of (key, series) terms."""
    groups = {}
    for key, s in terms:
        group = groups.get(id(s))
        if group is None:
            groups[id(s)] = (s, [key])
        else:
            group[1].append(key)
    return groups.values()


def term_products(a, b):
    """(raw legs, triples of s_a * s_b) for the pairs of terms that survive
    truncation.

    The terms of a pair of groups from ``_group_pairs`` come out one after
    another with the triples of one series, a run whose coefficient the
    kernel reads once. The pair's product stays one reduced
    ``TruncatedSeries`` product, not ``product_triples``: the benchmark's
    tracer (``bench/tracer.py``) times series multiplication through
    ``TruncatedSeries.__mul__``, and its traced run expects that layer under
    the rank-3 tensor product.
    """
    join = a._join
    for sa, was, partners in _group_pairs(a.terms.items(), b.terms.items(), a.algebra.order):
        for sb, wbs in partners:
            s = (sa * sb).triples
            for wa in was:
                for wb in wbs:
                    yield join(wa, wb), s


def commutator_products(a, b):
    """(raw a*b, raw b*a) over only the pairs of terms of a and b that do
    not commute letter by letter, for ``ordered_difference(a, ab, ba)``,
    which is then [a, b].

    A pair of keys (u, v) is skipped when, leg by leg, each letter of u
    commutes with each letter of v: their row of the truncated relation
    table, read into ``QuantumAlgebra._blocking``, is empty. The skip is
    exact for any table: u and v are PBW, so each inversion of the raw word
    u + v pairs two such letters, and every rewriting step swaps two of them
    by an empty row, with coefficient 1, leaving fewer inversions of the
    same kind. So u + v and v + u both normal-order to their sorted letters
    with coefficient 1 and cancel; for a confluent table, as the built-in
    ones are, this is also the algebra's uv = vu.

    A key's letters, and the letters that one of them does not commute
    with, are one bitmask each, leg i at bits i*n to i*n + n - 1 for n
    generators, so a pair is kept when one AND is nonzero. A pair of
    coefficient groups from ``_group_pairs`` costs one series product,
    shared by both streams, only when it keeps a pair of keys.
    """
    a._require_same(b)
    alg = a.algebra
    join = a._join
    legs = a._legs
    n = len(alg.generators)

    def masked(x, table):
        # each key with the OR of table[g] << i*n over the letters g of its leg i
        for key, s in x.terms.items():
            mask = 0
            for i, leg in enumerate(legs(key)):
                for g in leg:
                    mask |= table[g] << i * n
            yield (key, mask), s

    kept = []
    for sa, was, partners in _group_pairs(masked(a, alg._blocking),
                                          masked(b, [1 << g for g in range(n)]), alg.order):
        for sb, wbs in partners:
            pairs = [(wa, wb) for wa, blocked in was for wb, letters in wbs if blocked & letters]
            if pairs:
                kept.append((pairs, (sa * sb).triples))
    return (((join(wa, wb), s) for pairs, s in kept for wa, wb in pairs),
            ((join(wb, wa), s) for pairs, s in kept for wa, wb in pairs))


def product_difference(a, b, c, d):
    """a*b - c*d in one pass of the product kernel.

    Both sides' raw terms feed one ``QuantumAlgebra._ordered`` call, c*d's
    with negated numerators, so neither product is built: only the terms
    that survive the cancellation become series. An identity residual that
    vanishes costs no Fraction at all.
    """
    for x in (b, c, d):
        a._require_same(x)
    return ordered_difference(a, term_products(a, b), term_products(c, d))


def ordered_difference(like, raw, minus=()):
    """The normal-ordered sum of the raw (legs, triples) terms of ``raw``
    minus those of ``minus``, as an element of ``like``'s space.

    The one entry to the product kernel ``QuantumAlgebra._ordered``: a
    product, the residual of a product identity and the residual of a Hopf
    axiom are each one call. Legs are raw words, one per tensor leg and
    one for an element, and a coefficient is a sequence of int (z power,
    numerator, denominator) triples with positive denominators, a series'
    ``triples`` or ``product_triples``; the caller keeps every stream in
    ``like``'s space. A term with empty triples is skipped unread, its legs
    never normal-ordered.
    """
    return like._from_ordered(like.algebra._ordered(raw, minus))


class _PBWTerms(SparseTerms):
    """A sum of PBW words or of tensors of them, multiplied by the one kernel.

    A subclass gives ``_join``, the raw legs of the product of two keys,
    ``_legs``, the words of one key, and ``_from_ordered``, its element of
    the kernel's {legs: series} map,
    whose coefficients are nonzero already and so are not filtered again;
    the coproduct and antipode memos hand their maps over the same way.
    """

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.scale(other)
        self._require_same(other)
        return ordered_difference(self, term_products(self, other))

    def commutator(self, other):
        """[self, other] in one pass of the kernel over the pairs of terms
        that do not commute; a scalar commutes with everything."""
        if not isinstance(other, SparseTerms):
            return self._new({})
        return ordered_difference(self, *commutator_products(self, other))


class NCElement(_PBWTerms):
    """Sum of PBW-ordered words with TruncatedSeries coefficients."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms):
        self.algebra = algebra
        super().__init__((algebra,), terms)

    @staticmethod
    def _join(a, b):
        return (a + b,)

    @staticmethod
    def _legs(word):
        return (word,)

    def _from_ordered(self, ordered):
        return self._holding(self.space, {w: s for (w,), s in ordered.items()})

    def coefficient(self, word):
        return self.terms.get(tuple(word), self.algebra.zero_series())

    def __str__(self):
        return render_terms(self.algebra, self.terms)

    def __repr__(self):
        return f"<NCElement {self} in {self.algebra.name}>"


class TensorElement(_PBWTerms):
    """Tensor of any rank >= 1 with legs in PBW normal form.

    The tensor product is over the scalar series ring: multiplication acts
    legwise and there are no cross-leg relations.
    """

    __slots__ = ("algebra", "rank")

    def __init__(self, algebra, rank, terms):
        if rank < 1:
            raise ValueError("tensor rank must be at least 1")
        self.algebra = algebra
        self.rank = rank
        super().__init__((algebra, rank), terms)

    @property
    def _join(self):
        return _LEG_JOINS.get(self.rank, _join_legs)

    @staticmethod
    def _legs(legs):
        return legs

    def _from_ordered(self, ordered):
        return self._holding(self.space, ordered)

    def swap(self):
        """Flip the two legs of a rank-2 tensor."""
        if self.rank != 2:
            raise ValueError("swap needs rank 2")
        return TensorElement(self.algebra, 2,
                             {(w2, w1): s for (w1, w2), s in self.terms.items()})

    def embed3(self, positions):
        """Embed a rank-2 tensor into rank 3 at two distinct leg positions in 0..2."""
        if self.rank != 2:
            raise ValueError("embed3 needs rank 2")
        i, j = positions
        if i == j or i not in range(3) or j not in range(3):
            raise ValueError(f"embed3 needs two distinct legs in 0..2, got {positions!r}")

        def embedded(w1, w2):
            legs = [(), (), ()]
            legs[i], legs[j] = w1, w2
            return tuple(legs)

        return TensorElement(self.algebra, 3,
                             {embedded(*words): s for words, s in self.terms.items()})

    def __str__(self):
        return render_sum(self.terms, lambda words: " @ ".join(
            word_name(self.algebra, w) or "1" for w in words), _tensor_sort_key)

    def __repr__(self):
        return f"<TensorElement rank {self.rank}: {self}>"


def _join_legs(a, b):
    return tuple(map(add, a, b))


# the legs of a product of two rank-2 or rank-3 keys, joined leg by leg
_LEG_JOINS = {
    2: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    3: lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
}


def _word_sort_key(word):
    return (len(word), word)


def _tensor_sort_key(words):
    return tuple(_word_sort_key(w) for w in words)


def word_name(algebra, word):
    """Render a PBW word like B+^2*N with generator names."""
    return monomial(*((algebra.generators[g], len(list(run))) for g, run in groupby(word)))


def render_terms(algebra, terms):
    return render_sum(terms, lambda word: word_name(algebra, word), _word_sort_key)


class _NormalForms(dict):
    """The one normal-form memo, {raw word: (d, ((word id, z power,
    numerator), ...))} over a positive d with gcd(d, *numerators) == 1, with
    the numbering of its words.

    Every PBW word in an entry is a small int id: ``words`` lists the words
    by id, and ``ids`` maps each to its id, and also each raw word whose
    normal form is one word with coefficient 1 (commuting letters out of
    order) to that word's id, the form in which the product kernel reads
    such a leg. Entries are only ever added, and clearing the memo clears
    the numbering, so no id outlives the normal forms it was given for. It
    clears ``blocking`` too, the commuting generators of the table, which
    ``QuantumAlgebra._blocking`` reads again on the next commutator.
    """

    __slots__ = ("ids", "words", "blocking")

    def __init__(self):
        super().__init__()
        self.ids = {}
        self.words = []
        self.blocking = None

    def clear(self):
        super().clear()
        self.ids.clear()
        self.words.clear()
        self.blocking = None

    def word_id(self, word):
        """The id of a PBW word, given on first sight."""
        i = self.ids.get(word)
        if i is None:
            i = self.ids[word] = len(self.words)
            self.words.append(word)
        return i


class QuantumAlgebra:
    """A deformed enveloping algebra given by explicit PBW tables.

    ``relations`` maps each generator pair (hi, lo) with hi > lo to the
    normal form of [X_hi, X_lo]; the reversed bracket is the negative.
    Coproduct and antipode tables hold the values on generators and are
    extended multiplicatively / anti-multiplicatively. Every generator has
    counit 0, so the counit is the augmentation: 1 on the empty word, 0 on
    any other. Tables are fixed after construction and every operation is
    pure up to idempotent memo caches, so results never depend on
    evaluation order.

    Construction expands and checks the relation table only. The
    coproduct and antipode tables are made on first read, the antipode
    values normal-ordered then, from the ``coproduct`` and ``antipode``
    arguments: maps from each generator index to its raw terms, which the
    algebra keeps and reads once per index at that first read, so the
    caller leaves them as they are. A build whose Hopf tables go unread
    normal-orders nothing. A bad coefficient in either table, a float say,
    raises its ``TypeError`` at that first read, not at construction.

    The relation table maps (word, z power) to one Fraction; the memo of
    normal forms holds int word ids and int numerators over one reduced
    denominator per entry, and ``_ordered`` is the one product kernel over
    it. Clearing the memo clears its numbering of words and which
    generators commute, so a table changed behind the algebra's back, with
    the memo cleared, gives the products and commutators of the changed
    table.
    The coproduct and antipode tables and their memos hold plain
    {key: series} maps, wrapped into elements on access: an element points
    back at its algebra, so tables of elements would keep every algebra in
    a reference cycle until the cyclic collector ran.
    """

    def __init__(self, name, generators, order, relations, coproduct, antipode):
        self.name = name
        self.generators = tuple(generators)
        self.order = order
        self._one = TruncatedSeries.one(order)
        self._zero = TruncatedSeries.zero(order)
        self._nf_cache = _NormalForms()
        self._cop_cache = {}
        self._anti_cache = {}

        self._relations = {}
        n = len(self.generators)
        for hi in range(n):
            for lo in range(hi):
                value = {(w, p): c for w, s in relations.get((hi, lo), {}).items()
                         for p, c in self._as_series(s).pairs}
                self._check_relation((hi, lo), value)
                self._relations[(hi, lo)] = value

        # read per generator index on first read of the tables
        self._coproduct_rows = coproduct
        self._antipode_rows = antipode

    @property
    def _blocking(self):
        """Bit h of entry g is set when X_g and X_h do not commute in the
        truncated table: their row is not empty. Read off the table on first
        use and kept with the memo, so clearing the memo reads it again."""
        memo = self._nf_cache
        if memo.blocking is None:
            n = len(self.generators)
            memo.blocking = [sum(1 << h for h in range(n)
                                 if self._relations.get((max(g, h), min(g, h))))
                             for g in range(n)]
        return memo.blocking

    @cached_property
    def coproduct_table(self):
        """{generator index: {(left word, right word): series}}, made on first read."""
        rows = self._coproduct_rows
        return {i: collect((legs, self._as_series(c)) for legs, c in rows[i].items())
                for i in range(len(self.generators))}

    @cached_property
    def antipode_table(self):
        """{generator index: {PBW word: series}}, made on first read: the
        values may arrive as raw words, which this normal-orders."""
        rows = self._antipode_rows
        return {i: self.normal_terms(rows[i]) for i in range(len(self.generators))}

    def _as_series(self, c):
        return c if isinstance(c, TruncatedSeries) else self._one * c

    def __repr__(self):
        return f"<QuantumAlgebra {self.name} k={self.order}>"

    # -- table sanity ---------------------------------------------------------

    def _check_relation(self, pair, value):
        """Terms must shorten the word or carry a positive z power.

        This is the termination precondition for the rewriting loop; checking
        it here converts a transcription slip into an immediate error.
        """
        for word, power in value:
            if tuple(sorted(word)) != word:
                raise ValueError(f"relation {pair}: word {word} is not PBW ordered")
            if len(word) > 1 and power == 0:
                raise ValueError(
                    f"relation {pair}: term {word} neither shortens nor carries z")

    # -- element constructors -------------------------------------------------

    def zero_series(self):
        return self._zero

    def one_series(self):
        return self._one

    def zero(self):
        return NCElement(self, {})

    def one(self):
        return NCElement(self, {(): self._one})

    def gen_index(self, name):
        try:
            return self.generators.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r} in {self.name}") from None

    def gen(self, name):
        return NCElement(self, {(self.gen_index(name),): self._one})

    def element(self, raw_terms):
        """Build an element from a raw {word: coefficient} map, normal ordering it."""
        return NCElement(self, self.normal_terms(raw_terms))

    def tensor_one(self, rank=2):
        return TensorElement(self, rank, {((),) * rank: self._one})

    def tensor(self, raw_terms, rank=2):
        """Build a tensor from a raw {legs: coefficient} map, normal ordering each leg."""
        return TensorElement(self, rank, self._ordered(
            (tuple(map(tuple, legs)), self._as_series(c).triples)
            for legs, c in raw_terms.items()))

    # -- normal ordering ------------------------------------------------------

    def normal_word(self, word):
        """PBW normal form of one raw word, as a {word: series} map."""
        return self.normal_terms({tuple(word): 1})

    def normal_terms(self, raw_terms):
        """Normal form of a raw {word: coefficient} map, as a {word: series} map."""
        ordered = self._ordered(
            ((tuple(word),), self._as_series(c).triples) for word, c in raw_terms.items())
        return {w: s for (w,), s in ordered.items()}

    def _ordered(self, raw, minus=()):
        """Normal-ordered {legs: series} of the sum of the raw (legs,
        triples) terms of ``raw`` minus those of ``minus``.

        The one product kernel of the engine. It works on the memo's word
        ids: a raw leg whose normal form is one word with coefficient 1 is
        that word's id in ``ids`` (a PBW leg is its own), and any other is
        read as its memo entry, (d, ((id, z power, numerator), ...)). Every
        coefficient of a raw stream is int triples (z power, numerator,
        denominator), not a series: a series' ``triples``, or the unreduced
        ``product_triples`` of two, so a residual whose coefficients are
        products of table entries makes no series for them. The triples are
        read once per run of consecutive raw terms that share one triples
        object, the numerators negated for ``minus``. A raw term with no
        triples, one that truncation has emptied, is skipped before any of
        its legs is looked up, so no word of it is normal-ordered, numbered
        or memoised. A raw term whose legs are all single words goes
        straight into the accumulator, keyed by (tuple of leg ids, z power);
        any other is expanded at its other legs, and a partial product past
        z^k is dropped before the next one. Both sums accumulate in one dict
        of numerators over a running denominator, rescaled in the rare case
        that a new denominator grows it. Ids become words again only for the
        terms that do not cancel, in ``series._series_terms``, which
        regroups them into one series per tuple of legs, one series per
        distinct coefficient: equal coefficients of the result are one
        object, one coefficient group of ``_group_pairs`` when the result is
        a factor again.
        """
        k = self.order
        memo = self._nf_cache
        leg_id = memo.ids.get
        entry = memo.get
        acc = {}
        den = 1
        for sign, stream in ((1, raw), (-1, minus)):
            last = None
            for legs, triples in stream:
                if not triples:
                    continue
                if triples is not last:
                    last = triples
                    # (legs so far, z power, numerator, denominator) of each
                    # pair, the start of a term's expansion
                    pairs = [((), n, sign * x, d) for n, x, d in triples]
                    scaled = None
                ids = tuple(map(leg_id, legs))
                if None not in ids:
                    if scaled is None:
                        # the run's numerators over the running denominator
                        for _, _, _, b in pairs:
                            if den % b:
                                den = _grow(acc, den, b)
                        scaled = [(n, a * (den // b)) for _, n, a, b in pairs]
                    for n, x in scaled:
                        key = (ids, n)
                        acc[key] = acc.get(key, 0) + x
                    continue
                partial = pairs
                run = ()
                for leg, form in zip(legs, ids):
                    if form is None:
                        form = entry(leg) or self._leg_form(leg)
                    if type(form) is int:
                        run += (form,)
                    else:
                        d, expansion = form
                        partial = [(w + run + (i,), n + m, a * x, b * d)
                                   for w, n, a, b in partial
                                   for i, m, x in expansion if n + m <= k]
                        run = ()
                for w, n, a, b in partial:
                    if den % b:
                        den = _grow(acc, den, b)
                        scaled = None
                    key = (w + run, n)
                    acc[key] = acc.get(key, 0) + a * (den // b)
        return _series_terms(acc, k, den, memo.words)

    def _leg_form(self, leg):
        """The kernel's form of a raw leg that is neither in ``ids`` nor in
        the memo: the id of a PBW leg, which needs no memo entry, else the
        leg's new memo entry."""
        if _first_inversion(leg) is None:
            return self._nf_cache.word_id(leg)
        return self._normal_form(leg)

    def _normal_form(self, word):
        """``_nf`` for a caller outside the rewriting: a rewriting that never
        ends exhausts the recursion limit and is reported on its word."""
        try:
            return self._nf(word)
        except RecursionError:
            raise NormalOrderError(self.name, word) from None

    # The pieces of a memo entry are built by list comprehensions, not
    # generators: each rewriting level then nests two frames, not three, on
    # the way to the recursion limit (a stripped run adds one).

    def _nf(self, word):
        """Normal form of a raw word as (d, ((word id, z power, numerator),
        ...)), split at its first inversion; a word whose normal form is
        one word with coefficient 1 is also recorded in ``ids``.

        A word 0^j + tail with j >= 1 and an inversion in tail has the
        normal form of tail with 0^j prepended to every word: generator 0
        is the lowest letter, so no rewriting touches the run, and 0^j + v
        is PBW for every PBW word v. The tails of B+^j ..., H^j ... are
        then rewritten once, not once per power. Otherwise, with word =
        prefix + (g,) + rest, prefix sorted and NF(prefix + (g,)) = sum_v
        s_v v, the normal form is sum_v s_v NF(v + rest); rest shrinks by
        one letter at every level that does not strip a run. A word whose
        only inversion is its last pair, head + (h, g) with h > g, is
        rewritten by the relation [h, g]: with NF(head + (g,)) = sum_v s_v
        v, its normal form is sum_v s_v NF(v + (h,)) + head * [h, g], the
        Fraction coefficients of the relation entering as their numerators
        and denominators. The pieces are combined over the lcm of their
        denominators.
        """
        memo = self._nf_cache
        cached = memo.get(word)
        if cached is not None:
            return cached
        words = memo.words
        i = _first_inversion(word)
        if i is None:
            out = (1, ((memo.word_id(word), 0, 1),))
        elif word[0] == 0:
            j = 1
            while word[j] == 0:
                j += 1
            run = word[:j]
            d, terms = self._nf(word[j:])
            word_id = memo.word_id
            out = (d, tuple([(word_id(run + words[v]), n, x) for v, n, x in terms]))
        elif i + 2 < len(word):
            d, terms = self._nf(word[:i + 2])
            rest = word[i + 2:]
            out = _combine([(c, d, n, self._nf(words[v] + rest))
                            for v, n, c in terms], self.order)
        else:
            head, h, g = word[:-2], word[-2], word[-1]
            d, first = self._nf(head + (g,))
            out = _combine(
                [(c, d, n, self._nf(words[v] + (h,))) for v, n, c in first]
                + [(c.numerator, c.denominator, n, self._nf(head + rw))
                   for (rw, n), c in self._relations[(h, g)].items()],
                self.order)
        d, terms = out
        if d == 1 and len(terms) == 1 and terms[0][1:] == (0, 1):
            memo.ids[word] = terms[0][0]
        memo[word] = out
        return out

    # -- structure maps -------------------------------------------------------

    def relation(self, x, y):
        """[X, Y] for generator names, straight from the table."""
        i, j = self.gen_index(x), self.gen_index(y)
        if i == j:
            return self.zero()
        if i > j:
            return NCElement(self, self._relation_terms((i, j)))
        return -NCElement(self, self._relation_terms((j, i)))

    def _relation_terms(self, pair):
        """[X_hi, X_lo] for a generator pair (hi, lo) as a {word: series} map."""
        return collect((w, TruncatedSeries.z_power(n, self.order, c))
                       for (w, n), c in self._relations[pair].items())

    def commutator(self, x, y):
        return x.commutator(y)

    def coproduct_word(self, word):
        """Delta(word) = Delta(word[:-1]) * Delta(word[-1]), memoised per word."""
        cached = self._cop_cache.get(word)
        if cached is None:
            if word:
                out = self.coproduct_word(word[:-1]) * TensorElement(
                    self, 2, self.coproduct_table[word[-1]])
            else:
                out = self.tensor_one()
            self._cop_cache[word] = cached = out.terms
        return TensorElement._holding((self, 2), cached)

    def coproduct(self, elem):
        self.zero()._require_same(elem)
        return TensorElement(self, 2, linear_combination(
            (self.coproduct_word(w), s) for w, s in elem.terms.items()))

    def antipode_word(self, word):
        """gamma(word) = gamma(word[-1]) * gamma(word[:-1]), memoised per word."""
        cached = self._anti_cache.get(word)
        if cached is None:
            if word:
                out = NCElement(self, self.antipode_table[word[-1]]) * self.antipode_word(
                    word[:-1])
            else:
                out = self.one()
            self._anti_cache[word] = cached = out.terms
        return NCElement._holding((self,), cached)

    def antipode(self, elem):
        self.zero()._require_same(elem)
        return NCElement(self, linear_combination(
            (self.antipode_word(w), s) for w, s in elem.terms.items()))

    def counit_word(self, word):
        """eps(word): 1 on the empty word, 0 on any other."""
        return self._zero if word else self._one

    def counit(self, elem):
        """eps(elem), the coefficient of the empty word."""
        self.zero()._require_same(elem)
        return elem.terms.get((), self._zero)

    # -- export ---------------------------------------------------------------

    def to_json_dict(self):
        """Spec dump: generator order and all tables, coefficients as fraction pairs.

        The central generators are those in no nonzero relation of the
        truncated table, and the counit lists the zero series of each
        generator.
        """

        def series_json(s):
            return [[c.numerator, c.denominator] for c in s.coeffs]

        def words_json(terms):
            return [
                {"word": [self.generators[g] for g in w], "series": series_json(s)}
                for w, s in sorted(terms.items(), key=lambda kv: _word_sort_key(kv[0]))
            ]

        def tensor_json(terms):
            return [
                {"legs": [[self.generators[g] for g in w] for w in words],
                 "series": series_json(s)}
                for words, s in sorted(terms.items(), key=lambda kv: _tensor_sort_key(kv[0]))
            ]

        bracketed = {g for pair, value in self._relations.items() if value for g in pair}
        return {
            "name": self.name,
            "order": self.order,
            "generators": list(self.generators),
            "central": sorted(g for i, g in enumerate(self.generators) if i not in bracketed),
            "relations": {
                f"[{self.generators[hi]},{self.generators[lo]}]":
                    words_json(self._relation_terms((hi, lo)))
                for hi, lo in sorted(self._relations)
            },
            "coproduct": {
                self.generators[i]: tensor_json(terms)
                for i, terms in sorted(self.coproduct_table.items())
            },
            "antipode": {
                self.generators[i]: words_json(terms)
                for i, terms in sorted(self.antipode_table.items())
            },
            "counit": {g: series_json(self._zero) for g in self.generators},
        }


# -- built-in algebras ---------------------------------------------------------


def _exp_words(gen, base, order, lo=0, zshift=0, scale=Fraction(1), suffix=()):
    """Words gen^n * suffix with coefficient scale * base^n / n! at z^(n+zshift)."""
    out = {}
    n = lo
    while n + zshift <= order:
        coeff = scale * Fraction(base) ** n / factorial(n)
        out[(gen,) * n + suffix] = TruncatedSeries.z_power(n + zshift, order, coeff)
        n += 1
    return out


# One row format serves the relation, coproduct and antipode tables. A row
# stands for one sum at every truncation order: (terms, exps), with terms
# mapping each word to its (z power, coefficient) and each exponential
# (scale, base, lo, zshift, suffix) standing for scale z^zshift sum_{n >= lo}
# (base z X)^n / n! suffix, X the first generator. Words name the generators.
# * A relation row is the normal form of [hi, lo]; pairs without a row
#   commute.
# * The coproduct entry of X maps each left leg L to a row R_L: Delta(X) =
#   1 (x) X + sum_L L (x) R_L.
# * The antipode entry of X maps each left factor L to a row R_L: gamma(X) =
#   sum_L L R_L, as raw words that the engine normal-orders.
# A generator without a coproduct or antipode entry is primitive: Delta(X) =
# 1 (x) X + X (x) 1 and gamma(X) = -X. Every counit vanishes.

H6_RELATIONS = {
    ("N", "B+"): ({}, ((1, 2, 1, -1, ()),)),  # (e^{2zB+} - 1)/z
    ("A+", "N"): ({("A+",): (0, -1)}, ()),
    ("A-", "B+"): ({}, ((2, 2, 0, 0, ("A+",)),)),  # 2 e^{2zB+} A+
    ("A-", "N"): ({("A-",): (0, 1)}, ()),
    ("A-", "A+"): ({("M",): (0, 1)}, ()),
    ("B-", "B+"): ({("N",): (0, 4)}, ((2, 2, 0, 0, ("M",)),)),  # 4N + 2M e^{2zB+}
    ("B-", "N"): ({("B-",): (0, 2), ("N", "N"): (1, 4)}, ()),
    ("B-", "A+"): ({("A-",): (0, 2), ("A+",): (1, 2), ("N", "A+"): (1, -4)}, ()),
    ("B-", "A-"): ({("A-",): (1, 2), ("N", "A-"): (1, 4)}, ()),
}

H6_COPRODUCTS = {
    "N": {("N",): ({}, ((1, 2, 0, 0, ()),))},  # 1 (x) N + N (x) e^{2zB+}
    "A+": {("A+",): ({}, ((1, -1, 0, 0, ()),))},  # 1 (x) A+ + A+ (x) e^{-zB+}
    # 1 (x) A- + A- (x) e^{zB+} + 2z N (x) e^{2zB+} A+
    "A-": {("A-",): ({}, ((1, 1, 0, 0, ()),)), ("N",): ({}, ((2, 2, 0, 1, ("A+",)),))},
    # 1 (x) B- + B- (x) e^{2zB+} + 2z N (x) e^{2zB+} M
    "B-": {("B-",): ({}, ((1, 2, 0, 0, ()),)), ("N",): ({}, ((2, 2, 0, 1, ("M",)),))},
}

H6_ANTIPODES = {
    "N": {("N",): ({}, ((-1, -2, 0, 0, ()),))},  # -N e^{-2zB+}
    "A+": {("A+",): ({}, ((-1, 1, 0, 0, ()),))},  # -A+ e^{zB+}
    # -(A- - 2z N A+) e^{-zB+}
    "A-": {("A-",): ({}, ((-1, -1, 0, 0, ()),)), ("N", "A+"): ({}, ((2, -1, 0, 1, ()),))},
    # -(B- - 2z N M) e^{-2zB+}
    "B-": {("B-",): ({}, ((-1, -2, 0, 0, ()),)), ("N", "M"): ({}, ((2, -2, 0, 1, ()),))},
}

SCH_RELATIONS = {
    ("D", "H"): ({}, ((Fraction(-1, 2), 4, 1, -1, ()),)),  # (1 - e^{4zH})/(2z)
    ("P", "D"): ({("P",): (0, 1)}, ()),
    ("K", "H"): ({}, ((1, 4, 0, 0, ("P",)),)),  # e^{4zH} P
    ("K", "D"): ({("K",): (0, -1)}, ()),
    ("K", "P"): ({("M",): (0, 1)}, ()),
    # -D + (e^{4zH} - 1)/2 M
    ("C", "H"): ({("D",): (0, -1)}, ((Fraction(1, 2), 4, 1, 0, ("M",)),)),
    # -2C - 2z(D + M/2)^2
    ("C", "D"): ({("C",): (0, -2), ("D", "D"): (1, -2), ("D", "M"): (1, -2),
                  ("M", "M"): (1, Fraction(-1, 2))}, ()),
    ("C", "P"): ({("K",): (0, 1), ("D", "P"): (1, 2), ("P",): (1, 1), ("M", "P"): (1, 1)}, ()),
    ("C", "K"): ({("D", "K"): (1, -2), ("K",): (1, 1), ("M", "K"): (1, -1)}, ()),
}

# The Galilei Casimir P^2 - 2M (1 - e^{-4zH})/(4z), central in the subalgebra
# spanned by H, P, M and K, as one row; realized, it is the discrete-time
# Schrodinger equation operator.
SCH_CASIMIR = ({("P", "P"): (0, 1)}, ((Fraction(1, 2), -4, 1, -1, ("M",)),))

SCH_COPRODUCTS = {
    "D": {("D",): ({}, ((1, 4, 0, 0, ()),)),  # 1 (x) D + D (x) e^{4zH}
          ("M",): ({}, ((Fraction(1, 2), 4, 1, 0, ()),))},  # + M (x) (e^{4zH} - 1)/2
    "P": {("P",): ({}, ((1, -2, 0, 0, ()),))},  # 1 (x) P + P (x) e^{-2zH}
    # 1 (x) K + K (x) e^{2zH} - 2z (D + M/2) (x) e^{4zH} P
    "K": {("K",): ({}, ((1, 2, 0, 0, ()),)), ("D",): ({}, ((-2, 4, 0, 1, ("P",)),)),
          ("M",): ({}, ((-1, 4, 0, 1, ("P",)),))},
    # 1 (x) C + C (x) e^{4zH} - z (D + M/2) (x) e^{4zH} M
    "C": {("C",): ({}, ((1, 4, 0, 0, ()),)), ("D",): ({}, ((-1, 4, 0, 1, ("M",)),)),
          ("M",): ({}, ((Fraction(-1, 2), 4, 0, 1, ("M",)),))},
}

SCH_ANTIPODES = {
    "D": {("D",): ({}, ((-1, -4, 0, 0, ()),)),  # -D e^{-4zH}
          ("M",): ({}, ((Fraction(-1, 2), -4, 1, 0, ()),))},  # - M/2 (e^{-4zH} - 1)
    "P": {("P",): ({}, ((-1, 2, 0, 0, ()),))},  # -P e^{2zH}
    # -(K + 2z DP + z MP) e^{-2zH}
    "K": {("K",): ({}, ((-1, -2, 0, 0, ()),)), ("D", "P"): ({}, ((-2, -2, 0, 1, ()),)),
          ("M", "P"): ({}, ((-1, -2, 0, 1, ()),))},
    # -(C + z DM + z M^2/2) e^{-4zH}
    "C": {("C",): ({}, ((-1, -4, 0, 0, ()),)), ("D", "M"): ({}, ((-1, -4, 0, 1, ()),)),
          ("M", "M"): ({}, ((Fraction(-1, 2), -4, 0, 1, ()),))},
}


def _row_terms(terms, exps, index, order):
    """The {word: series} sum of one row, truncated at z^order; ``index``
    maps each generator name to its index."""
    word = lambda names: tuple(index[g] for g in names)
    return collect(chain(
        ((word(w), TruncatedSeries.z_power(p, order, c)) for w, (p, c) in terms.items()),
        *(_exp_words(0, base, order, lo=lo, zshift=zshift, scale=scale,
                     suffix=word(suffix)).items()
          for scale, base, lo, zshift, suffix in exps)))


def _realized_words(pairs, memo):
    """sum c image(w) over (word, coefficient) pairs through ``memo``, which
    maps the empty word to the identity, each letter and each word met to its
    image: a word's from its longest memoised prefix, one product per prefix."""
    def image(word):
        n = next(n for n in range(len(word), -1, -1) if word[:n] in memo)
        for i in range(n, len(word)):
            memo[word[:i + 1]] = memo[word[:i]] * memo[word[i:i + 1]]
        return memo[word]

    return memo[()]._new(linear_combination((image(w), c) for w, c in pairs if c))


class _Expanded:
    """A table read by index whose entries are made on each read, by
    ``expand``; ``QuantumAlgebra`` reads each once."""

    __slots__ = ("expand",)

    def __init__(self, expand):
        self.expand = expand

    def __getitem__(self, i):
        return self.expand(i)


def _row_algebra(name, generators, order, relations, coproducts, antipodes):
    """The algebra given by relation, coproduct and antipode row tables,
    truncated at z^order.

    The relation rows are expanded here. A generator's coproduct or
    antipode row is expanded only when the algebra first reads that table,
    from a copy of the row tables taken here: an entry or a row replaced
    after the build leaves the algebra as it was.
    """
    index = {g: i for i, g in enumerate(generators)}

    def expanded(rows, unit, place):
        # the {place(L, word): series} of a generator index over its rows,
        # by default X times the unit: the primitive X (x) 1 and -X
        rows = {x: dict(entry) for x, entry in rows.items()}

        def expand(i):
            x = generators[i]
            return collect(
                (place(tuple(index[g] for g in left), w), s)
                for left, row in rows.get(x, {(x,): ({(): (0, unit)}, ())}).items()
                for w, s in _row_terms(*row, index, order).items())

        return expand

    coproduct = expanded(coproducts, 1, lambda left, w: (left, w))
    return QuantumAlgebra(
        name, generators, order,
        relations={(index[x], index[y]): _row_terms(*row, index, order)
                   for (x, y), row in relations.items()},
        coproduct=_Expanded(lambda i: {((), (i,)): 1, **coproduct(i)}),
        antipode=_Expanded(expanded(antipodes, -1, add)))


def two_photon_algebra(order):
    """Deformed two-photon algebra U_z(h6) truncated at the given z order."""
    return _row_algebra("h6-twophoton", H6_GENERATORS, order,
                        H6_RELATIONS, H6_COPRODUCTS, H6_ANTIPODES)


def schrodinger_algebra(order):
    """Deformed Schrodinger algebra U_z(S(1+1)) truncated at the given z order."""
    return _row_algebra("schrodinger11", SCH_GENERATORS, order,
                        SCH_RELATIONS, SCH_COPRODUCTS, SCH_ANTIPODES)
