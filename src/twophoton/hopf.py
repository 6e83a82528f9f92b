"""Hopf-axiom, universal R-matrix, and structure-transport verification.

Everything here reduces an identity to a residual element of the PBW engine
and reports pass exactly when the residual is zero mod z^(k+1). A residual
is made in one pass, without building its sides: the R-matrix identities
through ``product_difference``, the antipode and coproduct-bracket axioms
as streams of raw terms through ``ordered_difference``, and
coassociativity and the counit axioms, whose legs are PBW already, as one
collect each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .algebra import (NCElement, QuantumAlgebra, TensorElement, ordered_difference,
                      product_difference, term_products, two_photon_algebra,
                      schrodinger_algebra, word_name, _exp_words, _row_terms,
                      H6_GENERATORS, SCH_CASIMIR, SCH_GENERATORS)
from .bialgebra import H6_TO_SCH_MAP
from .report import CheckResult, residual_entry
from .series import TruncatedSeries
from .sparse import collect, solve_linear

__all__ = [
    "hopf_checks", "rmatrix_checks", "r_matrix", "r_matrix_inverse",
    "transport_structure", "verify_spec_equality", "transport_checks",
    "first_order_delta", "coproduct_closure", "bracket_closure",
    "galilei_casimir", "casimir_checks", "structure_checks",
]


# -- coproduct / antipode axiom machinery ---------------------------------------


def _coassoc_residual(alg, dx):
    """(Delta (x) id) Delta x - (id (x) Delta) Delta x, as a rank-3 tensor."""

    def pairs():
        for (w1, w2), s in dx.terms.items():
            for (p1, p2), c in alg.coproduct_word(w1).terms.items():
                yield (p1, p2, w2), c * s
            minus_s = -s
            for (q1, q2), c in alg.coproduct_word(w2).terms.items():
                yield (w1, q1, q2), c * minus_s

    return TensorElement(alg, 3, collect(pairs()))


def _counit_residual(alg, x, dx, leg):
    """(eps (x) id) Delta x - x for leg 0, (id (x) eps) Delta x - x for leg
    1, as one collect: the legs are PBW already."""

    def pairs():
        for words, s in dx.terms.items():
            eps = alg.counit_word(words[leg])
            if eps:
                yield words[1 - leg], s * eps
        for w, s in x.terms.items():
            yield w, -s

    return NCElement(alg, collect(pairs()))


def _antipode_residual(alg, x, dx, leg):
    """m(gamma (x) id) Delta x - eps(x) 1 for leg 0, m(id (x) gamma) Delta x -
    eps(x) 1 for leg 1."""

    def raw():
        for (w1, w2), s in dx.terms.items():
            if leg == 0:
                for v, t in alg.antipode_word(w1).terms.items():
                    yield (v + w2,), t * s
            else:
                for v, t in alg.antipode_word(w2).terms.items():
                    yield (w1 + v,), s * t

    return ordered_difference(x, raw(), [(((),), alg.counit(x))])


def _coproduct_bracket_residual(alg, x, y, dx, dy):
    """Delta([x, y]) - [Delta x, Delta y]: Delta([x, y]) + Delta y Delta x
    minus Delta x Delta y."""
    delta_bracket = ((legs, c * s) for w, s in alg.relation(x, y).terms.items()
                     for legs, c in alg.coproduct_word(w).terms.items())
    return ordered_difference(dx, chain(delta_bracket, term_products(dy, dx)),
                              term_products(dx, dy))


def hopf_checks(alg):
    """Coassociativity, counit, antipode, and coproduct-homomorphism checks."""
    entries = []
    prefix = f"hopf/{alg.name}"
    params = {"order": str(alg.order)}
    deltas = {name: alg.coproduct(alg.gen(name)) for name in alg.generators}
    for name, dx in deltas.items():
        x = alg.gen(name)
        entries.append(residual_entry(
            f"{prefix}/coassoc/{name}", _coassoc_residual(alg, dx), params))
        entries.append(residual_entry(
            f"{prefix}/counit-left/{name}", _counit_residual(alg, x, dx, 0), params))
        entries.append(residual_entry(
            f"{prefix}/counit-right/{name}", _counit_residual(alg, x, dx, 1), params))
        entries.append(residual_entry(
            f"{prefix}/antipode-left/{name}", _antipode_residual(alg, x, dx, 0), params))
        entries.append(residual_entry(
            f"{prefix}/antipode-right/{name}", _antipode_residual(alg, x, dx, 1), params))
    for i, x in enumerate(alg.generators):
        for y in alg.generators[:i]:
            entries.append(residual_entry(
                f"{prefix}/coproduct-bracket/{x},{y}",
                _coproduct_bracket_residual(alg, x, y, deltas[x], deltas[y]), params))
    return entries


# -- universal R-matrix ----------------------------------------------------------

# factorized form: product of exp(c z X (x) Y), left to right
R_FACTORS = {
    "h6-twophoton": ((-1, "B+", "N"), (1, "N", "B+")),
    "schrodinger11": ((2, "H", "D"), (1, "H", "M"), (-1, "M", "H"), (-2, "D", "H")),
}


def _tensor_exp(alg, c, xname, yname):
    """exp(c z X (x) Y) as a truncated rank-2 tensor."""
    gy = alg.gen_index(yname)
    return TensorElement(alg, 2, {(w, (gy,) * len(w)): s for w, s in
                                  _exp_words(alg.gen_index(xname), c, alg.order).items()})


def _r_factors(alg):
    factors = R_FACTORS.get(alg.name)
    if factors is None:
        raise KeyError(f"no R-matrix factorization registered for {alg.name}")
    return factors


def r_matrix(alg):
    out = alg.tensor_one()
    for c, x, y in _r_factors(alg):
        out = out * _tensor_exp(alg, c, x, y)
    return out


def r_matrix_inverse(alg):
    """Reversed product of the factor inverses exp(-c z X (x) Y)."""
    out = alg.tensor_one()
    for c, x, y in reversed(_r_factors(alg)):
        out = out * _tensor_exp(alg, -c, x, y)
    return out


def rmatrix_checks(alg):
    """R R^{-1} = 1, quantum Yang-Baxter in the tensor cube, intertwining."""
    entries = []
    prefix = f"rmatrix/{alg.name}"
    params = {"order": str(alg.order)}
    R = r_matrix(alg)
    one = alg.tensor_one()
    entries.append(residual_entry(
        f"{prefix}/inverse", product_difference(R, r_matrix_inverse(alg), one, one), params))
    r12 = R.embed3((0, 1))
    r13 = R.embed3((0, 2))
    r23 = R.embed3((1, 2))
    entries.append(residual_entry(
        f"{prefix}/qybe", product_difference(r12 * r13, r23, r23 * r13, r12), params))
    for name in alg.generators:
        dx = alg.coproduct(alg.gen(name))
        entries.append(residual_entry(
            f"{prefix}/intertwine/{name}", product_difference(R, dx, dx.swap(), R), params))
    return entries


# -- first-order cocommutator -----------------------------------------------------


def first_order_delta(alg, name):
    """z-linear part of (Delta - sigma Delta)(X) as a {(i, j): c} wedge, i < j."""
    if alg.order < 1:
        raise ValueError("first-order extraction needs order >= 1")
    dx = alg.coproduct(alg.gen(name))
    skew = dx - dx.swap()
    tensor = {}
    for (w1, w2), s in skew.terms.items():
        c = s.coeffs[1]
        if c == 0:
            continue
        if len(w1) != 1 or len(w2) != 1:
            raise ValueError(
                f"first z-order of Delta - sigma Delta on {name} has a "
                f"non-generator leg: {w1}, {w2}")
        tensor[(w1[0], w2[0])] = c
    wedge = {}
    for (i, j), c in tensor.items():
        if tensor.get((j, i), Fraction(0)) != -c:
            raise ValueError(f"first z-order on {name} is not antisymmetric")
        if i < j:
            wedge[(i, j)] = c
    return wedge


# -- subalgebra records ------------------------------------------------------------


def bracket_closure(alg, names):
    """Do the brackets of the named generators stay inside their span's words?"""
    allowed = {alg.gen_index(n) for n in names}
    for i, x in enumerate(names):
        for y in names[:i]:
            value = alg.relation(x, y)
            for word in value.terms:
                if not set(word) <= allowed:
                    return False, f"[{x},{y}] contains {word_name(alg, word)}"
    return True, ""


def coproduct_closure(alg, names):
    """Do the coproducts of the named generators live in span (x) span words?"""
    allowed = {alg.gen_index(n) for n in names}
    for x in names:
        dx = alg.coproduct(alg.gen(x))
        for (w1, w2) in dx.terms:
            if not (set(w1) <= allowed and set(w2) <= allowed):
                return False, (f"Delta({x}) has leg outside the span: "
                               f"{word_name(alg, w1) or '1'} (x) "
                               f"{word_name(alg, w2) or '1'}")
    return True, ""


def galilei_casimir(alg):
    """The row ``SCH_CASIMIR``, P^2 - 2M (1 - e^{-4zH})/(4z), in the Schrodinger algebra."""
    index = {g: i for i, g in enumerate(alg.generators)}
    return NCElement(alg, _row_terms(*SCH_CASIMIR, index, alg.order))


def casimir_checks(alg):
    """Closure of the deformed Galilei subalgebra and centrality of its Casimir."""
    entries = []
    prefix = f"discrete-se/{alg.name}"
    closed, witness = bracket_closure(alg, ("H", "M", "P", "K"))
    entries.append(CheckResult(
        name=f"{prefix}/galilei-closure", passed=closed,
        residual="0" if closed else witness, params={"order": str(alg.order)}))
    ez = galilei_casimir(alg)
    for name in ("K", "H", "P", "M"):
        entries.append(residual_entry(
            f"{prefix}/casimir-central/{name}", ez.commutator(alg.gen(name)),
            {"order": str(alg.order)}))
    return entries


# -- transport of structure ---------------------------------------------------------

# the basis change is the classical one, H6_TO_SCH_MAP, on generators:
# Schrodinger generators in h6 coordinates, and its inverse solved once
_FORWARD = dict(H6_TO_SCH_MAP)


def _invert_basis_change():
    columns = [vec for _, vec in H6_TO_SCH_MAP]
    inverse = []
    for g in range(len(H6_GENERATORS)):
        coeffs, consistent = solve_linear(columns, {g: Fraction(1)})
        if not consistent:
            raise ValueError(f"H6_TO_SCH_MAP does not span {H6_GENERATORS[g]}")
        inverse.append([(i, c) for i, c in enumerate(coeffs) if c])
    return inverse


# h6 generator index -> [(Schrodinger generator index, coefficient)]
_INVERSE = _invert_basis_change()


def _forward_element(h6, name):
    return NCElement(h6, {(g,): h6.one_series() * c for g, c in _FORWARD[name].items()})


def _sort_with_central(word, central):
    """Insertion sort allowed only across central letters; else raise."""
    letters = list(word)
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            if letters[j - 1] in central or letters[j] in central:
                letters[j - 1], letters[j] = letters[j], letters[j - 1]
                j -= 1
            else:
                raise ValueError(f"cannot reorder word {word} without relations")
    return tuple(letters)


def _map_terms_to_new(terms, central_new):
    """Push {h6 word: series} through the inverse letter substitution."""

    def pairs():
        for word, series in terms.items():
            expansions = [(1, ())]
            for g in word:
                expansions = [(c * ci, w + (i,)) for c, w in expansions for i, ci in _INVERSE[g]]
            for c, w in expansions:
                yield _sort_with_central(w, central_new), series * Fraction(c)

    return collect(pairs())


def transport_structure(h6):
    """Carry the h6 Hopf data through the basis change to the Schrodinger side."""
    k = h6.order
    one = TruncatedSeries.one(k)
    central_new = {SCH_GENERATORS.index("M")}

    fwd = {name: _forward_element(h6, name) for name in SCH_GENERATORS}

    relations = {}
    for hi in range(6):
        for lo in range(hi):
            x, y = SCH_GENERATORS[hi], SCH_GENERATORS[lo]
            bracket = fwd[x].commutator(fwd[y])
            relations[(hi, lo)] = _map_terms_to_new(bracket.terms, central_new)

    def coproduct_pairs(dx):
        for (w1, w2), s in dx.terms.items():
            left = _map_terms_to_new({w1: s}, central_new)
            right = _map_terms_to_new({w2: one}, central_new)
            for lw, ls in left.items():
                for rw, rs in right.items():
                    yield (lw, rw), ls * rs

    coproduct = {}
    antipode = {}
    counit = {}
    for i, name in enumerate(SCH_GENERATORS):
        coproduct[i] = collect(coproduct_pairs(h6.coproduct(fwd[name])))
        antipode[i] = _map_terms_to_new(h6.antipode(fwd[name]).terms, central_new)
        counit[i] = h6.counit(fwd[name])

    return QuantumAlgebra("schrodinger11-transported", SCH_GENERATORS, k,
                          relations, coproduct, antipode, counit,
                          central=tuple(central_new))


def verify_spec_equality(transported, handcoded):
    """Table-by-table comparison of two algebra specs over the same generators."""
    params = {"order": str(handcoded.order)}
    gens = handcoded.generators
    zero = handcoded.zero_series()

    def words_differing(a, b):
        return sorted(w for w in set(a) | set(b) if a.get(w, zero) != b.get(w, zero))

    # tables live in different algebra instances, so compare raw term maps
    tables = {
        "relations": lambda alg: [(f"[{x},{y}]", alg.relation(x, y).terms)
                                  for i, x in enumerate(gens) for y in gens[:i]],
        "coproduct": lambda alg: [(f"Delta({gens[i]})", terms)
                                  for i, terms in alg.coproduct_table.items()],
        "antipode": lambda alg: [(f"gamma({gens[i]})", terms)
                                 for i, terms in alg.antipode_table.items()],
        "counit": lambda alg: [(f"eps({gens[i]})", s) for i, s in alg.counit_table.items()],
    }
    entries = []
    for table, rows in tables.items():
        mism = [label + (f" at words {words_differing(a, b)}" if table == "relations" else "")
                for (label, a), (_, b) in zip(rows(transported), rows(handcoded)) if a != b]
        entries.append(CheckResult(
            name=f"transport/{table}", passed=not mism,
            residual="0" if not mism else "; ".join(mism), params=params))
    return entries


def transport_checks(order):
    h6 = two_photon_algebra(order)
    sch = schrodinger_algebra(order)
    transported = transport_structure(h6)
    return verify_spec_equality(transported, sch)


def structure_checks(alg):
    """Informational records for the named subalgebra questions."""
    entries = []
    if alg.name == "h6-twophoton":
        closed, witness = coproduct_closure(alg, ("N", "A+", "A-", "M"))
        # the oscillator sector is undeformed as an algebra but not as a coalgebra
        expected = alg.order == 0
        entries.append(CheckResult(
            name=f"hopf/{alg.name}/h4-coproduct-closure",
            passed=closed == expected,
            residual="0" if closed == expected else witness,
            params={"order": str(alg.order), "closed": str(closed).lower(),
                    "witness": witness}))
    return entries
