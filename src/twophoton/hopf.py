"""Hopf-axiom, universal R-matrix, and structure-transport verification.

Everything here reduces an identity to a residual element of the PBW engine
and reports pass exactly when the residual is zero mod z^(k+1). A residual
is made without building its sides; the docstring of each residual says
how. Every generator has counit 0, so the counit is the augmentation: the
coefficient of the empty word.

The transport of structure certifies that the classical basis change
``H6_TO_SCH_MAP``, read as the map phi from the Schrodinger algebra to h6
on generators, is a Hopf map between the two deformed algebras. Each
Schrodinger table entry is pushed letter by letter through phi, as raw h6
words, and set against the h6 structure map of its image in one
``ordered_difference`` pass, so the h6 engine orders both sides and no
inverse map is needed. That phi is invertible, so that the map is an
isomorphism, is certified by the ``transport/classical-table`` entry:
``bialgebra.basis_change`` raises "singular basis map" on a dependent row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .algebra import (NCElement, TensorElement, commutator_products, ordered_difference,
                      product_difference, product_triples, word_name, _exp_words,
                      _row_terms, SCH_CASIMIR)
from .bialgebra import H6_TO_SCH_MAP
from .report import CheckResult, residual_entry
from .series import TruncatedSeries
from .sparse import collect

__all__ = [
    "hopf_checks", "rmatrix_checks", "r_matrix", "r_matrix_inverse",
    "transport_structure", "verify_spec_equality", "transport_checks",
    "first_order_delta", "coproduct_closure", "bracket_closure",
    "galilei_casimir", "casimir_checks", "structure_checks",
]


# -- coproduct / antipode axiom machinery ---------------------------------------


def _coassoc_residual(alg, dx):
    """(Delta (x) id) Delta x - (id (x) Delta) Delta x, as a rank-3 tensor,
    in one ``ordered_difference`` pass: its legs are PBW already, so each
    raw term is one accumulator update, and no series is made for the
    products of the coefficients of Delta x and of Delta of its legs."""
    k = alg.order

    def raw(leg):
        for (w1, w2), s in dx.terms.items():
            for (p, q), c in alg.coproduct_word((w1, w2)[leg]).terms.items():
                yield ((p, q, w2), (w1, p, q))[leg], product_triples(c.triples, s.triples, k)

    return ordered_difference(alg.tensor_one(3), raw(0), raw(1))


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
    k = alg.order

    def raw():
        for (w1, w2), s in dx.terms.items():
            if leg == 0:
                for v, t in alg.antipode_word(w1).terms.items():
                    yield (v + w2,), product_triples(t.triples, s.triples, k)
            else:
                for v, t in alg.antipode_word(w2).terms.items():
                    yield (w1 + v,), product_triples(s.triples, t.triples, k)

    return ordered_difference(x, raw(), [(((),), alg.counit(x).triples)])


def _coproduct_bracket_residual(alg, x, y, dx, dy):
    """Delta([x, y]) - [Delta x, Delta y]: Delta([x, y]) + Delta y Delta x
    minus Delta x Delta y, the two products over the pairs of terms that do
    not commute only, from ``commutator_products``."""
    delta_bracket = ((legs, product_triples(c.triples, s.triples, alg.order))
                     for w, s in alg.relation(x, y).terms.items()
                     for legs, c in alg.coproduct_word(w).terms.items())
    dx_dy, dy_dx = commutator_products(dx, dy)
    return ordered_difference(dx, chain(delta_bracket, dy_dx), dx_dy)


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


def _factor_pairs(alg):
    """(F, F^-1) for each factor F = exp(c z X (x) Y) of R, innermost first:
    F^-1 = exp(-c z X (x) Y), and R is the product of the F's from the last
    pair to the first, R^-1 that of the F^-1's from the first to the last."""
    factors = R_FACTORS.get(alg.name)
    if factors is None:
        raise KeyError(f"no R-matrix factorization registered for {alg.name}")
    return [(_tensor_exp(alg, c, x, y), _tensor_exp(alg, -c, x, y))
            for c, x, y in reversed(factors)]


def _exponent_steps(alg, c, xname, yname):
    """a_n = (c z / n) X (x) Y for n = 1 .. k: the steps of the adjoint
    series of the factor exp(c z X (x) Y)."""
    legs = ((alg.gen_index(xname),), (alg.gen_index(yname),))
    return [TensorElement(alg, 2, {legs: TruncatedSeries.z_power(1, alg.order, Fraction(c, n))})
            for n in range(1, alg.order + 1)]


def _adjoint_series(steps, y):
    """exp(A) y exp(-A) for A = a_1 of ``steps``, by Hadamard's lemma: the
    sum of t_0 = y and t_n = [a_n, t_(n-1)] = ad_A^n(y) / n!. Each t_n
    carries one more power of z, so the sum stops by t_(k+1) = 0, at the
    first t_n with no terms. Each step is one commutator pass with the
    one-term a_n = (c z / n) X (x) Y, which skips the terms of t_(n-1)
    whose legs commute with X and Y letter by letter."""
    out = term = y
    for a in steps:
        term = a.commutator(term)
        if not term.terms:
            break
        out = out + term
    return out


def _product(out, tensors):
    for t in tensors:
        out = out * t
    return out


def r_matrix(alg):
    return _product(alg.tensor_one(), reversed([f for f, _ in _factor_pairs(alg)]))


def r_matrix_inverse(alg):
    """Reversed product of the factor inverses exp(-c z X (x) Y)."""
    return _product(alg.tensor_one(), [f_inv for _, f_inv in _factor_pairs(alg)])


def rmatrix_checks(alg):
    """R R^{-1} = 1, quantum Yang-Baxter in the tensor cube, intertwining.

    The inverse and intertwining residuals are made one factor F of R at a
    time, innermost first, so no product has the whole of R on both sides:
    R R^-1 - 1 as R F_n^-1 ... F_1^-1 - 1, each step cancelling one factor,
    and R Delta(x) - Delta^op(x) R as (R Delta(x) R^-1 - Delta^op(x)) R,
    its conjugate made factor by factor as the adjoint series of
    F = exp(A), A = c z X (x) Y: sum_n ad_A^n(Delta(x)) / n!, through
    commutators with one-term tensors, so no step makes the terms of
    F Delta(x) that F^-1 cancels, nor those of a term of Delta(x) that
    commutes with A letter by letter. Both are the same elements as the
    products of the whole R, so a failing residual reads the same, and a
    passing intertwining residual's last product has no terms. The QYBE
    residual is one ``product_difference`` pass over the embeddings of R,
    the largest pass of the call. It runs first, before the factor pairs
    and the inverse's products are made: run after them, it left the peak
    RSS of repeated k = 5 calls in one process 0.4-0.5 MB higher.
    """
    entries = []
    prefix = f"rmatrix/{alg.name}"
    params = {"order": str(alg.order)}
    R = r_matrix(alg)
    r12 = R.embed3((0, 1))
    r13 = R.embed3((0, 2))
    r23 = R.embed3((1, 2))
    entries.append(residual_entry(
        f"{prefix}/qybe", product_difference(r12 * r13, r23, r23 * r13, r12), params))
    unit = _product(R, [f_inv for _, f_inv in _factor_pairs(alg)])
    entries.append(residual_entry(f"{prefix}/inverse", unit - alg.tensor_one(), params))
    exponents = [_exponent_steps(alg, c, x, y) for c, x, y in reversed(R_FACTORS[alg.name])]
    for name in alg.generators:
        dx = alg.coproduct(alg.gen(name))
        conjugate = dx
        for steps in exponents:
            conjugate = _adjoint_series(steps, conjugate)
        entries.append(residual_entry(
            f"{prefix}/intertwine/{name}", (conjugate - dx.swap()) * R, params))
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

# phi: Schrodinger -> h6 on generators, the classical basis change
# H6_TO_SCH_MAP: each Schrodinger generator in h6 coordinates
_FORWARD = dict(H6_TO_SCH_MAP)


def _forward_element(h6, name):
    return NCElement(h6, {(g,): h6.one_series() * c for g, c in _FORWARD[name].items()})


def _raw_legs(x):
    """The raw (legs, triples) terms of an element or a tensor."""
    return ((x._legs(key), s.triples) for key, s in x.terms.items())


def _pushed(x):
    """The raw h6 (legs, triples) terms of phi applied legwise to the
    Schrodinger element or tensor x, letter by letter."""
    images = [tuple(_FORWARD[g].items()) for g in x.algebra.generators]
    k = x.algebra.order

    def phi(word):
        out = [((), 1)]
        for g in word:
            out = [(w + (i,), c * ci) for w, c in out for i, ci in images[g]]
        return out

    for legs, s in _raw_legs(x):
        pushed = [((), 1)]
        for leg in legs:
            pushed = [(done + (w,), c * cw) for done, c in pushed for w, cw in phi(leg)]
        for h6_legs, c in pushed:
            yield h6_legs, s if c == 1 else product_triples(
                s, ((0, c.numerator, c.denominator),), k)


def transport_structure(sch, h6):
    """The residuals that make phi: Schrodinger -> h6 a Hopf map, per table.

    {table: [(label, residual)]}, each residual one ``ordered_difference``
    pass in h6 but the counit's, a series: phi([x, y]) - [phi x, phi y]
    for each generator pair, and (phi (x) phi) Delta x - Delta(phi x),
    phi(gamma x) - gamma(phi x) and eps(x) - eps(phi x) for each
    generator. The Schrodinger side enters as raw h6 words, so the h6
    engine orders both sides.
    """
    gens = sch.generators
    fwd = {name: _forward_element(h6, name) for name in gens}
    residuals = {"relations": [], "coproduct": [], "antipode": [], "counit": []}
    for i, x in enumerate(gens):
        for y in gens[:i]:
            xy, yx = commutator_products(fwd[x], fwd[y])
            residuals["relations"].append((f"[{x},{y}]", ordered_difference(
                fwd[x], chain(_pushed(sch.relation(x, y)), yx), xy)))
    for x in gens:
        gx, fx = sch.gen(x), fwd[x]
        for table, label, value, image in (
                ("coproduct", "Delta", sch.coproduct(gx), h6.coproduct(fx)),
                ("antipode", "gamma", sch.antipode(gx), h6.antipode(fx))):
            residuals[table].append((f"{label}({x})", ordered_difference(
                image, _pushed(value), _raw_legs(image))))
        residuals["counit"].append((f"eps({x})", sch.counit(gx) - h6.counit(fx)))
    return residuals


def verify_spec_equality(residuals, order):
    """One entry per table of ``transport_structure``'s residuals: it passes
    when every residual vanishes, and a failing one names its labels, a
    relation with the h6 words of its residual."""
    params = {"order": str(order)}
    entries = []
    for table, rows in residuals.items():
        mism = [label + (f" at words {sorted(r.terms)}" if table == "relations" else "")
                for label, r in rows if r]
        entries.append(CheckResult(
            name=f"transport/{table}", passed=not mism,
            residual="; ".join(mism) or "0", params=params))
    return entries


def transport_checks(sch, h6):
    """The ``transport/*`` entries of phi: sch -> h6 at one order. The hopf
    group passes the instances its Hopf checks ran on: every memo is pure,
    so they give the entries of fresh instances."""
    return verify_spec_equality(transport_structure(sch, h6), h6.order)


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
