from fractions import Fraction

import pytest

from twophoton import hopf
from twophoton.algebra import (H6_ANTIPODES, H6_COPRODUCTS, H6_GENERATORS, H6_RELATIONS,
                               NCElement, SCH_ANTIPODES, SCH_COPRODUCTS, SCH_RELATIONS,
                               _exp_words, ordered_difference, two_photon_algebra,
                               schrodinger_algebra)
from twophoton.bialgebra import (H6_R_MATRIX, H6_TO_SCH_MAP, SCH_R_MATRIX, basis_change,
                                 classical_lie, schrodinger_lie, two_photon_lie)
from twophoton.hopf import (bracket_closure, casimir_checks, coproduct_closure,
                            first_order_delta, galilei_casimir, hopf_checks,
                            r_matrix, r_matrix_inverse, rmatrix_checks,
                            structure_checks, transport_checks,
                            transport_structure, verify_spec_equality)
from twophoton.series import TruncatedSeries
from twophoton.sparse import collect, solve_linear


def word(alg, *names):
    return tuple(alg.gen_index(n) for n in names)


def test_coproduct_examples():
    alg = two_photon_algebra(1)
    got = alg.coproduct(alg.gen("B+"))
    want = alg.tensor({((), word(alg, "B+")): 1, (word(alg, "B+"), ()): 1})
    assert got == want

    got = alg.coproduct(alg.gen("N"))
    want = alg.tensor({
        ((), word(alg, "N")): 1,
        (word(alg, "N"), ()): 1,
        (word(alg, "N"), word(alg, "B+")): TruncatedSeries([Fraction(0), Fraction(2)]),
    })
    assert got == want


def test_coproduct_primitive_at_order_zero():
    for make in (two_photon_algebra, schrodinger_algebra):
        alg = make(0)
        for name in alg.generators:
            got = alg.coproduct(alg.gen(name))
            want = alg.tensor({((), word(alg, name)): 1, (word(alg, name), ()): 1})
            assert got == want


def test_antipode_examples():
    alg = two_photon_algebra(1)
    assert alg.antipode(alg.gen("B+")) == -alg.gen("B+")
    # gamma(N) = -N e^{-2zB+}, normal ordered
    got = alg.antipode(alg.gen("N"))
    want = alg.element({
        word(alg, "N"): -1,
        word(alg, "N", "B+"): TruncatedSeries([Fraction(0), Fraction(2)]),
    })
    assert got == want


def test_counit_examples():
    alg = two_photon_algebra(2)
    x = alg.gen("N") * alg.gen("A+")
    assert alg.counit(x).is_zero()
    assert alg.counit(alg.one()) == alg.one_series()


def test_antipode_axiom_forced_cancellation():
    alg = two_photon_algebra(3)
    names = {e.name: e for e in hopf_checks(alg)}
    assert names["hopf/h6-twophoton/antipode-left/N"].passed


def test_hopf_axioms_all_orders():
    for make in (two_photon_algebra, schrodinger_algebra):
        for order in (0, 1, 2, 3):
            alg = make(order)
            for entry in hopf_checks(alg):
                assert entry.passed, (entry.name, order, entry.residual)


def test_rmatrix_first_order_value():
    alg = two_photon_algebra(1)
    got = r_matrix(alg)
    want = alg.tensor({
        ((), ()): 1,
        (word(alg, "N"), word(alg, "B+")): TruncatedSeries([Fraction(0), Fraction(1)]),
        (word(alg, "B+"), word(alg, "N")): TruncatedSeries([Fraction(0), Fraction(-1)]),
    })
    assert got == want


@pytest.mark.parametrize("make, classical_r", [(two_photon_algebra, H6_R_MATRIX),
                                                (schrodinger_algebra, SCH_R_MATRIX)])
def test_rmatrix_linear_part_is_the_classical_r(make, classical_r):
    # R = 1 + z r + O(z^2), with the wedge r read as Xi (x) Xj - Xj (x) Xi
    got = {legs: s.coeffs[1] for legs, s in r_matrix(make(3)).terms.items() if s.coeffs[1]}
    want = {}
    for (i, j), c in classical_r.terms.items():
        want[((i,), (j,))] = c
        want[((j,), (i,))] = -c
    assert got == want


@pytest.mark.parametrize("order", [3, 6])
@pytest.mark.parametrize("make", [two_photon_algebra, schrodinger_algebra])
def test_rmatrix_inverse_is_the_flipped_rmatrix(make, order):
    # R21 R = 1: read backwards, the factors of R are those of R^-1 with
    # their legs flipped, exp(c z X (x) Y) against exp(-c z Y (x) X)
    alg = make(order)
    assert r_matrix_inverse(alg) == r_matrix(alg).swap()


def test_rmatrix_checks_catch_every_perturbed_factor(monkeypatch):
    # +1 on the z coefficient of one exp(c z X (x) Y) factor at a time
    caught = []
    for make in (two_photon_algebra, schrodinger_algebra):
        name = make(0).name
        factors = hopf.R_FACTORS[name]
        for i, (c, x, y) in enumerate(factors):
            monkeypatch.setitem(hopf.R_FACTORS, name,
                                factors[:i] + ((c + 1, x, y),) + factors[i + 1:])
            caught.append(sum(not e.passed for e in rmatrix_checks(make(2))))
        monkeypatch.setitem(hopf.R_FACTORS, name, factors)
    assert caught == [6, 6, 6, 4, 4, 6]


def test_rmatrix_classical_limit_is_identity():
    for make in (two_photon_algebra, schrodinger_algebra):
        alg = make(0)
        assert r_matrix(alg) == alg.tensor_one()


def test_rmatrix_inverse_and_qybe():
    for make in (two_photon_algebra, schrodinger_algebra):
        for order in (0, 1, 2, 3):
            alg = make(order)
            assert (r_matrix(alg) * r_matrix_inverse(alg)) == alg.tensor_one()
            for entry in rmatrix_checks(alg):
                assert entry.passed, (entry.name, order, entry.residual)


def test_intertwining_trivial_for_primitive_symmetric():
    alg = two_photon_algebra(2)
    R = r_matrix(alg)
    db = alg.coproduct(alg.gen("B+"))
    assert (R * db - db.swap() * R).is_zero()


def test_failing_residuals_render_like_the_two_products(monkeypatch):
    # a wrong last Schrodinger factor, -3 z D (x) H for -2 z D (x) H; each
    # fused residual must print exactly as the difference of its two sides
    factors = hopf.R_FACTORS["schrodinger11"]
    monkeypatch.setitem(hopf.R_FACTORS, "schrodinger11", factors[:-1] + ((-3, "D", "H"),))
    alg = schrodinger_algebra(4)
    failing = {e.name: e.residual for e in rmatrix_checks(alg) + hopf_checks(alg)
               if not e.passed}
    R = r_matrix(alg)
    r12, r13, r23 = (R.embed3(legs) for legs in ((0, 1), (0, 2), (1, 2)))
    prefix = "rmatrix/schrodinger11"
    two_products = {f"{prefix}/qybe": r12 * r13 * r23 - r23 * r13 * r12}
    for name in ("H", "D", "P", "K", "C"):
        dx = alg.coproduct(alg.gen(name))
        two_products[f"{prefix}/intertwine/{name}"] = R * dx - dx.swap() * R
    assert failing == {name: str(x) for name, x in two_products.items()}
    assert sum(map(len, failing.values())) == 26960


def test_inverse_residual_subtracts_the_unit(monkeypatch):
    # with R^-1 + 1 for R^-1 the residual R R^-1 - 1 becomes R itself
    alg = two_photon_algebra(3)
    one = alg.tensor_one()
    wrong = r_matrix_inverse(alg) + one
    monkeypatch.setattr(hopf, "r_matrix_inverse", lambda _: wrong)
    (entry,) = [e for e in rmatrix_checks(alg) if e.name.endswith("/inverse")]
    R = r_matrix(alg)
    assert not entry.passed
    assert entry.residual == str(R * wrong - one) == str(R)


def test_transport_matches_handcoded_tables():
    for order in (0, 1, 2, 3):
        for entry in transport_checks(schrodinger_algebra(order), two_photon_algebra(order)):
            assert entry.passed, (entry.name, order, entry.residual)


def _entry_texts(entries):
    return [(e.name, e.passed, e.residual, e.params) for e in entries]


@pytest.mark.parametrize("order", [0, 3, 8])
def test_transport_on_instances_that_ran_the_hopf_checks(order):
    # the hopf group hands its instances on to the transport: their warm
    # memos must give the entries of fresh instances
    sch, h6 = schrodinger_algebra(order), two_photon_algebra(order)
    for alg in (h6, sch):
        assert all(e.passed for e in hopf_checks(alg) + structure_checks(alg))
    shared = transport_checks(sch, h6)
    assert all(e.passed for e in shared)
    fresh = transport_checks(schrodinger_algebra(order), two_photon_algebra(order))
    assert _entry_texts(shared) == _entry_texts(fresh)


def test_shared_instances_fail_a_broken_coproduct_row_like_fresh_ones(monkeypatch):
    # Delta(P) = 1 (x) P + 2 P (x) e^{-2zH}, twice the P row
    monkeypatch.setitem(SCH_COPRODUCTS, "P", {("P",): ({}, ((2, -2, 0, 0, ()),))})
    sch, h6 = schrodinger_algebra(3), two_photon_algebra(3)
    hopf_checks(h6)
    assert not all(e.passed for e in hopf_checks(sch))
    shared = transport_checks(sch, h6)
    assert [e.name for e in shared if not e.passed] == ["transport/coproduct"]
    fresh = transport_checks(schrodinger_algebra(3), two_photon_algebra(3))
    assert _entry_texts(shared) == _entry_texts(fresh)


def test_classical_layers_read_at_order_one_hold_at_every_order():
    # the bialgebra group reads the Lie table (z^0 relations) and delta (z^1
    # coproduct) off one order-1 build; neither depends on k >= 1
    for lie_name, make, lie in (("h6", two_photon_algebra, two_photon_lie()),
                                ("schrodinger", schrodinger_algebra, schrodinger_lie())):
        first = make(1)
        table = classical_lie(lie_name, first).table
        deltas = {g: first_order_delta(first, g) for g in first.generators}
        assert table == lie.table
        for order in range(1, 9):
            alg = make(order)
            assert classical_lie(lie_name, alg).table == table, (lie_name, order)
            assert {g: first_order_delta(alg, g) for g in alg.generators} == deltas


def test_transport_relation_example():
    sch, h6 = schrodinger_algebra(1), two_photon_algebra(1)
    # phi([C, H]) = phi(-D + 2z H M) = N + M/2 + z B+ M = [B-/2, B+/2]
    pushed = ordered_difference(h6.one(), hopf._pushed(sch.relation("C", "H")))
    want = h6.element({
        word(h6, "N"): 1,
        word(h6, "M"): Fraction(1, 2),
        word(h6, "B+", "M"): TruncatedSeries([Fraction(0), Fraction(1)]),
    })
    forward = {x: hopf._forward_element(h6, x) for x in ("C", "H", "P")}
    assert pushed == want == forward["C"].commutator(forward["H"])
    # phi([P, D]) = phi(P) = A+
    assert ordered_difference(h6.one(), hopf._pushed(sch.relation("P", "D"))) == forward["P"]
    residuals = transport_structure(sch, h6)
    assert [label for label, _ in residuals["relations"]][:4] == [
        "[D,H]", "[M,H]", "[M,D]", "[P,H]"]
    assert [label for label, _ in residuals["counit"]] == [
        f"eps({x})" for x in sch.generators]
    assert {table: len(rows) for table, rows in residuals.items()} == {
        "relations": 15, "coproduct": 6, "antipode": 6, "counit": 6}
    assert not any(r for rows in residuals.values() for _, r in rows)


def test_transport_detects_corruption():
    h6 = two_photon_algebra(1)
    sch = schrodinger_algebra(1)
    # corrupt one coproduct entry and expect the transport to flag it
    i = sch.gen_index("P")
    terms = dict(sch.coproduct_table[i])
    key = next(iter(terms))
    terms[key] = terms[key] * 2
    sch.coproduct_table = {**sch.coproduct_table, i: terms}
    entries = {e.name: e for e in verify_spec_equality(transport_structure(sch, h6), 1)}
    assert list(entries) == ["transport/relations", "transport/coproduct",
                             "transport/antipode", "transport/counit"]
    assert not entries["transport/coproduct"].passed
    assert entries["transport/coproduct"].residual == "Delta(P)"
    assert all(entries[f"transport/{t}"].passed for t in ("relations", "antipode", "counit"))
    # [P, D] = 2P for P: the residual phi(2P) - [A+, -N - M/2] is the h6 word A+
    sch._relations[sch.gen_index("P"), sch.gen_index("D")] = {(word(sch, "P"), 0): Fraction(2)}
    (relations,) = [e for e in verify_spec_equality(transport_structure(sch, h6), 1)
                    if e.name == "transport/relations"]
    assert not relations.passed
    assert relations.residual == f"[P,D] at words [{word(h6, 'A+')}]"


def test_transport_catches_every_basis_change_mutation(monkeypatch):
    # +1 on each of the 7 coefficients of H6_TO_SCH_MAP, one at a time, at k = 2
    failing = {}
    singular = []
    lie = two_photon_lie()
    for n, (x, vec) in enumerate(H6_TO_SCH_MAP):
        for g, c in vec.items():
            mutated = {h: v for h, v in {**vec, g: c + 1}.items() if v}
            with monkeypatch.context() as patch:
                patch.setitem(hopf._FORWARD, x, mutated)
                entries = transport_checks(schrodinger_algebra(2), two_photon_algebra(2))
                failing[x, g] = [e.name for e in entries if not e.passed]
            try:
                basis_change(lie, H6_TO_SCH_MAP[:n] + ((x, mutated),) + H6_TO_SCH_MAP[n + 1:])
            except ValueError as exc:
                if "singular basis map" in str(exc):
                    singular.append((x, g))
    assert len(failing) == 7
    assert all(names == ["transport/relations", "transport/coproduct", "transport/antipode"]
               for names in failing.values()), failing
    # D = -N - M/2 with the N coefficient 0 is dependent on M
    assert singular == [("D", H6_GENERATORS.index("N"))]


@pytest.mark.parametrize("order", [4, 8])
def test_transported_rmatrix_is_the_h6_rmatrix(order):
    # R of the Schrodinger algebra, pushed legwise through phi, is R of h6
    sch, h6 = schrodinger_algebra(order), two_photon_algebra(order)
    assert ordered_difference(h6.tensor_one(), hopf._pushed(r_matrix(sch))) == r_matrix(h6)


def test_transported_rmatrix_catches_every_perturbed_factor(monkeypatch):
    # +1 on the z coefficient of one exp(c z X (x) Y) factor at a time
    sch, h6 = schrodinger_algebra(2), two_photon_algebra(2)

    def transported_is_h6():
        return ordered_difference(h6.tensor_one(), hopf._pushed(r_matrix(sch))) == r_matrix(h6)

    assert transported_is_h6()
    caught = []
    for name, factors in list(hopf.R_FACTORS.items()):
        for i, (c, x, y) in enumerate(factors):
            with monkeypatch.context() as patch:
                patch.setitem(hopf.R_FACTORS, name,
                              factors[:i] + ((c + 1, x, y),) + factors[i + 1:])
                caught.append(not transported_is_h6())
    assert caught == [True] * 6


def _reference_transport_verdicts(order):
    """{entry name: passed} of the transport as it was before it became a
    Hopf map into h6, kept as the reference of the row-mutation tests: the
    h6 tables are pulled back through the inverse basis change, reordered
    across the central M alone, and compared with the Schrodinger tables
    entry by entry."""
    h6, sch = two_photon_algebra(order), schrodinger_algebra(order)
    columns = [vec for _, vec in H6_TO_SCH_MAP]
    inverse = []
    for g in range(len(H6_GENERATORS)):
        coeffs, consistent = solve_linear(columns, {g: Fraction(1)})
        assert consistent
        inverse.append([(i, c) for i, c in enumerate(coeffs) if c])
    central = sch.gen_index("M")

    def sort_across_central(word):
        letters = list(word)
        for i in range(1, len(letters)):
            j = i
            while j > 0 and letters[j - 1] > letters[j]:
                if central not in (letters[j - 1], letters[j]):
                    raise ValueError(f"cannot reorder word {word} without relations")
                letters[j - 1], letters[j] = letters[j], letters[j - 1]
                j -= 1
        return tuple(letters)

    def pulled_back(raw):
        def pairs():
            for legs, s in raw:
                expansions = [(Fraction(1), ())]
                for leg in legs:
                    words = [(Fraction(1), ())]
                    for g in leg:
                        words = [(c * ci, w + (i,)) for c, w in words for i, ci in inverse[g]]
                    expansions = [(c * cw, done + (sort_across_central(w),))
                                  for c, done in expansions for cw, w in words]
                for c, new_legs in expansions:
                    yield new_legs, s * c

        return collect(pairs())

    def as_legs(terms):
        return (((w,), s) for w, s in terms.items())

    forward = {x: NCElement(h6, {(g,): h6.one_series() * c for g, c in vec.items()})
               for x, vec in H6_TO_SCH_MAP}
    gens = sch.generators
    relations = all(
        pulled_back(as_legs(forward[x].commutator(forward[y]).terms))
        == {(w,): s for w, s in sch.relation(x, y).terms.items()}
        for i, x in enumerate(gens) for y in gens[:i])
    coproduct = all(pulled_back(h6.coproduct(forward[x]).terms.items()) == sch.coproduct_table[i]
                    for i, x in enumerate(gens))
    antipode = all(pulled_back(as_legs(h6.antipode(forward[x]).terms))
                   == {(w,): s for w, s in sch.antipode_table[i].items()}
                   for i, x in enumerate(gens))
    counit = all(h6.counit(forward[x]).is_zero() for x in gens)
    return {"transport/relations": relations, "transport/coproduct": coproduct,
            "transport/antipode": antipode, "transport/counit": counit}


def _transport_verdicts(entries):
    return {e.name: e.passed for e in entries if e.name.startswith("transport/")}


def _relation_row_mutations(rows):
    """(key, site, row) with +1 on one polynomial coefficient or on one
    exponential scale of one row of a {key: row} table: the brackets of a
    relation table or the left legs of a coproduct or antipode entry."""
    out = []
    for key, (terms, exps) in rows.items():
        for w, (p, c) in terms.items():
            out.append((key, w, ({**terms, w: (p, c + 1)}, exps)))
        for i, (scale, *rest) in enumerate(exps):
            out.append((key, i, (terms, exps[:i] + ((scale + 1, *rest),) + exps[i + 1:])))
    return out


def test_hopf_rmatrix_and_transport_catch_every_relation_mutation(monkeypatch):
    # +1 on each of the 14 h6 and 18 Schrodinger relation coefficients and
    # exponential scales, one at a time, at k = 2
    failing = {}
    for rows, make in ((H6_RELATIONS, two_photon_algebra),
                       (SCH_RELATIONS, schrodinger_algebra)):
        assert all(e.passed for e in hopf_checks(make(2)) + rmatrix_checks(make(2)))
        for key, site, row in _relation_row_mutations(rows):
            with monkeypatch.context() as patch:
                patch.setitem(rows, key, row)
                alg = make(2)
                entries = (hopf_checks(alg) + rmatrix_checks(alg)
                           + transport_checks(schrodinger_algebra(2), two_photon_algebra(2)))
                reference = _reference_transport_verdicts(2)
            assert _transport_verdicts(entries) == reference, (key, site)
            failing[key, site] = [e.name for e in entries if not e.passed]
    assert len(failing) == 32
    assert all(failing.values()), [site for site, names in failing.items() if not names]
    # a rescaled central M in [A-, A+] = M or [K, P] = M keeps every Hopf
    # axiom and the R-matrix; only the comparison with the other table sees it
    assert {site: names for site, names in failing.items() if len(names) == 1} == {
        (("A-", "A+"), ("M",)): ["transport/relations"],
        (("K", "P"), ("M",)): ["transport/relations"]}


def test_hopf_rmatrix_and_transport_catch_every_coproduct_and_antipode_row_mutation(
        monkeypatch):
    # +1 on each of the 12 h6 and 18 Schrodinger coproduct and antipode row
    # coefficients and exponential scales, one at a time, at k = 2; the
    # primitive generators have no row, and the mutations of the expanded
    # tables in test_algebra.py cover them
    failing = {}
    for tables, make in (((H6_COPRODUCTS, H6_ANTIPODES), two_photon_algebra),
                         ((SCH_COPRODUCTS, SCH_ANTIPODES), schrodinger_algebra)):
        for kind, table in zip(("coproduct", "antipode"), tables):
            for x, entry in table.items():
                for left, site, row in _relation_row_mutations(entry):
                    with monkeypatch.context() as patch:
                        patch.setitem(entry, left, row)
                        alg = make(2)
                        entries = (hopf_checks(alg) + rmatrix_checks(alg) + transport_checks(
                            schrodinger_algebra(2), two_photon_algebra(2)))
                        reference = _reference_transport_verdicts(2)
                    assert _transport_verdicts(entries) == reference, (kind, x, left, site)
                    failing[alg.name, kind, x, left, site] = [
                        e.name for e in entries if not e.passed]
    assert len(failing) == 30
    assert all(failing.values()), [site for site, names in failing.items() if not names]


def test_first_order_delta_matches_tables():
    alg = two_photon_algebra(1)
    assert first_order_delta(alg, "B+") == {}
    assert first_order_delta(alg, "N") == {(0, 1): Fraction(-2)}
    assert first_order_delta(alg, "A+") == {(0, 3): Fraction(1)}
    sch = schrodinger_algebra(1)
    assert first_order_delta(sch, "K") == {
        (0, 4): Fraction(-2), (1, 3): Fraction(-2), (2, 3): Fraction(-1)}


def test_oscillator_sector_not_a_coalgebra():
    alg = two_photon_algebra(1)
    closed, witness = coproduct_closure(alg, ("N", "A+", "A-", "M"))
    assert not closed
    assert "B+" in witness
    # classically the sector is primitive, hence closed
    closed, _ = coproduct_closure(two_photon_algebra(0), ("N", "A+", "A-", "M"))
    assert closed
    for entry in structure_checks(alg):
        assert entry.passed


def test_galilei_subalgebra_closed_with_central_casimir():
    sch = schrodinger_algebra(3)
    closed, _ = bracket_closure(sch, ("H", "M", "P", "K"))
    assert closed
    ez = galilei_casimir(sch)
    # classical part is P^2 - 2 H M
    assert ez.coefficient(word(sch, "P", "P")) == TruncatedSeries.one(3)
    assert ez.coefficient(word(sch, "H", "M")).coeffs[0] == Fraction(-2)
    for entry in casimir_checks(sch):
        assert entry.passed, (entry.name, entry.residual)


def test_galilei_casimir_is_the_transcribed_element():
    # the Casimir as built by hand before it became the row SCH_CASIMIR:
    # P^2 + sum_{n>=1} (-4)^n/(2 n!) z^{n-1} H^n M
    for order in range(9):
        sch = schrodinger_algebra(order)
        H, M, P = (sch.gen_index(g) for g in ("H", "M", "P"))
        transcribed = NCElement(sch, {(P, P): sch.one_series(),
                                      **_exp_words(H, -4, order, lo=1, zshift=-1,
                                                   scale=Fraction(1, 2), suffix=(M,))})
        ez = galilei_casimir(sch)
        assert ez == transcribed, order
        assert list(ez.terms) == list(transcribed.terms), order


def test_casimir_not_central_for_dilation():
    sch = schrodinger_algebra(2)
    ez = galilei_casimir(sch)
    com = ez.commutator(sch.gen("D"))
    assert com == ez.scale(TruncatedSeries.constant(2, 2))
