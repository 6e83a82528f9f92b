import random
from fractions import Fraction

import pytest

from twophoton.algebra import schrodinger_algebra, two_photon_algebra
from twophoton.bialgebra import (H6_DELTA_TABLE, H6_R_MATRIX, H6_TO_SCH_MAP,
                                 SCH_DELTA_TABLE, SCH_R_MATRIX, SL2_EXT_MAP,
                                 LieAlgebra, WedgeElement, basis_change, classical_lie,
                                 cocommutator_from_r, delta_table_from_r,
                                 schrodinger_lie, two_photon_lie, verify_cocycle,
                                 verify_cybe)

B, N, M, AP, AM, BM = range(6)
# the classical brackets transcribed by hand from the paper, apart from the
# PBW relation tables they are read off: [X_i, X_j] for i > j, zero if absent
H6_BRACKETS = {
    (N, B): {B: 2},            # [N, B+] = 2B+
    (AP, N): {AP: -1},         # [A+, N] = -A+
    (AM, B): {AP: 2},          # [A-, B+] = 2A+
    (AM, N): {AM: 1},
    (AM, AP): {M: 1},          # [A-, A+] = M
    (BM, B): {N: 4, M: 2},     # [B-, B+] = 4N + 2M
    (BM, N): {BM: 2},
    (BM, AP): {AM: 2},         # [B-, A+] = 2A-
}
H, D, _, P, K, C = range(6)  # M is generator 2 in both bases
SCH_BRACKETS = {
    (D, H): {H: -2},           # [D, H] = -2H
    (P, D): {P: 1},            # [P, D] = P
    (K, H): {P: 1},            # [K, H] = P
    (K, D): {K: -1},
    (K, P): {M: 1},            # [K, P] = M
    (C, H): {D: -1},           # [C, H] = -D
    (C, D): {C: -2},
    (C, P): {K: 1},            # [C, P] = K
}


def _pinned_table(brackets):
    return {(i, j): {k: Fraction(c) for k, c in brackets.get((i, j), {}).items()}
            for i in range(6) for j in range(i)}


def test_builtin_tables_satisfy_jacobi():
    assert two_photon_lie().jacobi_violations() == []
    assert schrodinger_lie().jacobi_violations() == []


def test_lie_tables_match_the_transcribed_brackets():
    h6, sch = two_photon_lie(), schrodinger_lie()
    assert (h6.name, sch.name) == ("h6", "schrodinger")
    assert h6.basis == ("B+", "N", "M", "A+", "A-", "B-")
    assert sch.basis == ("H", "D", "M", "P", "K", "C")
    assert h6.table == _pinned_table(H6_BRACKETS)
    assert sch.table == _pinned_table(SCH_BRACKETS)


def test_classical_lie_sees_every_classical_relation_coefficient():
    # +1 on any z^0 coefficient of a PBW relation breaks the Jacobi
    # identity or moves the table; only the central M's coefficients leave
    # a Lie algebra, a different one
    raised = changed = 0
    for name, make, brackets in (("h6", two_photon_algebra, H6_BRACKETS),
                                 ("schrodinger", schrodinger_algebra, SCH_BRACKETS)):
        alg = make(0)
        for relation in alg._relations.values():
            for key in [key for key in relation if key[1] == 0]:
                relation[key] += 1
                try:
                    table = classical_lie(name, alg).table
                except ValueError:
                    raised += 1
                else:
                    assert table != _pinned_table(brackets), (name, key)
                    changed += 1
                relation[key] -= 1
        assert classical_lie(name, alg).table == _pinned_table(brackets)
    assert (raised, changed) == (14, 3)


def test_wedge_antisymmetry_storage():
    w = WedgeElement({(1, 0): Fraction(3)})
    assert w.terms == {(0, 1): Fraction(-3)}
    assert w.add_pair(0, 1, Fraction(3)).is_zero()
    with pytest.raises(ValueError):
        WedgeElement({(1, 1): 1})


def test_cocommutator_examples():
    h6 = two_photon_lie()
    # delta(A+) = -z A+ ^ B+
    got = cocommutator_from_r(h6, H6_R_MATRIX, "A+")
    assert got == WedgeElement({(3, 0): Fraction(-1)})
    assert cocommutator_from_r(h6, H6_R_MATRIX, "M").is_zero()
    sch = schrodinger_lie()
    # delta(K) = z(2 K^H + 2 P^D + P^M)
    got = cocommutator_from_r(sch, SCH_R_MATRIX, "K")
    assert got == WedgeElement({(4, 0): Fraction(2), (3, 1): Fraction(2),
                                (3, 2): Fraction(1)})


def test_cocommutator_tables_match_displayed():
    h6, sch = two_photon_lie(), schrodinger_lie()
    assert delta_table_from_r(h6, H6_R_MATRIX) == H6_DELTA_TABLE
    assert delta_table_from_r(sch, SCH_R_MATRIX) == SCH_DELTA_TABLE


def test_cybe_positive_cases():
    assert verify_cybe(two_photon_lie(), H6_R_MATRIX).passed
    assert verify_cybe(schrodinger_lie(), SCH_R_MATRIX).passed


def test_cybe_negative_control():
    # z A+ ^ A- is not a Yang-Baxter solution: [A-, A+] = M obstructs it
    entry = verify_cybe(two_photon_lie(), WedgeElement({(3, 4): Fraction(1)}))
    assert not entry.passed
    assert "M" in entry.residual


def test_cocycle_and_cojacobi():
    h6, sch = two_photon_lie(), schrodinger_lie()
    for entry in verify_cocycle(h6, delta_table_from_r(h6, H6_R_MATRIX)):
        assert entry.passed, entry.name
    for entry in verify_cocycle(sch, delta_table_from_r(sch, SCH_R_MATRIX)):
        assert entry.passed, entry.name
    zero = {name: WedgeElement() for name in h6.basis}
    for entry in verify_cocycle(h6, zero):
        assert entry.passed


def test_basis_change_to_schrodinger():
    h6, sch = two_photon_lie(), schrodinger_lie()
    mapped = basis_change(h6, H6_TO_SCH_MAP)
    assert mapped.basis == sch.basis
    for i in range(6):
        for j in range(i):
            assert mapped.bracket_basis(i, j) == sch.bracket_basis(i, j), (
                mapped.basis[i], mapped.basis[j])
    # spot value: [D, H] = -2H
    d, h = mapped.index("D"), mapped.index("H")
    assert mapped.bracket_basis(d, h) == {h: Fraction(-2)}


def test_basis_change_identity():
    h6 = two_photon_lie()
    rows = [(name, {i: Fraction(1)}) for i, name in enumerate(h6.basis)]
    mapped = basis_change(h6, rows)
    for i in range(6):
        for j in range(i):
            assert mapped.bracket_basis(i, j) == h6.bracket_basis(i, j)


def test_extended_sl2_identification():
    sl2 = basis_change(two_photon_lie(), SL2_EXT_MAP)
    jp, jm, j3, ii = (sl2.index(n) for n in ("J+", "J-", "J3", "I"))
    assert sl2.bracket_basis(j3, jp) == {jp: Fraction(2)}
    assert sl2.bracket_basis(j3, jm) == {jm: Fraction(-2)}
    assert sl2.bracket_basis(jp, jm) == {j3: Fraction(1), ii: Fraction(-1)}
    for other in (jp, jm, j3):
        assert sl2.bracket_basis(ii, other) == {}


def test_basis_change_rejects_singular_map():
    h6 = two_photon_lie()
    rows = [("X", {0: Fraction(1)}), ("Y", {0: Fraction(2)})]
    with pytest.raises(ValueError):
        basis_change(h6, rows)


def test_basis_change_rejects_open_span():
    h6 = two_photon_lie()
    # [B-, B+] = 4N + 2M escapes the span {N, B-, B+}
    rows = [("X", {1: Fraction(1)}), ("Y", {5: Fraction(1)}),
            ("Z", {0: Fraction(1)})]
    with pytest.raises(ValueError):
        basis_change(h6, rows)


# a float would enter these as its binary expansion: Fraction(0.1) is
# 3602879701896397/36028797018963968
FLOAT_ERROR = "takes int or Fraction scalars, not float"


def test_wedge_coefficients_are_exact():
    with pytest.raises(TypeError, match=f"WedgeElement {FLOAT_ERROR}"):
        WedgeElement({(0, 1): 0.1})
    with pytest.raises(TypeError, match=f"WedgeElement {FLOAT_ERROR}"):
        WedgeElement().add_pair(0, 1, 0.5)
    assert WedgeElement({(1, 0): 3}) == WedgeElement({(0, 1): Fraction(-3)})


def test_lie_brackets_are_exact():
    with pytest.raises(TypeError, match=f"LieAlgebra {FLOAT_ERROR}"):
        LieAlgebra("two", ("X", "Y"), {(1, 0): {0: 0.5}})
    lie = LieAlgebra("two", ("X", "Y"), {(1, 0): {0: 2, 1: Fraction(0)}})
    assert lie.table == {(1, 0): {0: Fraction(2)}}


def test_lie_bracket_vectors_are_exact():
    lie = two_photon_lie()
    for va, vb in (({N: 0.5}, {B: 1}), ({N: 1}, {B: 1.0})):
        with pytest.raises(TypeError, match=f"LieAlgebra {FLOAT_ERROR}"):
            lie.bracket(va, vb)


def test_lie_bracket_of_exact_vectors_is_the_bilinear_table():
    assert two_photon_lie().bracket({N: 1}, {B: 1}) == {B: Fraction(2)}
    rng = random.Random(47)
    for lie in (two_photon_lie(), schrodinger_lie()):
        for _ in range(10):
            va, vb = ({i: rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)))
                       for i in rng.sample(range(6), 3)} for _ in range(2))
            expected = {}
            for i, a in va.items():
                for j, b in vb.items():
                    for k, c in lie.bracket_basis(i, j).items():
                        expected[k] = expected.get(k, 0) + a * b * c
            got = lie.bracket(va, vb)
            assert got == {k: c for k, c in expected.items() if c}
            assert all(type(c) is Fraction for c in got.values())


def test_basis_change_rows_are_exact():
    rows = tuple((name, {g: float(c) for g, c in row.items()}) for name, row in H6_TO_SCH_MAP)
    with pytest.raises(TypeError, match=f"basis_change {FLOAT_ERROR}"):
        basis_change(two_photon_lie(), rows)
    rows = tuple((name, {g: int(c) if c.denominator == 1 else c for g, c in row.items()})
                 for name, row in H6_TO_SCH_MAP)
    assert basis_change(two_photon_lie(), rows).table == schrodinger_lie().table


def test_wedge_render():
    w = WedgeElement({(0, 1): Fraction(-2)})
    assert w.render(two_photon_lie().basis) == "-2*B+^N"
    assert WedgeElement().render(two_photon_lie().basis) == "0"
