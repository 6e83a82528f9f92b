"""Acceptance suite: every identity is exact, so each criterion demands
residual exactly zero (or an exactly reproduced table), plus the negative
controls. One line per criterion is printed; run with `pytest -s` to see
them inline.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from twophoton.algebra import two_photon_algebra, schrodinger_algebra
from twophoton.bargmann import (EigenProblem, classical_rep, deformed_rep,
                                eigen_operator, first_order_rep, series_solve,
                                verify_rep)
from twophoton.bialgebra import (H6_DELTA_TABLE, H6_R_MATRIX, H6_TO_SCH_MAP,
                                 SCH_DELTA_TABLE, SCH_R_MATRIX,
                                 delta_table_from_r, basis_change,
                                 schrodinger_lie, two_photon_lie, verify_cybe)
from twophoton.discrete import (exponential_solutions, heat_polynomials,
                                apply_and_recheck, solution_checks,
                                symmetry_check, symmetry_checks,
                                verify_realization)
from twophoton.hopf import (first_order_delta, hopf_checks, rmatrix_checks,
                            transport_checks)
from twophoton.scalars import ComplexRational

GENERATORS = ("B+", "N", "M", "A+", "A-", "B-")


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_1_hopf_suite():
    elapsed = 0.0
    for order in (0, 1, 2, 3):
        start = time.perf_counter()
        entries = hopf_checks(two_photon_algebra(order))
        elapsed = time.perf_counter() - start
        per_gen = 5 * 6   # coassoc + two counit + two antipode axioms
        pairs = 15        # coproduct homomorphism on every generator pair
        assert len(entries) == per_gen + pairs
        bad = [e.name for e in entries if not e.passed]
        assert not bad, (order, bad)
    ok = elapsed < 60.0
    report(1, ok, f"h6 Hopf axioms exact at k=0..3; k=3 took {elapsed:.2f}s")


def test_criterion_2_rmatrix():
    for make in (two_photon_algebra, schrodinger_algebra):
        for order in (0, 1, 2, 3):
            entries = {e.name: e for e in rmatrix_checks(make(order))}
            qybe = [e for name, e in entries.items() if name.endswith("/qybe")]
            inter = [e for name, e in entries.items() if "/intertwine/" in name]
            assert len(qybe) == 1 and len(inter) == 6
            bad = [e.name for e in entries.values() if not e.passed]
            assert not bad, (make.__name__, order, bad)
    report(2, True, "QYBE and intertwining residuals exactly zero, both specs, k=0..3")


def test_criterion_3_bialgebra_layer():
    h6, sch = two_photon_lie(), schrodinger_lie()
    assert verify_cybe(h6, H6_R_MATRIX).passed
    assert verify_cybe(sch, SCH_R_MATRIX).passed
    assert delta_table_from_r(h6, H6_R_MATRIX) == H6_DELTA_TABLE
    assert delta_table_from_r(sch, SCH_R_MATRIX) == SCH_DELTA_TABLE
    for lie, make, r in ((h6, two_photon_algebra, H6_R_MATRIX),
                         (sch, schrodinger_algebra, SCH_R_MATRIX)):
        alg = make(1)
        table = delta_table_from_r(lie, r)
        for g in lie.basis:
            assert first_order_delta(alg, g) == table[g].terms, (lie.name, g)
    report(3, True, "CYBE zero, cocommutator tables exact, first z-order matches delta")


def test_criterion_4_transport():
    h6, sch = two_photon_lie(), schrodinger_lie()
    mapped = basis_change(h6, H6_TO_SCH_MAP)
    for i in range(6):
        for j in range(i):
            assert mapped.bracket_basis(i, j) == sch.bracket_basis(i, j)
    for order in (0, 1, 2, 3):
        bad = [e.name for e in transport_checks(order) if not e.passed]
        assert not bad, (order, bad)
    report(4, True, "basis change reproduces the classical table; "
                    "the basis change is a Hopf map into h6 at k=0..3")


def test_criterion_5_representation():
    for order in (0, 1, 2, 3, 4):
        bad = [e.name for e in verify_rep(order) if not e.passed]
        assert not bad, (order, bad)
    full, limit = deformed_rep(4), deformed_rep(0)
    first, classical = first_order_rep(), classical_rep()
    for gen in GENERATORS:
        assert full[gen].truncate(1) == first[gen], gen
        assert limit[gen] == classical[gen], gen
    report(5, True, "deformed one-boson realization exact at k=0..4, "
                    "first-order and classical limits reproduced")


def test_criterion_6_eigenstates():
    zero, one = ComplexRational(0), ComplexRational(1)
    n = 7
    problem = EigenProblem((one, zero, zero, zero, zero), ComplexRational(n))
    coeffs, tail = series_solve(eigen_operator(problem, classical_rep()), 12)
    assert tail == {}
    assert coeffs == [Fraction(1) if i == n else Fraction(0) for i in range(13)]

    lam = ComplexRational(Fraction(2, 3))
    problem = EigenProblem((zero, one, zero, zero, zero), lam)
    coeffs, _ = series_solve(eigen_operator(problem, classical_rep()), 14)
    expect = [Fraction(1), Fraction(0)]
    for m in range(13):
        expect.append(Fraction(2, 3) * expect[m] / ((m + 1) * (m + 2)))
    assert coeffs == expect

    problem = EigenProblem((zero, one, zero, zero, zero), one)
    op, im = (part.substitute_z(Fraction(1, 10))
              for part in eigen_operator(problem, first_order_rep()))
    assert im.is_zero()
    coeffs, tail = series_solve((op, im), 30)
    image = op.apply_to_polynomial(dict(enumerate(coeffs)))
    low = {m for m, s in image.items() if m <= 28 and s.coeffs[0] != 0}
    assert not low and all(m > 28 for m in tail)
    report(6, True, "monomial eigenstate exact, recurrence reproduced, "
                    "degree-30 deformed solution vanishes through degree 28")


def test_criterion_7_discrete_se():
    matrix = [(z, m, a)
              for z in (Fraction(1, 10), Fraction(1, 4))
              for m in (Fraction(1), Fraction(2))
              for a in (Fraction(-1, 2), Fraction(0))]
    for z, m, a in matrix:
        bad = [e.name for e in verify_realization(m, a, z) if not e.passed]
        assert not bad, (z, m, a, bad)
        _, lams = symmetry_check("D", m, a, z)
        assert lams == (Fraction(2), Fraction(0), Fraction(0)), (z, m, a)
        for gen in ("K", "H", "P", "M"):
            _, lams = symmetry_check(gen, m, a, z)
            assert lams == (Fraction(0), Fraction(0), Fraction(0)), (gen, z, m, a)
        if a == Fraction(-1, 2):
            _, lams = symmetry_check("C", m, a, z)
            assert lams == (2 * z * (1 - m), Fraction(2), -4 * z), (z, m)
        else:
            entry, lams = symmetry_check("C", m, a, z)
            assert lams is None and entry.residual != "0", (z, m, a)
    report(7, True, "realization brackets exact over the parameter matrix, "
                    "D and C symmetries verified, a=0 negative control fails as required")


def test_criterion_8_solutions():
    z, m, a = Fraction(1, 10), Fraction(1), Fraction(-1, 2)
    polys = heat_polynomials(m, z, 5)
    exps = exponential_solutions(m, z, [Fraction(0), Fraction(1), Fraction(2)])
    assert len(polys) == 5 and len(exps) == 3
    for phi in polys + exps:
        for gen in ("H", "D", "M", "P", "K", "C"):
            assert apply_and_recheck(gen, phi, m, a).passed, gen
    classical = solution_checks(m, a, 0)
    assert classical and all(e.passed for e in classical)
    report(8, True, "5 heat polynomials and 3 exponential solutions certified, "
                    "generator images recertified, classical limit included")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for i in (1, 2):
        path = tmp_path / f"run{i}.json"
        res = subprocess.run(
            [sys.executable, "-m", "twophoton.cli", "--order", "2",
             "--out", str(path)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        data = json.loads(path.read_text())
        data.pop("timings")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]
    report(9, True, "two consecutive full runs byte-identical with timings excluded")
