"""Command-line front end: selects checks, fixes parameters, runs the matrix.

Exit codes: 0 all checks passed, 1 at least one verification failed,
2 usage error, 3 internal engine error.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import time
import traceback
from fractions import Fraction

from .algebra import two_photon_algebra, schrodinger_algebra
from .bargmann import (EigenProblem, classical_rep, deformed_rep, eigen_operator,
                       first_order_rep, rep_checks, series_solve, SingularRecurrenceError)
from .bialgebra import (classical_lie, basis_change, delta_table_from_r, verify_cybe,
                        verify_cocycle, H6_R_MATRIX, SCH_R_MATRIX, H6_DELTA_TABLE,
                        SCH_DELTA_TABLE, H6_TO_SCH_MAP)
from .discrete import (verify_realization, symmetry_checks, solution_checks,
                       heat_polynomials, exponential_solutions, regular_kappas,
                       sample_grid)
from .hopf import (hopf_checks, rmatrix_checks, transport_checks,
                   structure_checks, casimir_checks, first_order_delta)
from .report import (CheckResult, render_text, report_json_dict, canonical_json,
                     summarize)
from .scalars import parse_rational, parse_complex_rational

ALL_CHECKS = ("bialgebra", "hopf", "rmatrix", "rep", "eigen", "discrete-se")
EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3

# per algebra: the name of its classical Lie algebra, its classical r-matrix,
# cocommutator table and quantum algebra builder. A check group builds each
# quantum algebra once and reads every layer it certifies off that instance:
# the Lie algebra is the z^0 part of its relations (classical_lie), the
# bialgebra the z^1 part of its coproduct, and the hopf group hands its two
# instances on to the transport entries
ALGEBRAS = {
    "h6": ("h6", H6_R_MATRIX, H6_DELTA_TABLE, two_photon_algebra),
    "sch": ("schrodinger", SCH_R_MATRIX, SCH_DELTA_TABLE, schrodinger_algebra),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="twophoton-verify",
        description="Certify the deformed two-photon / Schrodinger algebra "
                    "identities to a configurable truncation order.")
    p.add_argument("--algebra", choices=("h6", "sch", "both"), default="both")
    p.add_argument("--order", type=int, default=3,
                   help="series truncation order k, 0..8")
    p.add_argument("--z", default="1/10",
                   help="lattice parameter, a positive rational like 1/10")
    p.add_argument("--mass", default="1")
    p.add_argument("--rep-param", dest="rep_param", default="-1/2",
                   help="representation label a; C is a symmetry only at -1/2")
    p.add_argument("--checks", default=",".join(ALL_CHECKS),
                   help="comma-separated subset of " + ",".join(ALL_CHECKS))
    p.add_argument("--beta", default="0,1,0,0,0",
                   help="five complex rationals for the eigenproblem")
    p.add_argument("--eigenvalue", default="1")
    p.add_argument("--degree", type=int, default=30)
    p.add_argument("--out", default="", help="write the JSON report here")
    p.add_argument("--dump-spec", choices=("h6", "sch"), default="",
                   help="dump an algebra spec as JSON and exit")
    p.add_argument("--csv-out", default="",
                   help="sample certified solutions on the lattice into a CSV")
    return p


# a value led by '-' that argparse would read as an option: -1/2, -i, -.5, -1,1,0,0,0
_NEGATIVE_VALUE = re.compile(r"-[\d.i]")


def _attach_negative_values(argv):
    """Write '--opt -1/2' as '--opt=-1/2'.

    argparse reads a separate token that starts with '-' as an option unless
    it is a plain decimal such as -1, so a negative rational, '-i' or a beta
    list led by a negative entry would leave its option without a value.
    Every long option but --help takes one value; after any other, a token
    that starts with '-' and then a digit, '.' or 'i' is that value.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE_VALUE.match(tok) and prev.startswith("--") and "=" not in prev
                and not "--help".startswith(prev)):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def parse_config(args, parser):
    try:
        z = parse_rational(args.z)
        mass = parse_rational(args.mass)
        rep_param = parse_rational(args.rep_param)
        betas = tuple(parse_complex_rational(b) for b in args.beta.split(","))
        eigenvalue = parse_complex_rational(args.eigenvalue)
    except ValueError as exc:
        parser.error(str(exc))
    if z <= 0:
        parser.error("--z must be a positive rational")
    if mass == 0:
        parser.error("--mass must be nonzero")
    if len(betas) != 5:
        parser.error("--beta needs exactly five entries")
    if not any(betas):
        parser.error("--beta needs at least one nonzero entry")
    if args.degree < 2:
        parser.error("--degree must be at least 2")
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if not checks:
        parser.error("--checks selects no check")
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        parser.error(f"unknown checks: {', '.join(bad)}")
    return {
        "algebra": args.algebra,
        "order": args.order,
        "z": z,
        "mass": mass,
        "rep_param": rep_param,
        "checks": checks,
        "betas": betas,
        "eigenvalue": eigenvalue,
        "degree": args.degree,
    }


def config_echo(cfg):
    return {
        "algebra": cfg["algebra"],
        "order": str(cfg["order"]),
        "z": str(cfg["z"]),
        "mass": str(cfg["mass"]),
        "rep_param": str(cfg["rep_param"]),
        "checks": ",".join(cfg["checks"]),
        "beta": ",".join(str(b) for b in cfg["betas"]),
        "eigenvalue": str(cfg["eigenvalue"]),
        "degree": str(cfg["degree"]),
    }


# -- check groups -----------------------------------------------------------------


def _selected_algebras(cfg):
    """The ALGEBRAS rows that --algebra selects, h6 first."""
    return [row for key, row in ALGEBRAS.items() if cfg["algebra"] in (key, "both")]


def run_bialgebra(cfg):
    entries = []
    for lie_name, r, table, quantum in _selected_algebras(cfg):
        # neither the z^0 relations nor the z^1 coproduct depend on k >= 1
        alg = quantum(1)
        lie = classical_lie(lie_name, alg)
        entries.append(CheckResult(
            name=f"bialgebra/{lie.name}/jacobi",
            passed=not lie.jacobi_violations(), residual="0"))
        entries.append(verify_cybe(lie, r))
        deltas = delta_table_from_r(lie, r)
        bad = [g for g in lie.basis if deltas[g] != table[g]]
        entries.append(CheckResult(
            name=f"bialgebra/{lie.name}/cocommutator-table", passed=not bad,
            residual="0" if not bad else "mismatch at " + ", ".join(bad)))
        entries.extend(verify_cocycle(lie, deltas))
        # first z order of the quantum coproduct must reproduce delta
        bad = []
        for g in lie.basis:
            if first_order_delta(alg, g) != deltas[g].terms:
                bad.append(g)
        entries.append(CheckResult(
            name=f"bialgebra/{lie.name}/first-order-match", passed=not bad,
            residual="0" if not bad else "mismatch at " + ", ".join(bad)))
    return entries


def run_hopf(cfg):
    # both algebras, whichever --algebra selects: the transport needs the two
    built = {key: quantum(cfg["order"]) for key, (*_, quantum) in ALGEBRAS.items()}
    entries = []
    for key, alg in built.items():
        if cfg["algebra"] in (key, "both"):
            entries.extend(hopf_checks(alg))
            entries.extend(structure_checks(alg))
    entries.extend(transport_checks(built["sch"], built["h6"]))
    # classical limit of the transport: basis change carries table to table,
    # and a singular map fails the entry with basis_change's message
    h6, sch = (classical_lie(ALGEBRAS[key][0], built[key]) for key in ("h6", "sch"))
    try:
        mapped = basis_change(h6, H6_TO_SCH_MAP)
    except ValueError as exc:
        ok, residual = False, str(exc)
    else:
        ok = all(mapped.bracket_basis(i, j) == sch.bracket_basis(i, j)
                 for i in range(6) for j in range(i))
        residual = "0" if ok else "structure constants differ"
    entries.append(CheckResult(name="transport/classical-table", passed=ok, residual=residual))
    return entries


def run_rmatrix(cfg):
    entries = []
    for *_, quantum in _selected_algebras(cfg):
        entries.extend(rmatrix_checks(quantum(cfg["order"])))
    return entries


def run_rep(cfg):
    return rep_checks(cfg["order"])


def run_eigen(cfg):
    entries = []

    # number operator: alpha d/dalpha f = n f has the monomial solution
    n_target = 5
    problem = EigenProblem((1, 0, 0, 0, 0), n_target)
    classical = classical_rep()
    coeffs, tail = series_solve(eigen_operator(problem, classical), 10)
    want = [Fraction(1) if i == n_target else Fraction(0) for i in range(11)]
    ok = coeffs == want and not tail
    entries.append(CheckResult(
        name="eigen/number-operator", passed=ok,
        residual="0" if ok else f"coefficients {coeffs}",
        params={"beta": "1,0,0,0,0", "lambda": str(n_target)}))

    # pure second-derivative case follows the two-step recurrence
    problem = EigenProblem((0, 1, 0, 0, 0), 1)
    coeffs, _ = series_solve(eigen_operator(problem, classical), 12)
    expect = [Fraction(1), Fraction(0)]
    for n in range(11):
        expect.append(expect[n] / ((n + 1) * (n + 2)))
    ok = coeffs == expect
    entries.append(CheckResult(
        name="eigen/recurrence-beta2", passed=ok,
        residual="0" if ok else f"coefficients {coeffs}",
        params={"beta": "0,1,0,0,0", "lambda": "1"}))

    # displayed first-order truncation against the closed-form realization,
    # part by part; a nonzero imaginary part renders as re + i*(im)
    problem = EigenProblem(cfg["betas"], cfg["eigenvalue"])
    order = max(1, cfg["order"])
    full = eigen_operator(problem, deformed_rep(order))
    first = eigen_operator(problem, first_order_rep())
    re, im = (f.truncate(1) - g for f, g in zip(full, first))
    entries.append(CheckResult("eigen/first-order-vs-full", not (re or im),
                               f"{re} + i*({im})" if im else str(re), {"order": str(order)}))

    # deformed solve at the configured rational z
    op = tuple(part.substitute_z(cfg["z"]) for part in first)
    params = {"beta": ",".join(str(b) for b in cfg["betas"]),
              "lambda": str(cfg["eigenvalue"]), "z": str(cfg["z"]),
              "degree": str(cfg["degree"])}
    try:
        coeffs, tail = series_solve(op, cfg["degree"])
    except (SingularRecurrenceError, ValueError) as exc:
        entries.append(CheckResult(
            name="eigen/deformed-residual", passed=False, residual=str(exc),
            params=params))
        return entries
    params["coefficients"] = "[" + ", ".join(str(c) for c in coeffs) + "]"
    entries.append(CheckResult(
        name="eigen/deformed-residual", passed=True, residual="0", params=params))
    return entries


def run_discrete(cfg):
    z, m, a = cfg["z"], cfg["mass"], cfg["rep_param"]
    entries = []
    entries.extend(verify_realization(m, a, z))
    entries.extend(verify_realization(m, a, 0))
    entries.extend(symmetry_checks(m, a, z))
    entries.extend(symmetry_checks(m, a, 0))
    entries.extend(solution_checks(m, a, z))
    entries.extend(solution_checks(m, a, 0))
    entries.extend(casimir_checks(schrodinger_algebra(cfg["order"])))
    return entries


GROUP_RUNNERS = {
    "bialgebra": run_bialgebra,
    "hopf": run_hopf,
    "rmatrix": run_rmatrix,
    "rep": run_rep,
    "eigen": run_eigen,
    "discrete-se": run_discrete,
}


def run_checks(cfg):
    selected = [name for name in ALL_CHECKS if name in cfg["checks"]]
    entries = []
    for name in selected:
        entries.extend(GROUP_RUNNERS[name](cfg))
    return sorted(entries, key=lambda e: e.name)


def _dump_spec(which, order, out_path):
    *_, quantum = ALGEBRAS[which]
    text = canonical_json(quantum(order).to_json_dict())
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _write_csv(cfg, path):
    polys = heat_polynomials(cfg["mass"], cfg["z"], 3)
    kappas = regular_kappas(cfg["mass"], cfg["z"], [1])
    exps = exponential_solutions(cfg["mass"], cfg["z"], kappas)
    xs = [Fraction(i, 2) for i in range(-4, 5)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solution", "x", "t", "value"])
        for i, phi in enumerate(polys + exps):
            for x, t, value in sample_grid(phi, xs, Fraction(0), 8):
                writer.writerow([i, x, t, repr(value)])


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    if not 0 <= args.order <= 8:
        parser.error("--order must be between 0 and 8")
    for flag, path in (("--out", args.out), ("--csv-out", args.csv_out)):
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            parser.error(f"{flag} {path}: not a file in an existing directory")
    try:
        if args.dump_spec:
            return _dump_spec(args.dump_spec, args.order, args.out)
        cfg = parse_config(args, parser)
        start = time.perf_counter()
        entries = run_checks(cfg)
        report = report_json_dict(config_echo(cfg), entries, start)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(report))
        if args.csv_out:
            _write_csv(cfg, args.csv_out)
        print(render_text(entries))
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_PASS if summarize(entries)["failed"] == 0 else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
