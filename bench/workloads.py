"""The benchmark's workloads and the correctness oracle that judges them.

Each workload is one ``twophoton-verify`` argv. The inputs are fixed: the
CLI has no randomness, so the benchmark seed only picks which verdict the
oracle's negative control flips.

The oracle is taken from the paper, not from the code: every identity the
paper states must certify (PASS), except that away from the symmetric
representation value a = -1/2 the conformal generator C stops being a
symmetry of the discrete-time Schrodinger equation, so its symmetry check
and every solution-map check through C must FAIL.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from fractions import Fraction

# check-name patterns that fail exactly when rep_param != -1/2
CONFORMAL_PATTERNS = ("discrete-se/symmetry-*/C", "discrete-se/solution-map-*/C/*")
SYMMETRIC_REP_PARAM = Fraction(-1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI flags without --order
    order: int

    def argv(self, order=None):
        return [*self.args, "--order", str(self.order if order is None else order)]

    @property
    def rep_param(self):
        flags = list(self.args)
        if "--rep-param" in flags:
            return Fraction(flags[flags.index("--rep-param") + 1])
        return SYMMETRIC_REP_PARAM

    def expected_pass(self, check_name):
        """Paper-derived verdict for one check of this workload."""
        if self.rep_param == SYMMETRIC_REP_PARAM:
            return True
        return not any(fnmatch.fnmatchcase(check_name, p) for p in CONFORMAL_PATTERNS)

    def expected_exit_code(self, names):
        return 0 if all(self.expected_pass(n) for n in names) else 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rmatrix-k5",
        args=("--checks", "rmatrix", "--algebra", "both"),
        order=5),
    Workload(
        name="hopf-k8",
        args=("--checks", "bialgebra,hopf", "--algebra", "both"),
        order=8),
    Workload(
        name="lattice-k8",
        args=("--checks", "rep,eigen,discrete-se", "--degree", "400",
              "--beta", "1,1,1,1,1", "--eigenvalue", "1/3+1/2i", "--rep-param", "0"),
        order=8),
)}


def verdict_errors(workload, entries):
    """Number of report entries whose PASS/FAIL differs from the oracle.

    ``entries`` is the report's entry list, counted as a list because check
    names are not unique.
    """
    return sum(1 for e in entries if e["pass"] != workload.expected_pass(e["name"]))


def call_errors(workload, exit_code, entries):
    """Verdict errors of one CLI call.

    A wrong exit code, a missing report, or a run at a != -1/2 that lacks the
    conformal negative control counts every check of the call as failed.
    """
    names = [e["name"] for e in entries]
    control_missing = (workload.rep_param != SYMMETRIC_REP_PARAM
                       and all(workload.expected_pass(n) for n in names))
    if not entries or control_missing or exit_code != workload.expected_exit_code(names):
        return max(1, len(entries))
    return verdict_errors(workload, entries)


def negative_control(workload, entries, seed):
    """Flip the verdict of one correct entry; the oracle must count exactly one error."""
    if not entries:
        return False
    i = seed % len(entries)
    flipped = list(entries)
    flipped[i] = {**entries[i], "pass": not entries[i]["pass"]}
    return verdict_errors(workload, flipped) == 1
