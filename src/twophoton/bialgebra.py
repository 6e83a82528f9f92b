"""Classical layer: structure constants, r-matrices, cocommutators.

The structure constants of h6 and of the Schrodinger algebra are read off
the PBW relation tables of the deformed algebras at order 0: the classical
Lie algebras are the z -> 0 limits of the one deformed bracket table.

The deformation parameter stays a formal scalar here. The classical
Yang-Baxter and 1-cocycle conditions are homogeneous in it, so wedges store
plain rational coefficients of the single z power they carry.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import schrodinger_algebra, two_photon_algebra
from .report import CheckResult
from .scalars import _rational
from .sparse import SparseTerms, collect, linear_combination, solve_linear

__all__ = [
    "LieAlgebra", "WedgeElement",
    "classical_lie", "two_photon_lie", "schrodinger_lie",
    "H6_TO_SCH_MAP", "SL2_EXT_MAP",
    "cocommutator_from_r", "delta_table_from_r",
    "verify_cybe", "verify_cocycle", "basis_change",
    "H6_R_MATRIX", "SCH_R_MATRIX",
    "H6_DELTA_TABLE", "SCH_DELTA_TABLE",
]


def _render(terms, name):
    """'c*name(key) + ...' over the sorted keys, c left out at 1 and '-' at -1."""
    if not terms:
        return "0"
    coeff = lambda c: "" if c == 1 else ("-" if c == -1 else f"{c}*")
    return " + ".join(f"{coeff(terms[key])}{name(key)}" for key in sorted(terms))


class WedgeElement(SparseTerms):
    """Antisymmetric rank-2 tensor, stored on index pairs i < j.

    ``terms`` is a mapping or an iterable of ((i, j), c) pairs whose pairs
    may repeat; c * Xi ^ Xj with i > j is stored as -c * Xj ^ Xi.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        def canonical():
            for (i, j), c in (terms.items() if isinstance(terms, dict) else terms):
                c = _rational(c, WedgeElement)
                if c == 0:
                    continue
                if i == j:
                    raise ValueError("diagonal wedge entry")
                yield ((i, j), c) if i < j else ((j, i), -c)

        super().__init__((), collect(canonical()))

    def add_pair(self, i, j, c):
        """Accumulate c * Xi ^ Xj (antisymmetrized into canonical slots)."""
        if i == j:
            return self
        return self + WedgeElement({(i, j): c})

    def render(self, basis):
        return _render(self.terms, lambda key: f"{basis[key[0]]}^{basis[key[1]]}")


class LieAlgebra:
    """Finite-dimensional Lie algebra with exact structure constants.

    ``brackets`` maps (i, j) with i > j to the coefficient vector of
    [X_i, X_j]; antisymmetry fills in the rest. The constructor checks the
    Jacobi identity, so an instance is a certificate of consistency.
    """

    def __init__(self, name, basis, brackets):
        self.name = name
        self.basis = tuple(basis)
        n = len(self.basis)
        table = {}
        for i in range(n):
            for j in range(i):
                vec = {k: _rational(v, LieAlgebra)
                       for k, v in brackets.get((i, j), {}).items()}
                table[(i, j)] = {k: v for k, v in vec.items() if v}
        self.table = table
        bad = self.jacobi_violations()
        if bad:
            raise ValueError(f"{name}: Jacobi identity fails at {bad[0]}")

    @property
    def dim(self):
        return len(self.basis)

    def index(self, name):
        return self.basis.index(name)

    def bracket_basis(self, i, j):
        """[X_i, X_j] as a coefficient vector."""
        if i == j:
            return {}
        if i > j:
            return dict(self.table[(i, j)])
        return {k: -v for k, v in self.table[(j, i)].items()}

    def bracket(self, va, vb):
        """Bracket of two coefficient vectors of int or Fraction entries; a
        float entry raises TypeError."""
        va, vb = ({k: _rational(c, LieAlgebra) for k, c in v.items()} for v in (va, vb))

        def pairs():
            for i, a in va.items():
                if a == 0:
                    continue
                for j, b in vb.items():
                    ab = a * b
                    if ab != 0:
                        for k, c in self.bracket_basis(i, j).items():
                            yield k, ab * c

        return collect(pairs())

    def jacobi_violations(self):
        out = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    cyclic = ((i, j, k), (j, k, i), (k, i, j))
                    total = collect(
                        pair for a, b, c in cyclic
                        for pair in self.bracket({a: Fraction(1)}, self.bracket_basis(b, c)).items())
                    if total:
                        out.append((self.basis[i], self.basis[j], self.basis[k]))
        return out

    def render_vector(self, vec):
        return _render(vec, self.basis.__getitem__)


# -- built-in classical algebras -------------------------------------------------


def classical_lie(name, alg):
    """The Lie algebra of the z^0 coefficients of ``alg``'s PBW relations:
    the classical limit z -> 0 of the deformed bracket table.

    ``QuantumAlgebra`` rejects a z^0 relation term of two or more letters,
    and the built-in tables have no constant term, so each z^0 term is one
    generator times a rational.
    """
    brackets = {}
    for i, x in enumerate(alg.generators):
        for j, y in enumerate(alg.generators[:i]):
            brackets[(i, j)] = {w[0]: s.coeffs[0]
                                for w, s in alg.relation(x, y).terms.items() if s.coeffs[0]}
    return LieAlgebra(name, alg.generators, brackets)


def two_photon_lie():
    return classical_lie("h6", two_photon_algebra(0))


def schrodinger_lie():
    return classical_lie("schrodinger", schrodinger_algebra(0))


# h6 -> Schrodinger basis change: rows give the new generators in h6 coordinates
H6_TO_SCH_MAP = (
    ("H", {0: Fraction(1, 2)}),                  # H = B+/2
    ("D", {1: Fraction(-1), 2: Fraction(-1, 2)}),  # D = -N - M/2
    ("M", {2: Fraction(1)}),
    ("P", {3: Fraction(1)}),                     # P = A+
    ("K", {4: Fraction(1)}),                     # K = A-
    ("C", {5: Fraction(1, 2)}),                  # C = B-/2
)

# extended sl(2, R) inside h6
SL2_EXT_MAP = (
    ("J+", {0: Fraction(1, 2)}),    # J+ = B+/2
    ("J-", {5: Fraction(-1, 2)}),   # J- = -B-/2
    ("J3", {1: Fraction(1)}),       # J3 = N
    ("I", {2: Fraction(-1, 2)}),    # I = -M/2
)

# r-matrix wedges (coefficient of one power of z)
H6_R_MATRIX = WedgeElement({(0, 1): Fraction(-1)})                    # z N ^ B+
SCH_R_MATRIX = WedgeElement({(0, 1): Fraction(2), (0, 2): Fraction(1)})  # 2z H^D + z H^M

# the displayed cocommutator tables, one z power implicit
H6_DELTA_TABLE = {
    "B+": WedgeElement(),
    "M": WedgeElement(),
    "N": WedgeElement({(0, 1): -2}),                  # 2 N ^ B+
    "A+": WedgeElement({(0, 3): 1}),                  # -A+ ^ B+
    "A-": WedgeElement({(0, 4): -1, (1, 3): 2}),      # A- ^ B+ + 2 N ^ A+
    "B-": WedgeElement({(0, 5): -2, (1, 2): 2}),      # 2(B- ^ B+ + N ^ M)
}
SCH_DELTA_TABLE = {
    "H": WedgeElement(),
    "M": WedgeElement(),
    "P": WedgeElement({(0, 3): 2}),                   # -2 P ^ H
    "D": WedgeElement({(0, 1): -4, (0, 2): -2}),      # 4 D ^ H + 2 M ^ H
    "K": WedgeElement({(0, 4): -2, (1, 3): -2, (2, 3): -1}),
    "C": WedgeElement({(0, 5): -4, (1, 2): -1}),      # 4 C ^ H - D ^ M
}


# -- bialgebra operations ---------------------------------------------------------


def _ad_on_wedge(lie, x, w):
    """[X (x) 1 + 1 (x) X, w] for the basis index x and a wedge w."""

    def pairs():
        for (a, b), c in w.terms.items():
            # acting on Xa ^ Xb = Xa (x) Xb - Xb (x) Xa keeps the result a wedge
            for m, v in lie.bracket_basis(x, a).items():
                if m != b:
                    yield (m, b), c * v
            for m, v in lie.bracket_basis(x, b).items():
                if a != m:
                    yield (a, m), c * v

    return WedgeElement(pairs())


def cocommutator_from_r(lie, r, name):
    """delta(X) = [X (x) 1 + 1 (x) X, r], evaluated through structure constants."""
    return _ad_on_wedge(lie, lie.index(name) if isinstance(name, str) else name, r)


def delta_table_from_r(lie, r):
    return {name: cocommutator_from_r(lie, r, name) for name in lie.basis}


def _schouten_bracket(lie, r):
    """[[r, r]] = [r12, r13] + [r12, r23] + [r13, r23] as a dense rank-3 tensor."""
    full = {**r.terms, **{(j, i): -c for (i, j), c in r.terms.items()}}

    def pairs():
        for (i, j), cij in full.items():
            for (k, l), ckl in full.items():
                w = cij * ckl
                for m, v in lie.bracket_basis(i, k).items():
                    yield (m, j, l), w * v     # [r12, r13]
                for m, v in lie.bracket_basis(j, k).items():
                    yield (i, m, l), w * v     # [r12, r23]
                for m, v in lie.bracket_basis(j, l).items():
                    yield (i, k, m), w * v     # [r13, r23]

    return collect(pairs())


def verify_cybe(lie, r, label="r"):
    """Classical Yang-Baxter equation: the Schouten bracket vanishes."""
    residual = _schouten_bracket(lie, r)
    text = "0" if not residual else " + ".join(
        f"{v}*{lie.basis[a]}(x){lie.basis[b]}(x){lie.basis[c]}"
        for (a, b, c), v in sorted(residual.items()))
    return CheckResult(name=f"bialgebra/{lie.name}/cybe/{label}",
                       passed=not residual, residual=text)


def verify_cocycle(lie, delta_table):
    """1-cocycle condition and co-Jacobi identity for a full delta table."""
    entries = []
    n = lie.dim
    deltas = [delta_table[lie.basis[i]] for i in range(n)]

    bad = []
    for i in range(n):
        for j in range(i):
            lhs = WedgeElement(linear_combination(
                (deltas[k], v) for k, v in lie.bracket_basis(i, j).items()))
            rhs = _ad_on_wedge(lie, i, deltas[j]) - _ad_on_wedge(lie, j, deltas[i])
            if lhs != rhs:
                bad.append(f"delta([{lie.basis[i]},{lie.basis[j]}])")
    entries.append(CheckResult(
        name=f"bialgebra/{lie.name}/cocycle", passed=not bad,
        residual="0" if not bad else "; ".join(bad)))

    def co_jacobi_pairs(delta):
        for (a, b), c in delta.terms.items():
            for (p, q), d in ((a, b), Fraction(1)), ((b, a), Fraction(-1)):
                for (u, v), e in deltas[p].terms.items():
                    for (s, t), f in ((u, v), Fraction(1)), ((v, u), Fraction(-1)):
                        w = c * d * e * f
                        # cyclic sum over the three tensor slots
                        for key in ((s, t, q), (t, q, s), (q, s, t)):
                            yield key, w

    bad = []
    for i in range(n):
        if collect(co_jacobi_pairs(deltas[i])):
            bad.append(f"co-Jacobi({lie.basis[i]})")
    entries.append(CheckResult(
        name=f"bialgebra/{lie.name}/co-jacobi", passed=not bad,
        residual="0" if not bad else "; ".join(bad)))
    return entries


def basis_change(lie, rows):
    """New Lie algebra on the span of ``rows`` (name, coefficient-vector pairs).

    The rows must be linearly independent and their span closed under the
    bracket; otherwise this raises ValueError.
    """
    names = [name for name, _ in rows]
    vecs = [{k: _rational(v, basis_change) for k, v in vec.items()} for _, vec in rows]
    for idx in range(len(vecs)):
        _, dependent = solve_linear(vecs[:idx] + vecs[idx + 1:], vecs[idx])
        if dependent:
            raise ValueError(f"singular basis map: {names[idx]} is dependent")

    brackets = {}
    for i in range(len(vecs)):
        for j in range(i):
            value = lie.bracket(vecs[i], vecs[j])
            coeffs, in_span = solve_linear(vecs, value)
            if not in_span:
                raise ValueError(
                    f"[{names[i]},{names[j]}] leaves the span: {lie.render_vector(value)}")
            brackets[(i, j)] = {k: c for k, c in enumerate(coeffs) if c != 0}
    return LieAlgebra(f"{lie.name}-mapped", names, brackets)
