"""The deformed Bargmann realization as an oracle for PBW normal ordering.

rho = deformed_rep(K) satisfies the deformed relations mod z^(K+1)
(``verify_rep``), so for every raw word w the normal form the engine
computes must have the same image: rho(NF(w)) == rho(w_1) ... rho(w_n). The
left side goes through the PBW rewriting, the right side only through
DiffOperator composition. The Schrodinger engine is covered through the
rows of H6_TO_SCH_MAP, which write each Schrodinger generator in the h6
basis. rho sends the central M to 1, so it is not faithful: agreement is a
necessary condition on the engine, not a proof of it.
"""

from itertools import product

import pytest

from twophoton.algebra import H6_GENERATORS, schrodinger_algebra, two_photon_algebra
from twophoton.bargmann import DiffOperator, deformed_rep
from twophoton.bialgebra import H6_TO_SCH_MAP
from twophoton.hopf import hopf_checks, rmatrix_checks
from twophoton.sparse import linear_combination

K = 3


def _images(alg):
    """rho of each generator of alg, by generator index."""
    rho = deformed_rep(K)
    if alg.generators == H6_GENERATORS:
        return [rho[g] for g in H6_GENERATORS]
    rows = dict(H6_TO_SCH_MAP)
    return [DiffOperator(K, linear_combination(
        (rho[H6_GENERATORS[i]], c) for i, c in rows[g].items())) for g in alg.generators]


def _disagreements(alg, words):
    """The raw words w of alg with rho(NF(w)) != rho(w_1) ... rho(w_n)."""
    images = _images(alg)
    products = {(): DiffOperator.identity(K)}

    def image(word):
        if word not in products:
            products[word] = image(word[:-1]) * images[word[-1]]
        return products[word]

    bad = []
    for word in words:
        nf = alg.normal_word(word)
        lhs = DiffOperator(K, linear_combination((image(w), s) for w, s in nf.items()))
        if lhs != image(word):
            bad.append(word)
    return bad


@pytest.mark.parametrize("factory", [two_photon_algebra, schrodinger_algebra])
def test_realization_agrees_with_every_memoised_normal_form(factory):
    # the Hopf axioms and the R-matrix checks together normal-order a
    # varied set of words: more than 100 of length >= 2 in each algebra
    alg = factory(K)
    hopf_checks(alg)
    rmatrix_checks(alg)
    words = [w for w in alg._nf_cache if len(w) >= 2]
    assert len(words) > 100
    assert _disagreements(alg, words) == []


@pytest.mark.parametrize("factory, x, y, coefficient, caught", [
    # rescaling the central M leaves hopf and rmatrix checks blind
    pytest.param(two_photon_algebra, "A-", "A+", "M", 19, id="A--A+-M"),
    pytest.param(two_photon_algebra, "B-", "N", "B-", 20, id="B--N-B-"),
    pytest.param(schrodinger_algebra, "K", "P", "M", 19, id="K-P-M"),
])
def test_oracle_catches_a_perturbed_relation(factory, x, y, coefficient, caught):
    alg = factory(K)
    relation = alg._relations[(alg.gen_index(x), alg.gen_index(y))]
    key = ((alg.gen_index(coefficient),), 0)
    assert key in relation
    relation[key] += 1
    # building the algebra already normal-ordered its antipode table; forget
    # that memo so that every product below sees the perturbed table
    alg._nf_cache.clear()
    n = len(alg.generators)
    words = [w for length in (2, 3) for w in product(range(n), repeat=length)]
    assert len(words) == 252
    assert len(_disagreements(alg, words)) == caught
