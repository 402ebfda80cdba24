"""The transitive families of ``permgroup`` against sympy's permutation groups.

sympy computes order, transitivity and solvability by its own algorithms
(Schreier-Sims, orbits, derived series), so agreement checks the coset
extensions and the derived-series test here independently.
"""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from localmass.permgroup import small_generating_set, transitive_family  # noqa: E402


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transitive_family_matches_sympy(p):
    records, _ = transitive_family(p)
    for rec in records:
        gens = small_generating_set(rec.element_set())
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]
        )
        assert group.order() == rec.order
        assert group.is_transitive() == rec.transitive
        assert group.is_solvable == rec.solvable
