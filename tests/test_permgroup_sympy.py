"""The transitive families of ``permgroup`` against sympy's permutation groups.

sympy computes order, transitivity and solvability by its own algorithms
(Schreier-Sims, orbits, derived series), so agreement checks the coset
extensions and the derived-series test here independently.
"""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from localmass.permgroup import extend, pidentity, transitive_family  # noqa: E402


def _gens(elems):
    """Test-local generators of the group ``elems``: each element not yet
    reached extends the group reached so far."""
    gens, reached = [], frozenset([pidentity(len(next(iter(elems))))])
    for g in sorted(elems):
        if g not in reached:
            reached = extend(reached, gens, g)
            gens.append(g)
    return gens


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transitive_family_matches_sympy(p):
    records, _ = transitive_family(p)
    for rec in records:
        gens = _gens(rec.element_set())
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]
        )
        assert group.order() == rec.order
        assert group.is_transitive() == rec.transitive
        assert group.is_solvable == rec.solvable
