"""The transitive families of ``permgroup`` against sympy's permutation groups.

sympy computes order, transitivity, solvability and Sylow subgroups by its
own algorithms (Schreier-Sims, orbits, derived series), so agreement checks
the coset extensions, the chains and the derived-series test here
independently.
"""

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from localmass.permgroup import SEEDS_7, transitive_family  # noqa: E402
from reference import generating_set  # noqa: E402


def _generators(p):
    """Generators of each record of p's family, in record order: p = 7's
    seeds, since its largest records hold no elements, else from the
    elements."""
    records, _ = transitive_family(p)
    if p == 7:
        return list(zip(records, SEEDS_7, strict=True))
    return [(rec, generating_set(rec.element_set(), p)) for rec in records]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_transitive_family_matches_sympy(p):
    for rec, gens in _generators(p):
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]
        )
        assert group.order() == rec.order
        assert group.is_transitive() == rec.transitive
        assert group.is_solvable == rec.solvable
        if rec.order % p == 0:
            # A unique Sylow p-subgroup is a normal one.
            assert (rec.sylow_p_count == 1) == group.sylow_subgroup(p).is_normal(group)
