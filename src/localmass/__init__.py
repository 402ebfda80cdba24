"""Exact mass computations for prime-degree extensions of local fields.

The ramified separable degree-p extensions of a local field with residue
cardinality q, weighted by q**-c with c the wild part of the discriminant
valuation, have total mass exactly p.  This package computes that total, its
refinement by character class of the degree-(p-1) abelian closure, the
extension and conjugacy-class counts per discriminant level, the masses of
extensions with constrained Galois closure, and the tame degree-p' analogue,
all in exact rational arithmetic, together with a brute-force enumeration
oracle and permutation-group verifications of the underlying group theory.

Importing the package runs none of its modules: each exported name loads its
module on first access (PEP 562), so ``import localmass.cli`` pays only for
what a command runs.
"""

import importlib

#: The module that defines each exported name.
_HOME = {
    **dict.fromkeys(
        (
            "MassReport",
            "TameReport",
            "char_contribution",
            "char_contribution_closed",
            "char_contribution_truncated",
            "contribution_checksum",
            "count_table",
            "filter_census",
            "galois_closure_contribution",
            "mass_from_counts",
            "per_character_contributions",
            "subfield_contribution",
            "tame_mass",
            "total_mass",
            "tres_term",
        ),
        "mass",
    ),
    **dict.fromkeys(
        (
            "GENERIC",
            "INFINITE_E",
            "OMEGA",
            "TRIVIAL",
            "CharClass",
            "EigenBlock",
            "FilteredLayout",
            "LevelCount",
            "LocalField",
            "MassInvariantError",
            "MassOracleError",
            "char_classes",
            "char_is_omega",
            "char_is_trivial",
            "count_rows",
            "cyclotomic_valuation",
            "enumerate_characters",
            "generic_char",
            "is_prime",
            "layout",
            "level_walk",
            "omega_char",
            "omega_is_trivial",
            "stratum_slot",
            "trivial_char",
            "truncation_bound",
        ),
        "model",
    ),
    **dict.fromkeys(("enumerate_lines", "oracle_mass"), "oracle"),
    **dict.fromkeys(("format_rational", "geom_finite", "geom_infinite", "rat_pow"), "rationals"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
