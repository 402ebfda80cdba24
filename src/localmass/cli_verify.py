"""The handlers of ``oracle-check`` and ``galois-verify``: the line oracle
against the formulas, and the group theory on permutations.

``oracle-check`` runs :mod:`localmass.oracle` and :mod:`localmass.mass`;
``galois-verify`` runs only :mod:`localmass.permgroup`.  Each reaches its
kernels through the module, so a query loads only the ones it calls.
"""

from __future__ import annotations

from . import mass, oracle, permgroup, rationals
from .cli_common import _describe, _field, _field_json, _json, _text, _tsv
from .model import MassOracleError, char_classes, truncation_bound


def _cmd_galois_verify(args):
    obj = {
        "p": args.p,
        "normalizer": permgroup.verify_normalizer(args.p),
        "solvability_criterion": permgroup.verify_galois_criterion(args.p),
        "index_p_subgroups": permgroup.verify_index_p_subgroups(args.p),
    }
    criterion = obj["solvability_criterion"]
    if args.format == "json":
        return _json(obj)
    if args.format == "tsv":
        return _tsv([
            ("check", "result"),
            ("normalizer_order", obj["normalizer"]["normalizer_order"]),
            ("criterion_holds", criterion["criterion_holds"]),
            ("enumeration", criterion["enumeration"]),
            ("index_p_holds", obj["index_p_subgroups"]["holds"]),
        ])
    return _text([
        f"p = {args.p} ({criterion['enumeration']} enumeration)",
        f"  normalizer of the cycle group: order {obj['normalizer']['normalizer_order']},"
        f" split cyclic quotient of order {args.p - 1}",
        f"  solvable <=> unique Sylow over"
        f" {len(criterion['transitive_groups'])} transitive subgroups: ok",
        "  index-p subgroup counts, intersections, generation: ok",
    ])


def _cmd_oracle_check(args):
    field = _field(args)
    # The bound is checked and clamped to the top level p*e, where the
    # truncated sum is the full contribution, but printed as given.
    clamped = truncation_bound(field, args.max_level)
    bound = clamped if args.max_level is None else args.max_level
    kind = "full" if not field.equal_char and clamped == field.p * field.e else "truncated"
    rows = []
    for chi in char_classes(field, args.vbar):
        brute = oracle.oracle_mass(field, chi, bound)
        reference = mass.char_contribution_truncated(field, chi, bound)
        if brute != reference:
            raise MassOracleError(
                f"oracle {rationals.describe_rational(brute)} != {kind} formula"
                f" {rationals.describe_rational(reference)}"
                f" for vbar {chi.valuation} ({chi.distinguished})"
                f" over {_describe(field)}, levels <= {bound}"
            )
        rows.append((chi.valuation, chi.distinguished, rationals.format_rational(brute), kind, True))
    header = ("vbar", "distinguished", "mass", "reference", "exact_match")
    if args.format == "json":
        classes = [dict(zip(header, row)) for row in rows]
        return _json({"field": _field_json(field), "max_level": bound, "classes": classes})
    if args.format == "tsv":
        return _tsv([header, *rows])
    return _text([
        f"oracle vs formulas over {_describe(field)}, levels <= {bound}",
        *("  vbar {}  {:<7}  mass {}  == {} formula".format(*row) for row in rows),
    ])


HANDLERS = {"galois-verify": _cmd_galois_verify, "oracle-check": _cmd_oracle_check}
