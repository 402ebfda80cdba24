"""Command-line entry point for batch queries over field parameters.

Subcommands::

    structure      eigen-block layout of the filtered module
    mass           per-character contributions and totals (or a filtered mass)
    count          extensions and conjugacy classes per level
    tame           degree-p' masses for a prime p' different from p
    galois-verify  permutation-group verifications for one prime
    oracle-check   brute-force line enumeration against the formulas
    checksum       the closed-form total-mass identity at (p, q)

Output is byte-deterministic for identical invocations: JSON is emitted with
sorted keys and no timestamps, TSV with a fixed column order.  Exit status is
0 on success, 1 on invalid parameters, and 2 if an internal exact identity
fails (which would mean a bug, never bad user input).
"""

from __future__ import annotations

import argparse
import json
import sys

from .mass import (
    MassInvariantError,
    char_contribution_truncated,
    contribution_checksum,
    count_table,
    galois_closure_contribution,
    tame_mass,
    total_mass,
)
from .model import (
    INFINITE_E,
    CharClass,
    LocalField,
    char_classes,
    char_is_trivial,
    enumerate_characters,
    layout,
)
from .oracle import MassOracleError, oracle_mass
from .permgroup import verify_galois_criterion, verify_index_p_subgroups, verify_normalizer
from .rationals import describe_rational, format_rational


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for identity bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_field_flags(sub, with_e: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="residue characteristic (prime)")
    sub.add_argument("--f", type=int, default=1, help="residue degree (default 1)")
    if with_e:
        sub.add_argument(
            "--e", default="inf", help='absolute ramification index, an integer or "inf"'
        )
        sub.add_argument("--omega-a", type=int, help="uniformizer exponent of the cyclotomic class")
        sub.add_argument("--omega-b", type=int, help="unit exponent of the cyclotomic class")
    sub.add_argument(
        "--format", choices=("json", "tsv", "text"), default="text", help="output format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="localmass", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = subs.add_parser("structure", help="eigen-block layout of the filtered module")
    _add_field_flags(s)
    s.add_argument("--max-level", type=int, help="truncation level (required when e=inf)")

    s = subs.add_parser("mass", help="per-character contributions and totals")
    _add_field_flags(s)
    s.add_argument(
        "--filter",
        help="restrict to a Galois-closure class: cyclic | unramified-closure | group-order=N",
    )

    s = subs.add_parser("count", help="extensions and conjugacy classes per level")
    _add_field_flags(s)
    s.add_argument("--max-level", type=int, help="truncation level (required when e=inf)")
    s.add_argument("--vbar", type=int, help="only levels of this character valuation")

    s = subs.add_parser("tame", help="degree-p' masses for a prime p' != p")
    _add_field_flags(s, with_e=False)
    s.add_argument("--pprime", type=int, required=True, help="the tame prime p'")

    s = subs.add_parser("galois-verify", help="permutation-group verifications")
    s.add_argument("--p", type=int, required=True, help="prime degree, at most 7")
    s.add_argument("--format", choices=("json", "tsv", "text"), default="text")

    s = subs.add_parser("oracle-check", help="brute-force enumeration vs formulas")
    _add_field_flags(s)
    s.add_argument("--max-level", type=int, help="truncation level (required when e=inf)")
    s.add_argument("--vbar", type=int, help="only character classes of this valuation")

    s = subs.add_parser("checksum", help="closed-form total-mass identity at (p, q)")
    _add_field_flags(s, with_e=False)
    return parser


def _field(args) -> LocalField:
    if args.e == "inf":
        e: int | float = INFINITE_E
    else:
        try:
            e = int(args.e)
        except (TypeError, ValueError):
            raise ValueError(f'--e must be an integer or "inf", got {args.e!r}')
    return LocalField(args.p, args.f, e, _omega_coords(args))


def _omega_coords(args) -> tuple[int, int] | None:
    a, b = args.omega_a, args.omega_b
    if a is None and b is None:
        return None
    if a is None or b is None:
        raise ValueError("--omega-a and --omega-b must be given together")
    return (a, b)


def _char_entry(chi: CharClass, contribution: str) -> dict:
    a, b = chi.coords
    return {
        "a": a,
        "b": b,
        "vbar": chi.valuation,
        "distinguished": chi.distinguished,
        "contribution": contribution,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (json_obj, tsv_rows, text_lines).
# ---------------------------------------------------------------------------


def _cmd_structure(args):
    field = _field(args)
    lay = layout(field, args.max_level)
    obj = {
        "field": field.to_json_obj(),
        "max_level": lay.max_level,
        "total_dim": lay.total_dim,
        "blocks": lay.to_json_obj(),
    }
    rows = [("level", "vbar", "dim", "distinguished")]
    rows += [(b.level, b.valuation, b.dim, b.distinguished) for b in lay.blocks]
    text = [
        f"filtered module of {_describe(field)}, levels 0..{lay.max_level},"
        f" total dimension {lay.total_dim}"
    ]
    text += [
        f"  level {b.level:>5}  vbar {b.valuation}  dim {b.dim}  {b.distinguished}"
        for b in lay.blocks
    ]
    return obj, rows, text


def _cmd_mass(args):
    field = _field(args)
    if args.filter:
        value = format_rational(galois_closure_contribution(field, args.filter))
        obj = {"field": field.to_json_obj(), "filter": args.filter, "contribution": value}
        rows = [("filter", "contribution"), (args.filter, value)]
        text = [f"{_describe(field)}: mass of {args.filter} extensions = {value}"]
        return obj, rows, text
    report = total_mass(field)
    obj = report.to_json_obj()
    # A contribution depends only on the character's valuation and on whether
    # it is trivial, so the (p-1)^2 rows hold at most p distinct values.  Each
    # is converted to decimal once (the per-valuation ones by the report's own
    # json), and all three renderings share the strings.
    m = field.p - 1
    decimal = {(w, False): obj["per_vbar"][str(w)] for w in report.per_vbar}
    chars = []
    for chi in enumerate_characters(field):
        key = (chi.valuation % m, char_is_trivial(field, chi))
        if key not in decimal:
            decimal[key] = format_rational(report.contribution(chi))
        chars.append((chi, decimal[key]))
    obj["per_character"] = [_char_entry(chi, val) for chi, val in chars]
    rows = [("a", "b", "vbar", "distinguished", "contribution")]
    rows += [
        (chi.coords[0], chi.coords[1], chi.valuation, chi.distinguished, val)
        for chi, val in chars
    ]
    text = [f"degree-{field.p} mass over {_describe(field)}"]
    text += [
        f"  char ({chi.coords[0]}, {chi.coords[1]})  vbar {chi.valuation}"
        f"  {chi.distinguished:<7}  {val}"
        for chi, val in chars
    ]
    text += [
        f"  ramified total:  {obj['total_ramified']}",
        f"  with unramified: {obj['grand_total']}",
    ]
    return obj, rows, text


def _cmd_count(args):
    field = _field(args)
    entries = [
        rec
        for rec in count_table(field, args.max_level).values()
        if args.vbar is None or rec.vbar == args.vbar % max(field.p - 1, 1)
    ]
    obj = {
        "field": field.to_json_obj(),
        "levels": {str(rec.level): rec.to_json_obj() for rec in entries},
    }
    rows = [("level", "vbar", "lines", "extensions", "conjugacy_classes")]
    rows += [
        (rec.level, rec.vbar, rec.lines, rec.extensions, rec.conjugacy_classes)
        for rec in entries
    ]
    text = [f"extension counts over {_describe(field)}"]
    text += [
        f"  level {rec.level:>5}  vbar {rec.vbar}  lines {rec.lines:>8}"
        f"  extensions {rec.extensions:>8}  classes {rec.conjugacy_classes:>8}"
        for rec in entries
    ]
    return obj, rows, text


def _cmd_tame(args):
    report = tame_mass(args.pprime, args.p, args.p**args.f)
    obj = report.to_json_obj()
    rows = [
        ("pprime", "p", "q", "deg_kprime", "omega_trivial", "ramified", "classes", "mass"),
        (
            report.pprime,
            report.p,
            report.q,
            report.deg_kprime,
            report.omega_trivial,
            report.ramified_count,
            report.conjugacy_classes,
            format_rational(report.mass),
        ),
    ]
    text = [
        f"degree-{report.pprime} extensions over q={report.q}:"
        f" {report.ramified_count} ramified in {report.conjugacy_classes}"
        f" conjugacy class(es), mass {format_rational(report.mass)}"
        f" (cyclotomic degree {report.deg_kprime},"
        f" {'trivial' if report.omega_trivial else 'nontrivial'} action)"
    ]
    return obj, rows, text


def _cmd_galois_verify(args):
    obj = {
        "p": args.p,
        "normalizer": verify_normalizer(args.p),
        "solvability_criterion": verify_galois_criterion(args.p),
        "index_p_subgroups": verify_index_p_subgroups(args.p),
    }
    rows = [("check", "result")]
    rows += [
        ("normalizer_order", obj["normalizer"]["normalizer_order"]),
        ("criterion_holds", obj["solvability_criterion"]["criterion_holds"]),
        ("enumeration", obj["solvability_criterion"]["enumeration"]),
        ("index_p_holds", obj["index_p_subgroups"]["holds"]),
    ]
    text = [
        f"p = {args.p} ({obj['solvability_criterion']['enumeration']} enumeration)",
        f"  normalizer of the cycle group: order {obj['normalizer']['normalizer_order']},"
        f" split cyclic quotient of order {args.p - 1}",
        f"  solvable <=> unique Sylow over"
        f" {len(obj['solvability_criterion']['transitive_groups'])} transitive subgroups: ok",
        "  index-p subgroup counts, intersections, generation: ok",
    ]
    return obj, rows, text


def _cmd_oracle_check(args):
    field = _field(args)
    if args.max_level is None:
        if field.equal_char:
            raise ValueError("--max-level required when e is inf")
        bound = field.p * field.e
    elif args.max_level < 0:
        raise ValueError(f"--max-level must be >= 0, got {args.max_level}")
    else:
        bound = args.max_level
    # In mixed characteristic the full contribution is the truncated sum at
    # any bound >= p*e.
    kind = "full" if not field.equal_char and bound >= field.p * field.e else "truncated"
    classes = [
        chi
        for chi in char_classes(field)
        if args.vbar is None or chi.valuation == args.vbar % (field.p - 1)
    ]
    entries = []
    for chi in classes:
        brute = oracle_mass(field, chi, bound)
        reference = char_contribution_truncated(field, chi, bound)
        if brute != reference:
            raise MassOracleError(
                f"oracle {describe_rational(brute)} != {kind} formula"
                f" {describe_rational(reference)} for vbar {chi.valuation}"
            )
        entries.append((chi, format_rational(brute)))
    obj = {
        "field": field.to_json_obj(),
        "max_level": bound,
        "classes": [
            {
                "vbar": chi.valuation,
                "distinguished": chi.distinguished,
                "mass": val,
                "reference": kind,
                "exact_match": True,
            }
            for chi, val in entries
        ],
    }
    rows = [("vbar", "distinguished", "mass", "reference", "exact_match")]
    rows += [
        (chi.valuation, chi.distinguished, val, kind, True)
        for chi, val in entries
    ]
    text = [f"oracle vs formulas over {_describe(field)}, levels <= {bound}"]
    text += [
        f"  vbar {chi.valuation}  {chi.distinguished:<7}  mass {val}"
        f"  == {kind} formula"
        for chi, val in entries
    ]
    return obj, rows, text


def _cmd_checksum(args):
    q = args.p**args.f
    lhs, rhs = contribution_checksum(args.p, q)
    # The checksum has returned, so the sides are equal: one decimal string.
    side = format_rational(lhs)
    obj = {"p": args.p, "q": q, "lhs": side, "rhs": side, "equal": True}
    rows = [("p", "q", "lhs", "rhs", "equal"), (args.p, q, side, side, True)]
    text = [f"checksum identity at p={args.p}, q={q}: both sides {side}"]
    return obj, rows, text


def _describe(field: LocalField) -> str:
    e = "inf" if field.equal_char else field.e
    return f"p={field.p} f={field.f} e={e} (q={field.q})"


_HANDLERS = {
    "structure": _cmd_structure,
    "mass": _cmd_mass,
    "count": _cmd_count,
    "tame": _cmd_tame,
    "galois-verify": _cmd_galois_verify,
    "oracle-check": _cmd_oracle_check,
    "checksum": _cmd_checksum,
}


def _emit(obj, rows, text, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    elif fmt == "tsv":
        for row in rows:
            print("\t".join(str(c) for c in row))
    else:
        for line in text:
            print(line)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj, rows, text = _HANDLERS[args.command](args)
    except (MassInvariantError, MassOracleError, AssertionError) as exc:
        print(f"internal identity failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(obj, rows, text, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
