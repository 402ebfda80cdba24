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
sorted keys and no timestamps, TSV with a fixed column order.  Only the asked
format is rendered, and it is written as it is produced.  Exit status is 0 on
success, 1 on invalid parameters, and 2 if an internal exact identity fails
(which would mean a bug, never bad user input); on 1 and 2 stdout stays empty.

A query loads only what its subcommand runs.  ``structure`` needs the level
walk of :mod:`localmass.model` alone; ``mass``, ``count``, ``tame`` and
``checksum`` also load :mod:`localmass.mass` and :mod:`localmass.rationals`
(and with it :mod:`fractions`), ``oracle-check`` loads those and
:mod:`localmass.oracle`, and ``galois-verify`` loads only
:mod:`localmass.permgroup`.  :mod:`json` is imported by the json renderers.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from itertools import chain
from operator import attrgetter

from .model import (
    INFINITE_E,
    LocalField,
    MassInvariantError,
    MassOracleError,
    char_classes,
    char_is_trivial,
    enumerate_characters,
    level_walk,
    truncation_bound,
)


def _import_on_first_use(name: str):
    """``import name``, with the module's code run at its first attribute access.

    The module is registered in ``sys.modules`` and on its package at once, as
    a plain import does, so code that looks it up there after importing the
    cli (``perfbench/traced_main.py`` wraps its functions) still finds it; a
    query that never touches it does not pay for compiling and running it.
    Handlers therefore reach such a module's functions through the module,
    as ``mass.total_mass``, never through a name bound at import.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)
    return module


#: Formatting of rationals (it loads fractions), for all but structure and galois-verify.
rationals = _import_on_first_use(f"{__package__}.rationals")
#: The mass kernel, for every subcommand but structure and galois-verify.
mass = _import_on_first_use(f"{__package__}.mass")
#: The line oracle, for oracle-check only.
oracle = _import_on_first_use(f"{__package__}.oracle")
#: The group theory, for galois-verify only.
permgroup = _import_on_first_use(f"{__package__}.permgroup")


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


# ---------------------------------------------------------------------------
# Renderers yield one format's output in chunks.  A handler runs every check,
# then returns the asked format's renderer, so exits 1 and 2 write no stdout.
# ---------------------------------------------------------------------------


def _json(obj: dict):
    import json

    yield json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_streamed(obj: dict, key: str, brackets: str, members):
    """``_json(obj | {key: value})`` for a long list or object ``value``,
    written as it is produced.  ``members`` yields the members of ``value``
    rendered as ``json.dumps(..., indent=2)`` renders them at depth 2;
    ``brackets`` is ``"[]"`` for a list and ``"{}"`` for an object."""
    import json

    head, tail = json.dumps({**obj, key: None}, sort_keys=True, indent=2).split(f'"{key}": null')
    yield f'{head}"{key}": {brackets[0]}'
    sep = "\n"
    for member in members:
        yield sep + member
        sep = ",\n"
    yield (brackets[1] if sep == "\n" else "\n  " + brackets[1]) + tail + "\n"


def _tsv(rows):
    for row in rows:
        yield "\t".join(map(str, row)) + "\n"


def _text(lines):
    for line in lines:
        yield line + "\n"


# A `structure` block, a `count` level and a `mass` character as json.dumps(indent=2)
# renders them at depth 2.
_BLOCK_JSON = (
    '    {{\n      "dim": {2},\n      "distinguished": "{3}",\n'
    '      "level": {0},\n      "vbar": {1}\n    }}'
)
_LEVEL_JSON = (
    '    "{0.level}": {{\n      "conjugacy_classes": {0.conjugacy_classes},\n'
    '      "extensions": {0.extensions},\n      "level": {0.level},\n'
    '      "lines": {0.lines},\n      "vbar": {0.vbar}\n    }}'
)
_CHAR_JSON = (
    '    {{\n      "a": {0},\n      "b": {1},\n      "contribution": "{4}",\n'
    '      "distinguished": "{3}",\n      "vbar": {2}\n    }}'
)


def _cmd_structure(args):
    field = _field(args)
    bound = truncation_bound(field, args.max_level)
    total_dim = sum(dim * len(markers) for _, _, dim, markers in level_walk(field, bound))
    blocks = (
        (level, vbar, dim, marker)
        for level, vbar, dim, markers in level_walk(field, bound)
        for marker in markers
    )
    if args.format == "json":
        head = {"field": field.to_json_obj(), "max_level": bound, "total_dim": total_dim}
        return _json_streamed(head, "blocks", "[]", (_BLOCK_JSON.format(*b) for b in blocks))
    if args.format == "tsv":
        return _tsv(chain([("level", "vbar", "dim", "distinguished")], blocks))
    header = f"filtered module of {_describe(field)}, levels 0..{bound}, total dimension {total_dim}"
    return _text(chain([header], ("  level {:>5}  vbar {}  dim {}  {}".format(*b) for b in blocks)))


def _cmd_mass(args):
    field = _field(args)
    if args.filter is not None:
        value = rationals.format_rational(mass.galois_closure_contribution(field, args.filter))
        if args.format == "json":
            return _json({"field": field.to_json_obj(), "filter": args.filter, "contribution": value})
        if args.format == "tsv":
            return _tsv([("filter", "contribution"), (args.filter, value)])
        return _text([f"{_describe(field)}: mass of {args.filter} extensions = {value}"])
    report = mass.total_mass(field)
    obj = report.to_json_obj()
    # A contribution depends only on the character's valuation and on whether
    # it is trivial, so the (p-1)^2 rows hold at most p distinct values.  Each
    # is converted to decimal once (the per-valuation ones by the report's own
    # json), whatever the format, so every format fails or passes alike.
    m = field.p - 1
    decimal = {(w, False): obj["per_vbar"][str(w)] for w in report.per_vbar}
    rows = []
    for chi in enumerate_characters(field):
        key = (chi.valuation % m, char_is_trivial(field, chi))
        if key not in decimal:
            decimal[key] = rationals.format_rational(report.contribution(chi))
        rows.append((*chi.coords, chi.valuation, chi.distinguished, decimal[key]))
    header = ("a", "b", "vbar", "distinguished", "contribution")
    if args.format == "json":
        return _json_streamed(obj, "per_character", "[]", (_CHAR_JSON.format(*row) for row in rows))
    if args.format == "tsv":
        return _tsv([header, *rows])
    return _text([
        f"degree-{field.p} mass over {_describe(field)}",
        *("  char ({}, {})  vbar {}  {:<7}  {}".format(*row) for row in rows),
        f"  ramified total:  {obj['total_ramified']}",
        f"  with unramified: {obj['grand_total']}",
    ])


def _cmd_count(args):
    field = _field(args)
    entries = list(mass.count_table(field, args.max_level, args.vbar).values())
    # No count in a row exceeds its extensions: converting the largest of
    # them now raises the int-to-str limit's ValueError before any output.
    str(max((rec.extensions for rec in entries), default=0))
    if args.format == "json":
        levels = sorted(entries, key=lambda rec: str(rec.level))  # json sorts keys as strings
        head = {"field": field.to_json_obj()}
        return _json_streamed(head, "levels", "{}", map(_LEVEL_JSON.format, levels))
    if args.format == "tsv":
        columns = ("level", "vbar", "lines", "extensions", "conjugacy_classes")
        return _tsv(chain([columns], map(attrgetter(*columns), entries)))
    return _text(chain([f"extension counts over {_describe(field)}"], (
        f"  level {rec.level:>5}  vbar {rec.vbar}  lines {rec.lines:>8}"
        f"  extensions {rec.extensions:>8}  classes {rec.conjugacy_classes:>8}"
        for rec in entries
    )))


def _cmd_tame(args):
    report = mass.tame_mass(args.pprime, args.p, LocalField(args.p, args.f, INFINITE_E).q)
    value = rationals.format_rational(report.mass)
    if args.format == "json":
        return _json(report.to_json_obj())
    if args.format == "tsv":
        return _tsv([
            ("pprime", "p", "q", "deg_kprime", "omega_trivial", "ramified", "classes", "mass"),
            (report.pprime, report.p, report.q, report.deg_kprime, report.omega_trivial,
             report.ramified_count, report.conjugacy_classes, value),
        ])
    return _text([
        f"degree-{report.pprime} extensions over q={report.q}:"
        f" {report.ramified_count} ramified in {report.conjugacy_classes}"
        f" conjugacy class(es), mass {value}"
        f" (cyclotomic degree {report.deg_kprime},"
        f" {'trivial' if report.omega_trivial else 'nontrivial'} action)"
    ])


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
    for chi in char_classes(field):
        if args.vbar is not None and chi.valuation != args.vbar % (field.p - 1):
            continue
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
        return _json({"field": field.to_json_obj(), "max_level": bound, "classes": classes})
    if args.format == "tsv":
        return _tsv([header, *rows])
    return _text([
        f"oracle vs formulas over {_describe(field)}, levels <= {bound}",
        *("  vbar {}  {:<7}  mass {}  == {} formula".format(*row) for row in rows),
    ])


def _cmd_checksum(args):
    q = LocalField(args.p, args.f, INFINITE_E).q
    lhs, rhs = mass.contribution_checksum(args.p, q)
    # The checksum has returned, so the sides are equal: one decimal string.
    side = rationals.format_rational(lhs)
    if args.format == "json":
        return _json({"p": args.p, "q": q, "lhs": side, "rhs": side, "equal": True})
    if args.format == "tsv":
        return _tsv([("p", "q", "lhs", "rhs", "equal"), (args.p, q, side, side, True)])
    return _text([f"checksum identity at p={args.p}, q={q}: both sides {side}"])


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        chunks = _HANDLERS[args.command](args)
    except (MassInvariantError, MassOracleError, AssertionError) as exc:
        print(f"internal identity failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    batch, size = [], 0
    for chunk in chunks:  # about 64 kB per write: a pipe's reader wakes once per write
        batch.append(chunk)
        size += len(chunk)
        if size >= 1 << 16:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
