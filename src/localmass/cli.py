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

Only this module renders: the other modules return plain values, and each
handler makes every conversion that can fail (a decimal string past the
int-to-str limit) before its renderer writes the first byte.  Where a
closed form bounds a printed number's digits (q, ``checksum``'s sides, the
deepest of ``mass``'s contributions, ``count``'s largest count by Krasner's
count), a number past the limit is rejected before the kernel computes it.
The long tables are not held: the rows of ``count`` (from
:func:`localmass.model.count_rows`), of ``mass`` (one per coordinate pair,
marked by :func:`localmass.model.coords_marker`) and of ``structure`` go
from the kernel's generators to stdout as they are made.  ``count`` walks
its levels twice for that: the first walk stops at the first count that no
decimal string can hold, and the second renders.
Its json form orders the level keys as strings, which within one digit
count is their numeric order, so it merges one walk per digit count and
holds one row per walk.  Each run of equal counts is converted once.

A query loads only what its subcommand runs.  ``structure`` and ``count``
need the level walk of :mod:`localmass.model` alone; ``mass``, ``tame`` and
``checksum`` also load :mod:`localmass.mass` and :mod:`localmass.rationals`
(and with it :mod:`fractions`), ``oracle-check`` loads those and
:mod:`localmass.oracle`, and ``galois-verify`` loads only
:mod:`localmass.permgroup` and its :mod:`localmass.stabchain`.  :mod:`json`
is imported by the json renderers, and :mod:`heapq` by ``count``'s.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.util
import math
import os
import sys
from itertools import chain, repeat, starmap
from operator import itemgetter

from .model import (
    GENERIC,
    INFINITE_E,
    LocalField,
    MassInvariantError,
    MassOracleError,
    char_classes,
    coords_marker,
    count_rows,
    level_walk,
    trivial_char,
    truncation_bound,
    walk_totals,
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


#: Formatting of rationals (it loads fractions), for mass, tame, checksum and oracle-check.
rationals = _import_on_first_use(f"{__package__}.rationals")
#: The mass kernel, for mass, tame, checksum and oracle-check.
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
    """The flags' field.  json and text print q, so a q past the int-to-str
    limit exits 1 here, before any kernel runs; tsv prints none, unchecked."""
    if args.e == "inf":
        e: int | float = INFINITE_E
    else:
        try:
            e = int(args.e)
        except (TypeError, ValueError):
            raise ValueError(f'--e must be an integer or "inf", got {args.e!r}')
    field = LocalField(args.p, args.f, e, _omega_coords(args))
    if args.format != "tsv":
        _q_decimal(field)
    return field


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
    '    "{0}": {{\n      "conjugacy_classes": {4},\n      "extensions": {3},\n'
    '      "level": {0},\n      "lines": {2},\n      "vbar": {1}\n    }}'
)
_CHAR_JSON = (
    '    {{\n      "a": {0},\n      "b": {1},\n      "contribution": "{4}",\n'
    '      "distinguished": "{3}",\n      "vbar": {2}\n    }}'
)


#: Most rows ``structure`` writes, one per block: 10 million rows are 0.2 to
#: 1 GB of output, by format.
ROW_LIMIT = 10**7
#: Most copies of one row ``structure`` joins into one chunk.
_REPEAT_ROWS = 1 << 10


def _cmd_structure(args):
    """The block layout, one output row per block.  The level walk counts
    a level's generic blocks, whose rows are identical, so that row is
    formatted once and repeated ``generic`` times, in chunks of at most
    ``_REPEAT_ROWS`` copies joined by the format's row separator, which the
    renderer also writes between chunks.

    The rows and the total dimension are counted in closed form first
    (``walk_totals``); past ``ROW_LIMIT`` rows the query exits 1 before any
    output, naming the rows through the first level that passes the cap,
    which a bisection over the levels finds."""
    field = _field(args)
    bound = truncation_bound(field, args.max_level)
    rows, total_dim = walk_totals(field, bound)
    if rows > ROW_LIMIT:
        level = bisect.bisect_right(range(bound), ROW_LIMIT, key=lambda lv: walk_totals(field, lv)[0])
        rows = walk_totals(field, level)[0]
        raise ValueError(f"structure scale exceeded: rows >= {rows} > ROW_LIMIT = {ROW_LIMIT}")

    def blocks(render, sep):
        for level, vbar, dim, special, generic in level_walk(field, bound):
            for marker in special:
                yield render(level, vbar, dim, marker)
            if generic:
                row = render(level, vbar, dim, GENERIC)
                for left in range(generic, 0, -_REPEAT_ROWS):
                    yield sep.join(repeat(row, min(left, _REPEAT_ROWS)))

    if args.format == "json":
        head = {"field": _field_json(field), "max_level": bound, "total_dim": total_dim}
        return _json_streamed(head, "blocks", "[]", blocks(_BLOCK_JSON.format, ",\n"))
    if args.format == "tsv":
        rows = ((line,) for line in blocks("{}\t{}\t{}\t{}".format, "\n"))
        return _tsv(chain([("level", "vbar", "dim", "distinguished")], rows))
    header = f"filtered module of {_describe(field)}, levels 0..{bound}, total dimension {total_dim}"
    return _text(chain([header], blocks("  level {:>5}  vbar {}  dim {}  {}".format, "\n")))


def _cmd_mass(args):
    field = _field(args)
    if args.filter is not None:
        value = rationals.format_rational(mass.galois_closure_contribution(field, args.filter))
        if args.format == "json":
            return _json({"field": _field_json(field), "filter": args.filter, "contribution": value})
        if args.format == "tsv":
            return _tsv([("filter", "contribution"), (args.filter, value)])
        return _text([f"{_describe(field)}: mass of {args.filter} extensions = {value}"])
    if not field.equal_char:
        # Level p*e - 1 sits at depth (p-1)e, so its valuation's value is
        # p(q-1) n / ((p-1) q**((p-1)e)) with n = 1 mod q: its denominator is
        # at least q**((p-1)e) / p, and every format prints it.
        _check_digits(
            ((field.p - 1) * field.e * field.f - 1) * math.log10(field.p),
            "a contribution's denominator has at least {} digits",
        )
    report = mass.total_mass(field)
    # A contribution depends only on the valuation a of the character (a, b)
    # and on whether it is trivial, so the (p-1)^2 rows hold at most p distinct
    # values.  Each is converted to decimal once, whatever the format, and before
    # the rows are rendered, so every format fails or passes alike and with no output.
    fmt = rationals.format_rational
    per_vbar = [fmt(c) for _, c in sorted(report.per_vbar.items())]
    trivial = fmt(report.contribution(trivial_char()))
    obj = {
        "field": _field_json(field),
        "per_vbar": {str(w): value for w, value in enumerate(per_vbar)},
        "tres_extra": fmt(report.tres_extra),
        "total_ramified": fmt(report.total),
        "grand_total": fmt(report.grand_total),
    }
    m = field.p - 1
    rows = (
        (a, b, a, coords_marker(field, a, b), trivial if (a, b) == (0, 0) else per_vbar[a])
        for a in range(m) for b in range(m)
    )
    if args.format == "json":
        return _json_streamed(obj, "per_character", "[]", (_CHAR_JSON.format(*row) for row in rows))
    if args.format == "tsv":
        return _tsv(chain([("a", "b", "vbar", "distinguished", "contribution")], rows))
    return _text(chain(
        [f"degree-{field.p} mass over {_describe(field)}"],
        ("  char ({}, {})  vbar {}  {:<7}  {}".format(*row) for row in rows),
        [f"  ramified total:  {obj['total_ramified']}", f"  with unramified: {obj['grand_total']}"],
    ))


def _count_decimals(rows):
    """Each :class:`~localmass.model.LevelCount` of ``rows``, in level order,
    as the decimal strings ``(level, vbar, lines, extensions, conjugacy_classes)``.

    Within a stratum the levels' counts repeat, and a row's classes are its
    lines, so a count equal to the one above it in its column, or to its
    row's lines, is not converted again: the 201 602 rows at (1009, 1, 200)
    hold 202 distinct extensions."""
    lines = extensions = None
    for level, vbar, n_lines, n_extensions, n_classes in rows:
        if n_lines != lines:
            lines, lines_text = n_lines, str(n_lines)
        if n_extensions != extensions:
            extensions, extensions_text = n_extensions, str(n_extensions)
        classes_text = lines_text if n_classes == n_lines else str(n_classes)
        yield str(level), str(vbar), lines_text, extensions_text, classes_text


def _cmd_count(args):
    field = _field(args)
    bound = truncation_bound(field, args.max_level)
    # Krasner's count gives each row's extensions: 1 at level 0, p(q-1) q**(c//p)
    # at a level c prime to p below the top, and p q**e at the top level pe.
    # They never fall as the level rises and bound their row's other counts,
    # so the last row holds the table's largest count, at least q**(c//p + 1)
    # since p(q-1) >= q.  A table past the int-to-str limit by that bound exits
    # 1 before any walk of its rows.  Its last level is read off the walk of
    # the two steps up to the last level below the top, which hold one level
    # prime to p, and of the top.
    p = field.p
    last = bound if field.equal_char else min(bound, p * field.e - 1)
    low = last - 2 * (1 if args.vbar is None else p - 1)
    tail = level_walk(field, bound, args.vbar, max(low, 0))
    level = max((row[0] for row in tail), default=0)
    if level:  # the count is at least p**exponent
        exponent = field.e * field.f + 1 if level == p * field.e else (level // p + 1) * field.f
        _check_digits(exponent * math.log10(p), "the largest count has at least {} digits")

    def rows(max_level=args.max_level, min_level=0):
        return _count_decimals(count_rows(field, max_level, args.vbar, min_level))

    # Nearer the limit, a first walk stops at the first row whose extensions
    # no decimal string can hold, the ones from 10**limit up, and raises the
    # int-to-str limit's ValueError there, before any output; the rows are
    # then rendered as they come.
    limit = sys.get_int_max_str_digits()
    ceiling = 10**limit if limit else math.inf
    for rec in count_rows(field, args.max_level, args.vbar):
        if rec.extensions >= ceiling:
            str(rec.extensions)
    if args.format == "json":
        # json orders the level keys as strings, which within one digit count
        # is their numeric order: one walk per digit count, over the levels
        # [0, 9], [10, 99], ..., merged, holds one row per walk.
        import heapq

        walks = [
            rows(min(10 ** (d + 1) - 1, bound), 10**d if d else 0) for d in range(len(str(bound)))
        ]
        levels = heapq.merge(*walks, key=itemgetter(0))
        head = {"field": _field_json(field)}
        return _json_streamed(head, "levels", "{}", starmap(_LEVEL_JSON.format, levels))
    if args.format == "tsv":
        return _tsv(chain([("level", "vbar", "lines", "extensions", "conjugacy_classes")], rows()))
    line = "  level {:>5}  vbar {}  lines {:>8}  extensions {:>8}  classes {:>8}"
    return _text(chain([f"extension counts over {_describe(field)}"], starmap(line.format, rows())))


def _cmd_tame(args):
    field = LocalField(args.p, args.f, INFINITE_E)
    q = _q_decimal(field)  # the one conversion that can fail, before any output
    report = mass.tame_mass(field, args.pprime)
    value = rationals.format_rational(report.mass)
    if args.format == "json":
        grand_total = rationals.format_rational(report.grand_total)
        return _json({**report._asdict(), "mass": value, "grand_total": grand_total})
    if args.format == "tsv":
        return _tsv([
            ("pprime", "p", "q", "deg_kprime", "omega_trivial", "ramified", "classes", "mass"),
            (report.pprime, report.p, q, report.deg_kprime, report.omega_trivial,
             report.ramified_count, report.conjugacy_classes, value),
        ])
    return _text([
        f"degree-{report.pprime} extensions over q={q}:"
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
        return _json({"field": _field_json(field), "max_level": bound, "classes": classes})
    if args.format == "tsv":
        return _tsv([header, *rows])
    return _text([
        f"oracle vs formulas over {_describe(field)}, levels <= {bound}",
        *("  vbar {}  {:<7}  mass {}  == {} formula".format(*row) for row in rows),
    ])


def _cmd_checksum(args):
    field = LocalField(args.p, args.f, INFINITE_E)
    _q_decimal(field)
    # For p >= 3 a side is N / q**(p-2) in lowest terms: N = (q**(p-2) - 1)
    # (q**((p-1)**2) - 1) / (q - 1) is -1 mod q, and N >= q**(p + (p-1)**2 - 4).
    p = args.p
    _check_digits(
        (p + (p - 1) ** 2 - 4) * args.f * math.log10(p),
        "the checksum's sides have a numerator of at least {} digits",
    )
    q = field.q
    lhs, rhs = mass.contribution_checksum(field)
    # The checksum has returned, so the sides are equal: one decimal string.
    side = rationals.format_rational(lhs)
    if args.format == "json":
        return _json({"p": args.p, "q": q, "lhs": side, "rhs": side, "equal": True})
    if args.format == "tsv":
        return _tsv([("p", "q", "lhs", "rhs", "equal"), (args.p, q, side, side, True)])
    return _text([f"checksum identity at p={args.p}, q={q}: both sides {side}"])


def _q_decimal(field: LocalField) -> str:
    """``str(field.q)``, or the int-to-str limit's ValueError.

    q = p**f has floor(f * log10(p)) + 1 digits, so a q past the limit is
    rejected from that count before anything computes p**f, which takes
    seconds at f = 10**7.
    """
    _check_digits(field.f * math.log10(field.p), f"q = {field.p}**{field.f} has {{}} digits")
    return str(field.q)


def _check_digits(log10: float, number: str) -> None:
    """Raise the int-to-str limit's ValueError for a printed number of at
    least 10**log10, before anything computes it.  ``number`` names it, with
    ``{}`` for its digit count, floor(log10) + 1.  Only a ``log10`` more than
    one digit past the limit is rejected: the digit of slack covers the
    float's rounding, and nearer the limit ``str`` decides."""
    limit = sys.get_int_max_str_digits()
    if limit and log10 > limit + 1:
        raise ValueError(
            f"Exceeds the limit ({limit} digits) for integer string conversion: "
            + number.format(math.floor(log10) + 1)
        )


def _field_json(field: LocalField) -> dict:
    return {"p": field.p, "f": field.f, "e": "inf" if field.equal_char else field.e, "q": field.q}


def _describe(field: LocalField) -> str:
    return "p={p} f={f} e={e} (q={q})".format(**_field_json(field))


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
    try:
        for chunk in chunks:  # about 64 kB per write: a pipe's reader wakes once per write
            batch.append(chunk)
            size += len(chunk)
            if size >= 1 << 16:
                sys.stdout.write("".join(batch))
                batch, size = [], 0
        sys.stdout.write("".join(batch))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``); devnull keeps the flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
