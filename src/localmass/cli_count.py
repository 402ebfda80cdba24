"""The handler of ``count``: extensions and conjugacy classes per level,
from :func:`localmass.model.count_rows` alone, written as they are made.

The rows are counted in closed form first, and past ``ROW_LIMIT`` the query
exits 1 before any walk.  The levels are then walked twice: the first walk
checks every row's extensions against Krasner's count and stops at the first
count that no decimal string can hold, and the second renders.  The json
form orders the level keys as strings, which within one digit count is their
numeric order, so it merges one walk per digit count and holds one row per
walk.  Each run of equal counts is converted once.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, starmap
from operator import itemgetter

from . import rationals
from .cli_common import (
    ROW_LIMIT,
    _check_digits,
    _describe,
    _field,
    _field_json,
    _json_streamed,
    _text,
    _tsv,
)
from .model import MassInvariantError, count_rows, truncation_bound, walk_plan, walk_totals

# A level as json.dumps(indent=2) renders it at depth 2.
_LEVEL_JSON = (
    '    "{0}": {{\n      "conjugacy_classes": {4},\n      "extensions": {3},\n'
    '      "level": {0},\n      "lines": {2},\n      "vbar": {1}\n    }}'
)


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


def _check_counts(field, rows) -> None:
    """Check each row's extensions against Krasner's count, and raise the
    int-to-str limit's ValueError at the first that no decimal string can
    hold, the ones from 10**limit up.

    Krasner's count knows nothing of characters: 1 at level 0, p(q-1)
    q**(c//p) at a level c prime to p below the top, and p q**e at the top
    level pe.  It changes only where a row opens a stratum, or is the top,
    which opens stratum e; the power of q is a running product over them,
    and a matching row passes the limit only where the count changes."""
    p, q = field.p, field.q
    top = math.inf if field.equal_char else p * field.e
    limit = sys.get_int_max_str_digits()
    ceiling = 10**limit if limit else math.inf
    stratum, power = 0, 1
    krasner, edge = 1, 1  # level 0's count, and the first level past it
    for level, _, _, extensions, _ in rows:
        if level >= edge:
            power *= q ** (level // p - stratum)
            stratum = level // p
            edge = (stratum + 1) * p
            krasner = (p if level == top else p * (q - 1)) * power
            if extensions == krasner >= ceiling:  # so are the stratum's other rows
                str(extensions)
        if extensions != krasner:
            describe = rationals.describe_rational
            raise MassInvariantError(
                f"count over {field}, level {level}: {describe(extensions)} extensions"
                f" != Krasner's count {describe(krasner)}"
            )


def _cmd_count(args):
    field = _field(args)
    bound = truncation_bound(field, args.max_level)
    size = walk_totals(field, bound, args.vbar)[0]
    if size > ROW_LIMIT:
        raise ValueError(f"count scale exceeded: rows = {size} > ROW_LIMIT = {ROW_LIMIT}")
    # Krasner's count gives each row's extensions (see _check_counts).  They
    # never fall as the level rises and bound their row's other counts, so
    # the last row holds the table's largest count, at least q**(c//p + 1)
    # since p(q-1) >= q.  A table past the int-to-str limit by that bound exits
    # 1 before any walk of its rows.  Its last level is the top, or else the
    # last level prime to p of the walk's progression, one of its last two.
    p = field.p
    _, levels, top = walk_plan(field, bound, args.vbar)
    tail = [lv for lv in levels[-2:] if lv % p]
    if top or tail:  # the count is at least p**exponent
        exponent = field.e * field.f + 1 if top else (tail[-1] // p + 1) * field.f
        _check_digits(exponent * math.log10(p), "the largest count has at least {} digits")

    def rows(max_level=args.max_level, min_level=0):
        return _count_decimals(count_rows(field, max_level, args.vbar, min_level))

    # The first walk checks every row, before any output; the rows are then
    # rendered as they come.
    _check_counts(field, count_rows(field, args.max_level, args.vbar))
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


HANDLERS = {"count": _cmd_count}
