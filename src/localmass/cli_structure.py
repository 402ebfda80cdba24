"""The handler of ``structure``: the block layout, from the level walk of
:mod:`localmass.model` alone, written as it is made."""

from __future__ import annotations

import bisect
from itertools import chain, repeat

from .cli_common import ROW_LIMIT, _describe, _field, _field_json, _json_streamed, _text, _tsv
from .model import GENERIC, level_walk, truncation_bound, walk_totals

# A block as json.dumps(indent=2) renders it at depth 2.
_BLOCK_JSON = (
    '    {{\n      "dim": {2},\n      "distinguished": "{3}",\n'
    '      "level": {0},\n      "vbar": {1}\n    }}'
)

#: Most copies of one row joined into one chunk.
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


HANDLERS = {"structure": _cmd_structure}
