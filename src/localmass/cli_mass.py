"""The handlers of ``mass``, ``tame`` and ``checksum``: the mass kernel's
values, through :mod:`localmass.mass` and :mod:`localmass.rationals`.

``mass`` writes its (p - 1)**2 rows, one per coordinate pair marked by
:func:`localmass.model.coords_marker`, as they are made, from at most p
distinct values converted before the first row.
"""

from __future__ import annotations

import math
from itertools import chain

from . import mass, rationals
from .cli_common import (
    _check_digits,
    _describe,
    _field,
    _field_json,
    _json,
    _json_streamed,
    _q_decimal,
    _text,
    _tsv,
)
from .model import INFINITE_E, LocalField, coords_marker, cyclotomic_valuation, trivial_char

# A `mass` character as json.dumps(indent=2) renders it at depth 2.
_CHAR_JSON = (
    '    {{\n      "a": {0},\n      "b": {1},\n      "contribution": "{4}",\n'
    '      "distinguished": "{3}",\n      "vbar": {2}\n    }}'
)


def _check_denominator(field: LocalField, counts: dict[int, int], trivial: bool) -> None:
    """Reject a mixed-characteristic mass of ``counts[w]`` characters of each
    valuation ``w`` (the trivial one if ``trivial``) whose denominator no
    decimal string holds.  A block at level l adds p(q-1)/(p-1) q**-T, its
    depth T = l - l//p growing with l, so one valuation, of fewer than p
    characters, has the deepest, and the denominator holds exactly
    p**(f*T - 1).  The top line p q**-((p-1)e) is deeper, and ties with level
    p*e - 1: with n characters of its valuation the q**-((p-1)e) term is
    p(n(q-1) + p-1)/(p-1), whose numerator is -(n+1) mod p, so the sum
    cancels there, and is not bounded, only at n = p - 1."""
    if field.equal_char:
        return
    p, m, top, last = field.p, field.p - 1, (field.p - 1) * field.e, field.p * field.e - 1
    # The p - 1 levels below p*e are prime to p, one of each valuation class
    # w_omega - level mod p - 1: the deepest counted is the nearest to p*e.
    shift = last - cyclotomic_valuation(field)
    if trivial and counts.get(-shift % m) == m:
        return
    level = last - min(((shift + w) % m for w in counts), default=last)
    deepest = level - level // p
    _check_digits(
        (field.f * (top if trivial else deepest) - 1) * math.log10(p),
        "a contribution's denominator has at least {} digits",
    )


def _cmd_mass(args):
    field = _field(args)
    if args.filter is not None:
        census = mass.filter_census(field, args.filter)
        _check_denominator(field, *census)
        value = rationals.format_rational(mass.galois_closure_contribution(field, args.filter, census))
        if args.format == "json":
            return _json({"field": _field_json(field), "filter": args.filter, "contribution": value})
        if args.format == "tsv":
            return _tsv([("filter", "contribution"), (args.filter, value)])
        return _text([f"{_describe(field)}: mass of {args.filter} extensions = {value}"])
    # Valuation 1 mod p-1 holds level p*e - 1, the deepest block, and every
    # format prints its value.
    _check_denominator(field, {1 % (field.p - 1): 1}, False)
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


HANDLERS = {"mass": _cmd_mass, "tame": _cmd_tame, "checksum": _cmd_checksum}
