"""What the handlers of the ``localmass`` command share: the field the flags
name, the digit checks, and the renderers.

Only the cli's modules render: the other modules return plain values, and
each handler makes every conversion that can fail (a decimal string past the
int-to-str limit) before its renderer writes the first byte.  Where p**n
bounds a printed number (q, ``checksum``'s sides, the deepest of ``mass``'s
contributions, ``count``'s largest count by Krasner's count), a number past
the limit is rejected from the integer n, before the kernel computes it.

The handlers import this module, never :mod:`localmass.cli`: the command
runs as ``python -m localmass.cli``, where ``cli.py`` is ``__main__``, and an
import of ``localmass.cli`` would compile and run it a second time.
"""

from __future__ import annotations

import math
import sys

from .model import INFINITE_E, LocalField

#: Most rows ``structure`` and ``count`` write, one per block or per level:
#: 10 million rows are 0.2 to 1 GB of output, by format.
ROW_LIMIT = 10**7


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


def _q_decimal(field: LocalField) -> str:
    """``str(field.q)``, or the int-to-str limit's ValueError.

    q = p**f has floor(f * log10(p)) + 1 digits, so a q past the limit is
    rejected from that count before anything computes p**f, which takes
    seconds at f = 10**7.
    """
    _check_digits(field.p, field.f, f"q = {field.p}**{field.f} has {{}} digits")
    return str(field.q)


def _check_digits(p: int, exponent: int, number: str) -> None:
    """Raise the int-to-str limit's ValueError for a printed number of at
    least p**exponent, before anything computes it.  ``number`` names it, with
    ``{}`` for its digit count, floor(exponent * log10(p)) + 1, in integers
    from the float log10(p)'s exact ratio.  Only a count more than one digit
    past the limit is rejected, for the float's rounding: nearer, ``str`` decides."""
    limit = sys.get_int_max_str_digits()
    num, den = math.log10(p).as_integer_ratio()
    digits = exponent * num // den + 1
    if limit and digits > limit + 1:
        raise ValueError(
            f"Exceeds the limit ({limit} digits) for integer string conversion: "
            + number.format(digits)
        )


def _field_json(field: LocalField) -> dict:
    return {"p": field.p, "f": field.f, "e": "inf" if field.equal_char else field.e, "q": field.q}


def _describe(field: LocalField) -> str:
    return "p={p} f={f} e={e} (q={q})".format(**_field_json(field))


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
