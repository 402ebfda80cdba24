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

A query loads only what its subcommand runs.  This module holds the parser
and ``main``, which imports the one module that holds the asked
subcommand's handler: :mod:`localmass.cli_structure`,
:mod:`localmass.cli_count`, :mod:`localmass.cli_mass` (``mass``, ``tame``
and ``checksum``) or :mod:`localmass.cli_verify` (``oracle-check`` and
``galois-verify``).  Each of them imports the field parsing, digit checks
and renderers of :mod:`localmass.cli_common`, never this module, which
``python -m localmass.cli`` runs as ``__main__``.  ``structure`` and
``count`` need the level walk of :mod:`localmass.model` alone; ``mass``,
``tame`` and ``checksum`` also load :mod:`localmass.mass` and
:mod:`localmass.rationals` (and with it :mod:`fractions`), ``oracle-check``
loads those and :mod:`localmass.oracle`, and ``galois-verify`` loads only
:mod:`localmass.permgroup` and its :mod:`localmass.stabchain`.  :mod:`json`
is imported by the json renderers, and :mod:`heapq` by ``count``'s.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from .model import MassInvariantError, MassOracleError


def _import_on_first_use(name: str) -> None:
    """``import name``, with the module's code run at its first attribute access.

    The module is registered in ``sys.modules`` and on its package at once, as
    a plain import does, so code that looks it up there after importing the
    cli (``perfbench/traced_main.py`` wraps its functions) still finds it; a
    query that never touches it does not pay for compiling and running it.
    Handlers therefore reach such a module's functions through the module,
    as ``mass.total_mass``, never through a name bound at import.
    """
    if name in sys.modules:
        return
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)


# Formatting of rationals (it loads fractions) and the mass kernel, for mass,
# tame, checksum and oracle-check; the line oracle, for oracle-check only; the
# group theory, for galois-verify only.
for _kernel in ("rationals", "mass", "oracle", "permgroup"):
    _import_on_first_use(f"{__package__}.{_kernel}")


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


#: The module that holds each subcommand's handler, imported for it alone.
_HANDLER_MODULES = {
    "structure": "cli_structure",
    "count": "cli_count",
    "mass": "cli_mass",
    "tame": "cli_mass",
    "checksum": "cli_mass",
    "oracle-check": "cli_verify",
    "galois-verify": "cli_verify",
}


def _handler(command: str):
    """The handler of ``command``: it returns the asked format's renderer."""
    return importlib.import_module(f"{__package__}.{_HANDLER_MODULES[command]}").HANDLERS[command]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        chunks = _handler(args.command)(args)
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
