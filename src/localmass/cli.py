"""Command-line entry point for batch queries over field parameters.

Each subcommand's handler module, help line and flags are declared in one
table, ``_FLAGS``, which ``--help`` prints.

Output is byte-deterministic for identical invocations: JSON is emitted with
sorted keys and no timestamps, TSV with a fixed column order.  Only the asked
format is rendered, and it is written as it is produced.  Exit status is 0 on
success, 1 on invalid parameters, and 2 if an internal exact identity fails
(which would mean a bug, never bad user input); on 1 and 2 stdout stays empty.

A query loads only what its subcommand runs.  This module holds the flag
table, its parser and ``main``, which imports the one module that holds the
asked subcommand's handler: :mod:`localmass.cli_structure`,
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

import importlib.util
import os
import sys
from types import SimpleNamespace

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


#: Each subcommand's handler module, imported for it alone, its help line and
#: its flags, the only place a flag is declared: ``(name, kind, default,
#: help)``, its kind ``int``, ``str`` or the accepted values, and a default of
#: ``...`` marking a required flag.
_P, _F = ("p", int, ..., "residue characteristic (prime)"), ("f", int, 1, "residue degree")
_FORMAT = ("format", ("json", "tsv", "text"), "text", "output format")
_LEVEL = ("max-level", int, None, "truncation level (required when e=inf)")
_FIELD = (
    _P, _F, ("e", str, "inf", 'absolute ramification index, an integer or "inf"'),
    ("omega-a", int, None, "uniformizer exponent of the cyclotomic class"),
    ("omega-b", int, None, "unit exponent of the cyclotomic class"), _FORMAT,
)
_FLAGS = {
    "structure": ("cli_structure", "eigen-block layout of the filtered module", (*_FIELD, _LEVEL)),
    "mass": ("cli_mass", "per-character contributions and totals (or a filtered mass)", (*_FIELD, (
        "filter", str, None, "a Galois-closure class: cyclic | unramified-closure | group-order=N"))),
    "count": ("cli_count", "extensions and conjugacy classes per level", (
        *_FIELD, _LEVEL, ("vbar", int, None, "only levels of this character valuation"))),
    "tame": ("cli_mass", "degree-p' masses for a prime p' different from p", (
        _P, _F, _FORMAT, ("pprime", int, ..., "the tame prime p'"))),
    "galois-verify": ("cli_verify", "permutation-group verifications for one prime", (
        ("p", int, ..., "prime degree, at most 7"), _FORMAT)),
    "oracle-check": ("cli_verify", "brute-force line enumeration against the formulas", (
        *_FIELD, _LEVEL, ("vbar", int, None, "only character classes of this valuation"))),
    "checksum": ("cli_mass", "the closed-form total-mass identity at (p, q)", (_P, _F, _FORMAT)),
}


def _usage(command) -> str:
    return f"usage: localmass {command or '{' + ','.join(_FLAGS) + '}'} [--flag value ...]"


def _help(command=None):
    """Print the subcommands, or one's flags, on stdout, and exit 0."""
    about, rows = __doc__.split("\n")[0], [(name, text) for name, (_, text, _) in _FLAGS.items()]
    if command is not None:
        _, about, flags = _FLAGS[command]
        rows = [
            (f"--{name} {'|'.join(kind) if isinstance(kind, tuple) else name.upper()}",
             text + ("; required" if d is ... else "" if d is None else f"; default {d}"))
            for name, kind, d, text in flags
        ]
    print(_usage(command), "", about, "", *(f"  {a:<26} {b}" for a, b in rows), sep="\n")
    raise SystemExit(0)


def _fail(command, message):
    """Print the usage and ``error: message`` on stderr, and exit 1 (2 is kept
    for failed identities)."""
    print(_usage(command), f"error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(1)


def _flag(token: str, names):
    """None if argparse took ``token`` for a value, as it did a negative number
    or a token with a space; else ``(name, the text after its "=" or None)``,
    the name None if it is no flag of ``names`` nor a unique prefix of one."""
    if not token.startswith("-") or token == "-":
        return None
    if token.startswith("-h"):  # argparse reads "-hX" as -h with the text X attached
        return "help", token[2:] or None
    if token[1] == "-" and token != "--":
        stem, eq, value = token[2:].partition("=")
        hits = [stem] if stem in names else [name for name in names if name.startswith(stem)]
        if len(hits) > 1:
            _fail(None, f"ambiguous option: {token} could match --{', --'.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")  # ^-\d+$|^-\d*\.\d+$
    number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return None if number or " " in token else (None, None)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """``argv`` as argparse read it: ``command`` and one attribute per flag of
    it.  Bad flags print an ``error:`` line and raise ``SystemExit(1)``."""
    command = argv[0] if argv else None
    if command not in _FLAGS:
        if argv and _flag(command, ["help"]) == ("help", None):
            _help()
        _fail(None, f"invalid subcommand {command!r}" if argv else "a subcommand is required")
    flags = _FLAGS[command][2]
    kinds = {name: kind for name, kind, _, _ in flags}
    values = {name: None if default is ... else default for name, _, default, _ in flags}
    tokens = list(argv[:0:-1])  # the rest, last first, so that pop() takes the next
    while tokens:
        token = tokens.pop()
        name, value = _flag(token, [*kinds, "help"]) or (None, None)
        if name == "help" and value is None:
            _help(command)
        if name not in kinds:
            _fail(command, f"unrecognized argument: {token}")
        if value is None:
            if not tokens or _flag(tokens[-1], [*kinds, "help"]) is not None:
                _fail(command, f"argument --{name}: expected one argument")
            value = tokens.pop()
        if isinstance(kinds[name], tuple) and value not in kinds[name]:
            _fail(command, f"argument --{name}: invalid choice: {value!r}")
        try:
            values[name] = int(value) if kinds[name] is int else value
        except ValueError:
            _fail(command, f"argument --{name}: invalid int value: {value!r}")
    if missing := [f"--{n}" for n, _, d, _ in flags if d is ... and values[n] is None]:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{k.replace("-", "_"): v for k, v in values.items()})


def _handler(command: str):
    """The handler of ``command``: it returns the asked format's renderer."""
    return importlib.import_module(f"{__package__}.{_FLAGS[command][0]}").HANDLERS[command]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        chunks = _handler(args.command)(args)
    except (MassInvariantError, MassOracleError, AssertionError) as exc:
        print(f"internal identity failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
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
