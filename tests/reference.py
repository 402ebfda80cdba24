"""References the tests check against, and helpers more than one test module uses.

The tame subextension's break/discriminant arithmetic below is the paper's,
kept as the independent side of the discriminant tower identity; no command
runs it, so it lives beside the tests, not in the library.  The suite imports
this module as ``reference``: ``tests/`` is not a package, so pytest puts it
on the import path.
"""

import argparse
import math
import sys
from collections import namedtuple

import localmass.cli as cli
from localmass.model import (
    OMEGA,
    TRIVIAL,
    LevelCount,
    level_walk,
    omega_is_trivial,
    truncation_bound,
)
from localmass.permgroup import extend, pidentity


class BreakData(namedtuple("BreakData", "b t r")):
    """Ramification data of a degree-p extension read off its Galois closure.

    ``b`` is the unique ramification break of the wild subgroup, ``t`` the
    order of the tame inertia quotient, and ``r`` the residual degree of the
    tame subextension.  The break is always prime to the tame order.
    """

    __slots__ = ()

    def __new__(cls, b: int, t: int, r: int):
        if b < 1 or t < 1 or r < 1:
            raise ValueError("break data must be positive")
        if math.gcd(b, t) != 1:
            raise ValueError("break must be prime to the tame inertia order")
        return super().__new__(cls, b, t, r)


def discriminant_valuation(p: int, bd: BreakData) -> int:
    """Valuation (p-1)(b+t)/t of the discriminant of the degree-p extension.

    Obtained by computing the closure's discriminant along the two towers of
    the closure diagram; integrality is re-checked at runtime because break
    data may come from external input.  p is taken to be prime: the caller
    checks it, as ``LocalField`` does.
    """
    if (p - 1) % bd.t != 0:
        raise ValueError("inconsistent break data")
    num = (p - 1) * (bd.b + bd.t)
    if num % bd.t != 0:
        raise ValueError("inconsistent break data")
    return num // bd.t


def row_by_row_count_rows(field, max_level=None, vbar=None, min_level=0):
    """``localmass.model.count_rows`` with every row multiplied out afresh:
    the reference its per-stratum shapes are checked against."""
    p = field.p
    cyclotomic = (OMEGA, TRIVIAL) if omega_is_trivial(field) else (OMEGA,)
    step, stratum = p**field.f, min_level // p
    power = step**stratum
    span = {1: 1, field.f: (step - 1) // (p - 1)}  # (p**dim - 1) // (p - 1) for each dim
    for level, w, dim, special, generic in level_walk(
        field, truncation_bound(field, max_level), vbar, min_level
    ):
        while stratum < level // p:
            stratum, power = stratum + 1, power * step
        block = power * span[dim]
        lines, extensions = generic * block, generic * block * p
        for marker in special:
            if marker not in cyclotomic:
                lines, extensions = lines + block, extensions + block * p
            else:
                n = block * p if level else block
                lines, extensions = lines + n, extensions + n
        yield LevelCount(level, w, lines, extensions, lines)


def generating_set(group, n):
    """Generators of ``group``, a set of permutations of degree ``n``: each
    element not yet reached extends the group reached so far."""
    gens, reached = [], frozenset([pidentity(n)])
    for g in sorted(group):
        if g not in reached:
            reached = extend(reached, gens, g)
            gens.append(g)
    return gens or [pidentity(n)]


def run_cli(capsys, *argv):
    """``cli.main`` on ``argv``, each argument passed as its ``str``:
    the exit status, stdout and stderr."""
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The command line's argparse parser, kept as the reference that
# ``localmass.cli.parse_args`` must read every argv as.
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
