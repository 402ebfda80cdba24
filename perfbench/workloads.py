"""The benchmark's workloads: lists of ``localmass`` CLI queries drawn from a seed.

Each workload is a function ``rng -> list[Query]``.  The seed orders the
queries of every workload and, for ``sweep``, also draws the parameters of
each query from a fixed, finite candidate set, so that every query a seed can
produce has a stdout digest recorded in ``digests.json``.  The program under
test receives only the generated argv.  README.md gives the reason for each
workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("json", "tsv", "text")
SWEEP_PRIMES = (2, 3, 5, 7, 13)
SWEEP_E = ("1", "2", "5", "inf")

#: Queries that exit with the wrong status at the commit that defined the
#: benchmark.  They count as failed; they do not make a run incorrect as long
#: as they fail in the recorded way (see ``checks.KNOWN_SIGNATURES``).
KNOWN_FAILURES = {
    "mass --p 31 --f 1 --e 100 --format json": "int-str-limit",
    "mass --p 101 --f 1 --e inf --filter cyclic --format json": "int-str-limit",
    "mass --p 101 --f 1 --e inf --filter unramified-closure --format text": "int-str-limit",
    "checksum --p 101 --f 1 --format json": "int-str-limit",
    "count --p 7 --f 3 --e 2000 --format tsv": "int-str-limit",
    # A non-prime p is bad input and should exit 1, but galois-verify exits 2.
    "galois-verify --p 4 --format text": "nonprime-exit-2",
}


@dataclass(frozen=True)
class Query:
    """One CLI invocation and the exit status a correct program gives."""

    argv: tuple[str, ...]
    expect_exit: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def known_failure(self) -> str | None:
        return KNOWN_FAILURES.get(self.key)


def q(*argv, expect_exit: int = 0) -> Query:
    return Query(tuple(str(a) for a in argv), expect_exit)


def field(p, f, e) -> tuple:
    return ("--p", p, "--f", f, "--e", e)


def _sweep_fields() -> list[tuple]:
    return [(p, f, e) for p in SWEEP_PRIMES for f in (1, 2, 3) for e in SWEEP_E]


def _omega_flags(p: int, e: str) -> tuple:
    # The cyclotomic class has valuation e mod p-1; it is trivial in equal
    # characteristic and for p = 2.
    if e == "inf" or p == 2:
        return ("--omega-a", 0, "--omega-b", 0)
    return ("--omega-a", int(e) % (p - 1), "--omega-b", 1)


def _level_flags(e: str, max_level: int) -> tuple:
    return ("--max-level", max_level) if e == "inf" else ()


# Small cases for the line oracle: p**dim stays in the thousands.
_ORACLE_CASES = (
    field(2, 1, 1),
    field(2, 2, 2),
    field(3, 1, 1),
    field(3, 1, 2),
    field(3, 2, 1),
    field(5, 1, 1),
    field(7, 1, 1),
    field(13, 1, 1),
    field(2, 1, "inf") + ("--max-level", 8),
    field(3, 1, "inf") + ("--max-level", 12),
    field(5, 1, "inf") + ("--max-level", 10),
)


def sweep_slots() -> list[list[Query]]:
    """The sweep's slots; a run draws one query from each slot."""
    fields = _sweep_fields()
    slots = []
    for fmt in FORMATS:
        fl = ("--format", fmt)
        slots += [
            [q("structure", *field(*fd), *_level_flags(fd[2], 12), *fl) for fd in fields],
            [q("mass", *field(*fd), *fl) for fd in fields],
            [q("count", *field(*fd), *_level_flags(fd[2], 20), *fl) for fd in fields],
            [
                q("tame", "--pprime", pp, "--p", p, "--f", f, *fl)
                for p in SWEEP_PRIMES
                for pp in SWEEP_PRIMES
                if pp != p
                for f in (1, 2, 3)
            ],
            [q("checksum", "--p", p, "--f", f, *fl) for p in SWEEP_PRIMES if p > 2 for f in (1, 2, 3)],
            [q("galois-verify", "--p", p, *fl) for p in (2, 3)],
            [q("oracle-check", *case, *fl) for case in _ORACLE_CASES],
        ]
    slots += [
        [q("mass", *field(*fd), "--filter", "cyclic", "--format", "text") for fd in fields],
        [
            q("mass", *field(*fd), "--filter", "cyclic", *_omega_flags(fd[0], fd[2]), "--format", "json")
            for fd in fields
        ],
        [q("mass", *field(*fd), "--filter", "unramified-closure", "--format", "json") for fd in fields],
        [
            q(
                "mass", *field(*fd), "--filter", f"group-order={2 if fd[0] > 2 else 1}",
                *_omega_flags(fd[0], fd[2]), "--format", "tsv",
            )
            for fd in fields
        ],
        [q("count", *field(*fd), *_level_flags(fd[2], 20), "--vbar", 1, "--format", "json") for fd in fields],
    ]
    # Bad input: each of these must exit 1.
    slots += [
        [
            q(cmd, *field(p, 1, e), *(_level_flags(e, 12) if cmd != "mass" else ()), expect_exit=1)
            for cmd in ("structure", "mass", "count")
            for p in (1, 4, 9)
            for e in ("1", "inf")
        ],
        [
            q("mass", *field(p, 1, e), "--filter", name, expect_exit=1)
            for p in (3, 5)
            for e in ("1", "inf")
            for name in ("dihedral", "group-order=0", "group-order=3")
        ],
        [
            q("mass", *field(p, f, e), "--filter", "group-order=2", expect_exit=1)
            for p in (3, 5, 7, 13)
            for f in (1, 2)
            for e in ("1", "2", "5")
        ],
        [
            q("mass", *field(p, 1, e), flag, 1, expect_exit=1)
            for p in (3, 5, 7)
            for e in ("1", "inf")
            for flag in ("--omega-a", "--omega-b")
        ],
        [q("tame", "--pprime", pp, "--p", 3, expect_exit=1) for pp in (1, 3, 4, 9)],
        [q("galois-verify", "--p", 4, "--format", "text", expect_exit=1)],
    ]
    return slots


def sweep(rng: random.Random) -> list[Query]:
    """Every subcommand in all three formats at small sizes, plus bad input."""
    queries = [rng.choice(slot) for slot in sweep_slots()]
    rng.shuffle(queries)
    return queries


DEEP_MASS = (
    q("mass", *field(31, 1, "inf"), "--format", "json"),
    q("mass", *field(31, 1, 5), "--format", "tsv"),
    q("mass", *field(31, 1, 100), "--format", "json"),
    q("mass", *field(31, 2, "inf"), "--format", "text"),
    q("mass", *field(13, 1, 100), "--format", "json"),
    q("mass", *field(7, 1, 100), "--format", "tsv"),
    q("mass", *field(101, 1, "inf"), "--filter", "cyclic", "--format", "json"),
    q("mass", *field(101, 1, "inf"), "--filter", "unramified-closure", "--format", "text"),
    q("checksum", "--p", 31, "--f", 1, "--format", "json"),
    q("checksum", "--p", 101, "--f", 1, "--format", "json"),
)

WIDE_TABLES = (
    q("structure", *field(101, 1, "inf"), "--max-level", 2000, "--format", "json"),
    q("structure", *field(31, 1, 100), "--format", "tsv"),
    q("count", *field(3, 1, 1000), "--format", "text"),
    q("count", *field(31, 1, 100), "--format", "json"),
    q("count", *field(101, 1, "inf"), "--max-level", 5000, "--format", "text"),
    q("count", *field(7, 3, 2000), "--format", "tsv"),
)

VERIFY = (
    q("oracle-check", *field(3, 1, "inf"), "--max-level", 33, "--format", "json"),
    q("oracle-check", *field(5, 1, "inf"), "--max-level", 40, "--format", "tsv"),
    q("oracle-check", *field(3, 2, 3), "--format", "text"),
    q("oracle-check", *field(7, 1, 1), "--format", "json"),
    q("oracle-check", *field(13, 1, 1), "--format", "tsv"),
    q("galois-verify", "--p", 3, "--format", "json"),
    q("galois-verify", "--p", 5, "--format", "tsv"),
    q("galois-verify", "--p", 7, "--format", "text"),
)


def _shuffled(fixed: tuple[Query, ...]):
    def draw(rng: random.Random) -> list[Query]:
        queries = list(fixed)
        rng.shuffle(queries)
        return queries

    return draw


WORKLOADS = {
    "sweep": sweep,
    "deep-mass": _shuffled(DEEP_MASS),
    "wide-tables": _shuffled(WIDE_TABLES),
    "verify": _shuffled(VERIFY),
}


def queries(workload: str, seed: int) -> list[Query]:
    return WORKLOADS[workload](random.Random(seed))


def every_query() -> list[Query]:
    """Every query any seed of any workload can produce, without repeats."""
    pool = [qu for slot in sweep_slots() for qu in slot]
    pool += [*DEEP_MASS, *WIDE_TABLES, *VERIFY]
    return list(dict.fromkeys(pool))
