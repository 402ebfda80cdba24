"""Output checks: recorded stdout digests and exact identities.

Every query is checked two ways.  Its stdout digest must equal the one
recorded in ``digests.json`` at the commit that defined the benchmark, and
where the subcommand states an exact identity, the identity must hold in the
printed output itself, independently of any recording:

* ``mass`` (no filter): the per-character contributions sum to p, and the
  printed ramified total is p;
* ``count`` over a full mixed-characteristic table: the mass rebuilt from
  the per-level extension counts, ``sum extensions * q**-level``, is p;
* ``oracle-check``: every class reports an exact match;
* ``galois-verify``: the solvability criterion and the index-p statement hold;
* ``checksum``: both sides of the identity are equal.

For ``oracle-check`` and ``galois-verify`` the identity only re-reads flags
that the cli prints as fixed text once its own comparison has passed; a real
mismatch makes the cli exit 2, so the exit code is the check that catches it.

A query that must exit 1 must also end its stderr with the cli's own
``error:`` line and show no traceback, so that a crash is not taken for a
rejection of bad input.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import Query

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: How each known failure shows on stderr when it fails as recorded.
KNOWN_SIGNATURES = {
    "int-str-limit": (1, b"Exceeds the limit (4300 digits) for integer string conversion"),
    "nonprime-exit-2": (2, b"internal identity failure: normalizer order"),
}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def _flag(argv, name: str, default=None):
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return default


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()[1:]]


def _mass_identity(argv, text: str, fmt: str) -> str | None:
    p = int(_flag(argv, "--p"))
    if fmt == "json":
        obj = json.loads(text)
        values = [Fraction(c["contribution"]) for c in obj["per_character"]]
        totals = [Fraction(obj["total_ramified"])]
    elif fmt == "tsv":
        values = [Fraction(row[4]) for row in _rows(text)]
        totals = []
    else:
        values = [Fraction(line.split()[-1]) for line in text.splitlines() if line.startswith("  char (")]
        totals = [Fraction(line.split()[-1]) for line in text.splitlines() if "ramified total:" in line]
    if len(values) != (p - 1) ** 2:
        return f"{len(values)} per-character rows, expected {(p - 1) ** 2}"
    if sum(values) != p:
        return f"per-character contributions sum to {sum(values)}, not {p}"
    if fmt != "tsv" and totals != [p]:
        return f"ramified total {totals} is not {p}"
    return None


def _count_identity(argv, text: str, fmt: str) -> str | None:
    e = _flag(argv, "--e", "inf")
    if e == "inf" or _flag(argv, "--vbar") is not None:
        return None
    p, f = int(_flag(argv, "--p")), int(_flag(argv, "--f", "1"))
    max_level = _flag(argv, "--max-level")
    if max_level is not None and int(max_level) < p * int(e):
        return None
    if fmt == "json":
        levels = [(int(k), v["extensions"]) for k, v in json.loads(text)["levels"].items()]
    elif fmt == "tsv":
        levels = [(int(row[0]), int(row[3])) for row in _rows(text)]
    else:
        levels = [
            (int(words[1]), int(words[7]))
            for words in (line.split() for line in text.splitlines()[1:])
        ]
    q = p**f
    rebuilt = sum((Fraction(n, q**level) for level, n in levels if level > 0), Fraction(0))
    if rebuilt != p:
        return f"mass rebuilt from the count table is {rebuilt}, not {p}"
    return None


def _oracle_identity(argv, text: str, fmt: str) -> str | None:
    if fmt == "json":
        flags = [c["exact_match"] for c in json.loads(text)["classes"]]
    elif fmt == "tsv":
        flags = [row[4] == "True" for row in _rows(text)]
    else:
        flags = [" == " in line for line in text.splitlines()[1:]]
    if not flags or not all(flags):
        return "oracle-check reports a class without an exact match"
    return None


def _galois_identity(argv, text: str, fmt: str) -> str | None:
    if fmt == "json":
        obj = json.loads(text)
        holds = [obj["solvability_criterion"]["criterion_holds"], obj["index_p_subgroups"]["holds"]]
    elif fmt == "tsv":
        results = dict(row for row in _rows(text))
        holds = [results.get("criterion_holds") == "True", results.get("index_p_holds") == "True"]
    else:
        lines = text.splitlines()
        holds = [
            any(line.startswith("  solvable <=>") and line.endswith(": ok") for line in lines),
            any(line.startswith("  index-p") and line.endswith(": ok") for line in lines),
        ]
    if not all(holds):
        return "galois-verify: criterion_holds or holds is false"
    return None


def _checksum_identity(argv, text: str, fmt: str) -> str | None:
    if fmt == "json":
        obj = json.loads(text)
        sides = [obj["lhs"], obj["rhs"]]
    elif fmt == "tsv":
        sides = _rows(text)[0][2:4]
    else:
        return None  # the text form prints a single value for both sides
    if Fraction(sides[0]) != Fraction(sides[1]):
        return f"checksum sides differ: {sides[0]} != {sides[1]}"
    return None


_IDENTITIES = {
    "mass": _mass_identity,
    "count": _count_identity,
    "oracle-check": _oracle_identity,
    "galois-verify": _galois_identity,
    "checksum": _checksum_identity,
}


def identity_problem(argv, stdout: bytes) -> str | None:
    """The exact identity the output of ``argv`` violates, or None."""
    check = _IDENTITIES.get(argv[0])
    if check is None or (argv[0] == "mass" and _flag(argv, "--filter") is not None):
        return None
    try:
        return check(argv, stdout.decode(), _flag(argv, "--format", "text"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"output does not parse: {exc!r}"


def rejection_problem(stderr: bytes) -> str | None:
    """Why an exit 1 is not the cli's own rejection of bad input, or None.

    An uncaught exception also exits 1 with empty stdout, so the exit code and
    stdout digest alone cannot tell a rejection from a crash.  The cli rejects
    input with a last stderr line ``error: ...`` and no traceback.
    """
    lines = stderr.decode(errors="replace").strip().splitlines()
    if b"Traceback" in stderr:
        return f"exit 1 with a traceback: {lines[-1][:120]}"
    if not lines or not lines[-1].startswith("error:"):
        return f"exit 1 without an 'error:' line: {(lines or [''])[-1][:120]}"
    return None


def problem(
    query: Query, status: int | None, stdout: bytes, stderr: bytes, digests: dict[str, str]
) -> tuple[str | None, bool]:
    """Why ``query`` failed (None if it passed), and whether the failure is known.

    ``status`` is None when the query timed out.  A known failure is one
    listed in ``workloads.KNOWN_FAILURES`` that failed exactly as recorded.
    """
    if status is None:
        return "timed out", False
    if status != query.expect_exit:
        known = KNOWN_SIGNATURES.get(query.known_failure)
        expected = known is not None and status == known[0] and known[1] in stderr
        message = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"exit {status}, expected {query.expect_exit}: {message[0][:120]}", expected
    recorded = digests.get(query.key)
    if recorded is not None and digest(stdout) != recorded:
        return f"stdout digest {digest(stdout)} differs from recorded {recorded}", False
    if status == 1:
        why = rejection_problem(stderr)
        if why is not None:
            return why, False
    if status == 0:
        why = identity_problem(query.argv, stdout)
        if why is not None:
            return why, False
    return None, False
