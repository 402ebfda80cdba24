"""The mutation gate: each cross-check must catch the bug it exists for.

Usage, from the root of a checkout: ``python3 mutants/run.py``.
It copies ``src/``, ``tests/``, ``demos/``, ``perfbench/``, ``README.md`` and
``pyproject.toml`` to a temporary directory and runs the tests there with the
recorded-output ones deselected; they must pass.  Then, one entry of
``MUTANTS`` at a time, it makes a fresh copy, replaces the entry's source
text, which must occur exactly once in its module, and runs the same tests:
the check meant to catch the mutant, then, if that passes, the rest.  A
mutant is killed when pytest exits 1 with a failing test; the run prints that
test and whether it is in the entry's check.  It exits 1 if a mutant survives
or is killed only by a test outside its check, and 2 if a run cannot judge
one (an unmutated copy that fails, a replacement that does not occur once, or
any pytest exit but 0 and 1).  Mutants run one at a time so that the tests'
deadlines see no more load than in a plain run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "perfbench", "README.md", "pyproject.toml")
DESELECT = "not digest and not readme and not recorded and not demo"
ARGV = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-k", DESELECT]
PARSER_CHECK = "tests/test_cli.py::test_parse_args_reads_argv_as_argparse_did"

#: ``(module, source text, replacement, label, the check meant to catch it)``;
#: the check is a test file or one test's node id.
MUTANTS = [
    # The closure filters' census.
    (
        "mass",
        "if math.lcm(d, d2) == n)",
        "if max(d, d2) == n)",
        "group-order passes on the larger order, not the lcm",
        "tests/test_properties.py",
    ),
    (
        "mass",
        "return {w_omega: m}, w_omega == 0",
        "return {w_omega: m}, True",
        "unramified-closure always keeps the trivial character",
        "tests/test_mass.py",
    ),
    (
        "mass",
        "return {w_omega: 1}, omega_is_trivial(field)",
        "return {w_omega: 1}, False",
        "cyclic never keeps the trivial character",
        "tests/test_mass.py",
    ),
    (
        "mass",
        "counts = {(om[0] - x) % m: passing[d]",
        "counts = {x % m: passing[d]",
        "group-order reads x as chi's valuation",
        "tests/test_properties.py",
    ),
    # The filtered mass's digit bound.
    (
        "cli_mass",
        "exponent = field.f * (top if trivial else deepest) - 1",
        "exponent = field.f * (top if trivial else deepest) + 1",
        "the denominator bound one power of p too deep",
        "tests/test_cli.py",
    ),
    (
        "cli_mass",
        "    if trivial and counts.get(1 % m) == m:\n        return\n",
        "",
        "the tie with the top line bounded",
        "tests/test_cli.py",
    ),
    (
        "cli_mass",
        "counts.get(1 % m) == m",
        "counts.get(1 % m, 0) >= 1",
        "the bound skipped on any tie with the top line, cancelling or not",
        "tests/test_cli.py::test_filtered_mass_with_a_partial_tie_is_bounded",
    ),
    (
        "cli_mass",
        "deepest = level - level // p",
        "deepest = level",
        "the denominator bound's depth counting the multiples of p",
        "tests/test_cli.py",
    ),
    (
        "cli_mass",
        "((w - 1) % m for w in counts)",
        "((-w - 1) % m for w in counts)",
        "the denominator bound reading valuation -w's levels",
        "tests/test_cli.py",
    ),
    (
        "cli_mass",
        "level = last - min(",
        "level = last - max(",
        "the denominator bound reading the shallowest counted valuation",
        "tests/test_cli.py",
    ),
    (
        "cli_mass",
        "exponent = (p + (p - 1) ** 2 - 4) * args.f",
        "exponent = (p + (p - 1) ** 2 - 2) * args.f",
        "the checksum bound one power of q too high",
        "tests/test_cli.py",
    ),
    # The characters.
    (
        "model",
        "        if w == w_omega and not omega_is_trivial(field):\n            yield omega_char(field)\n",
        "",
        "the cyclotomic class dropped from char_classes",
        "tests/test_properties.py",
    ),
    (
        "model",
        "    if omega_is_trivial(field):\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
        "omega accepted where the cyclotomic class is trivial",
        "tests/test_mass.py::test_omega_refused_where_the_cyclotomic_class_is_trivial",
    ),
    (
        "mass",
        "Counter((om[0] - x) % m for x, _ in subgroup)",
        "Counter(x % m for x, _ in subgroup)",
        "subfield_contribution reads x as chi's valuation",
        "tests/test_properties.py",
    ),
    (
        "model",
        "    if (a, b) == (0, 0):\n        return TRIVIAL\n",
        "    if (a, b) == (0, 0) != field.omega:\n        return TRIVIAL\n",
        "the census's precedence reversed: omega before trivial",
        "tests/test_model.py",
    ),
    (
        "model",
        "return OMEGA if (a, b) == field.omega else GENERIC",
        "return OMEGA if (a, b) == (cyclotomic_valuation(field), 1) else GENERIC",
        "the census ignoring the field's cyclotomic coordinates",
        "tests/test_model.py",
    ),
    (
        "cli_mass",
        "trivial if (a, b) == (0, 0) else per_vbar[a]",
        "trivial if a == 0 else per_vbar[a]",
        "mass giving the trivial value to every (0, b) row",
        "tests/test_cli.py",
    ),
    # The line oracle's walk of a congruence class.
    (
        "oracle",
        "range(residue or m, below + 1, m)",
        "range((residue or m) + 1, below + 1, m)",
        "the congruence class walked from one past its residue",
        "tests/test_oracle.py::test_roots_of_unity_field_oracle",
    ),
    (
        "oracle",
        "if d % p:",
        "if True:",
        "the multiples of p in a class kept as block levels",
        "tests/test_oracle.py::test_blocks_agree_with_layout",
    ),
    (
        "oracle",
        "        check_scale(p, dim)\n",
        "",
        "the caps left untested by enumerate_lines' loop",
        "tests/test_oracle.py::test_vector_guard",
    ),
    # oracle-check's floor, the level-0 line and level 1's block.
    (
        "cli_verify",
        "    if args.vbar is None:\n",
        "    if False:\n",
        "oracle-check's floor left to the class loop",
        "tests/test_cli.py::test_oracle_check_of_every_class_at_a_nine_digit_prime_exits_1_at_once",
    ),
    (
        "cli_verify",
        "field.f if bound >= 1 else 1",
        "1 if bound >= 1 else 1",
        "oracle-check's floor reading 1 where level 1's block has dimension f",
        "tests/test_cli.py::test_oracle_check_with_level_1_past_the_vector_cap_exits_1_at_once",
    ),
    # The row totals.
    (
        "model",
        "(p * start - stop) // (p * step) - (start - stop) // step",
        "-((start - stop) // step)",
        "walk_totals counting the progression's multiples of p as levels",
        "tests/test_model.py::test_walk_totals_count_the_layout",
    ),
    # The flag parser, against argparse.
    (
        "cli",
        "if d is ... and values[n] is None]:",
        "if False]:",
        "a required flag left out",
        PARSER_CHECK,
    ),
    (
        "cli",
        "values[name] = int(value) if kinds[name] is int else value",
        "values[name] = value",
        "an int flag kept as text",
        PARSER_CHECK,
    ),
    (
        "cli",
        "hits = [stem] if stem in names else [",
        "hits = [",
        "an exact name no longer winning over a longer one (tame --p)",
        PARSER_CHECK,
    ),
    (
        "cli",
        '("f", int, 1, "residue degree")',
        '("f", int, 2, "residue degree")',
        "--f defaulting to 2",
        PARSER_CHECK,
    ),
    (
        "cli",
        'return None if number or " " in token else (None, None)',
        'return None if " " in token else (None, None)',
        "a negative number taken for a flag, not a value",
        PARSER_CHECK,
    ),
]


class GateError(Exception):
    """A run that cannot say whether a mutant was caught."""


def _copy(tree: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, tree / name)


def _mutate(tree: Path, module: str, old: str, new: str) -> None:
    path = tree / "src" / "localmass" / f"{module}.py"
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise GateError(f"{module}: {old!r} occurs {count} times, not once")
    path.write_text(text.replace(old, new))


def _pytest(tree: Path, paths: list[str]) -> str | None:
    """The first test that fails in ``paths`` under ``tree``, or None if all
    pass."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([*ARGV, *paths], cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if done.returncode != 1 or match is None:
        raise GateError(f"pytest {' '.join(paths)} exited {done.returncode}:\n{done.stdout[-2000:]}")
    return match[1]


def run(entry=None) -> str | None:
    """The first test that fails under the entry's mutant (None if none
    does); with no entry, under the unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="localmass-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if entry is None:
            return _pytest(tree, ["tests"])
        module, old, new, _, check = entry
        _mutate(tree, module, old, new)
        rest = f"--deselect={check}" if "::" in check else f"--ignore={check}"
        return _pytest(tree, [check]) or _pytest(tree, ["tests", rest])


def main() -> int:
    start = time.perf_counter()
    try:
        failure = run()
        if failure:
            raise GateError(f"the unmutated copy fails {failure}")
        print(f"{time.perf_counter() - start:5.1f}s  the unmutated copy passes")
        survivors = strays = 0
        for entry in MUTANTS:
            began = time.perf_counter()
            killer = run(entry)
            survivors += killer is None
            stray = killer is not None and not (
                killer == entry[4] or killer.startswith((entry[4] + "::", entry[4] + "[")))
            strays += stray
            verdict = "SURVIVED" if killer is None else "killed"
            by = "" if killer is None else f"  by {killer}" + (f", not by {entry[4]}" if stray else "")
            print(f"{time.perf_counter() - began:5.1f}s  {verdict}  {entry[3]}{by}")
    except GateError as err:
        print(f"gate error: {err}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed, {strays} of them"
          f" not by their named check, in {time.perf_counter() - start:.1f} s")
    return 1 if survivors or strays else 0


if __name__ == "__main__":
    sys.exit(main())
