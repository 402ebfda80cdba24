"""``src/`` holds what the command line runs: every public top-level function
or class of the package is referenced by other code of the package, or is
listed here with the reason it stays.  The check reads the source with
``ast`` and runs none of it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "localmass"

#: The public names no other code of the package references, and why each stays.
LIBRARY_ONLY = {
    # perfbench/traced_main.py wraps these by name (tests/test_traced_names.py
    # pins them); they move once the benchmark's own files may change.
    "model.layout": "traced: the level walk expanded to one record per block",
    "model.EigenBlock": "traced: the block record of model.layout",
    "model.FilteredLayout": "traced: the record model.layout returns",
    "model.stratum_slot": "traced: the per-stratum slot formula the level walk is checked against",
    "model.enumerate_characters": "traced: the (p-1)**2 characters as records",
    "mass.count_table": "traced: count_rows held in a dict by level",
    "mass.per_character_contributions": "traced: one contribution per character",
    "mass.char_contribution": "traced: one character class's mass, the library's entry for it",
    # The checks ROADMAP item 10 gives the command line.
    "mass.char_contribution_closed": "item 10: the closed form the direct sum is checked against",
    "rationals.geom_finite": "item 10: the closed form's finite geometric series",
    "rationals.geom_infinite": "item 10: the closed form's infinite geometric series",
    "mass.mass_from_counts": "item 10: the mass rebuilt from the count table",
    # The library's own entry points.
    "mass.subfield_contribution": "the subfield refinement of the paper's section 9 (demos/04)",
}


def _definitions():
    """``{qualname: node}`` for every top-level function and class of ``src/``,
    and the module-level code outside them, whose references always count."""
    defs, outside = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
            elif not (path.stem == "__init__" and _assigns(node, "_HOME")):
                outside.append(node)
    return defs, outside


def _assigns(node, name):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets
    )


def _referenced(nodes):
    """The identifiers ``nodes`` read, as names or as attributes."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                found.add(sub.attr)
    return found


def _unreferenced():
    """The definitions no kept code references, found by dropping such
    definitions until none is left to drop: a helper that only dropped
    definitions use is dropped too.  References from the definitions listed
    in ``LIBRARY_ONLY`` never count; the interpreter calls the dunders."""
    defs, outside = _definitions()
    reads = {name: _referenced([node]) for name, node in defs.items()}
    always = _referenced(outside) | {node.name for node in defs.values() if _dunder(node.name)}
    kept = set(defs) - set(LIBRARY_ONLY)
    while True:
        dropped = {
            name
            for name in kept
            if defs[name].name not in always
            and not any(defs[name].name in reads[other] for other in kept - {name})
        }
        if not dropped:
            return set(defs) - kept
        kept -= dropped


def test_every_public_name_runs_or_is_listed():
    defs, _ = _definitions()
    unreferenced = _unreferenced()
    unlisted = {name for name in unreferenced - set(LIBRARY_ONLY) if not _private(name)}
    assert not unlisted, f"library-only names without a reason in LIBRARY_ONLY: {sorted(unlisted)}"
    dead = {name for name in unreferenced if _private(name)}
    assert not dead, f"private definitions nothing runs: {sorted(dead)}"
    assert set(LIBRARY_ONLY) <= set(defs), sorted(set(LIBRARY_ONLY) - set(defs))


def test_every_listed_name_is_unreferenced():
    # A listed name that other code of the package uses has a caller: the
    # entry is stale and goes.
    defs, outside = _definitions()
    for name in LIBRARY_ONLY:
        others = [node for other, node in defs.items() if other != name and other not in LIBRARY_ONLY]
        assert defs[name].name not in _referenced(outside + others), name


def _private(qualname):
    return qualname.split(".")[1].startswith("_")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")
