"""What a query imports: each check runs in a fresh interpreter, since this
one has long since loaded every module."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> str:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_skips_dataclasses_inspect_and_json():
    # Nor fractions: galois-verify prints no rational.
    run_fresh("""
        import sys
        import localmass.cli as cli
        loaded = {"dataclasses", "inspect", "json", "fractions"} & set(sys.modules)
        assert not loaded, loaded
        assert cli.main(["galois-verify", "--p", "3", "--format", "tsv"]) == 0
        loaded = {"dataclasses", "inspect", "json", "fractions"} & set(sys.modules)
        assert not loaded, loaded
    """)


def test_cli_registers_the_kernels_without_running_them():
    # A module the LazyLoader has registered but not executed keeps its
    # placeholder type until an attribute is read.
    run_fresh("""
        import sys, types
        import localmass.cli as cli
        deferred = ["localmass.rationals", "localmass.mass", "localmass.oracle",
                    "localmass.permgroup"]
        def executed():
            return [n for n in deferred if type(sys.modules[n]) is types.ModuleType]
        assert all(n in sys.modules for n in deferred)
        assert not executed(), executed()
        assert cli.main(["structure", "--p", "3", "--e", "2", "--format", "tsv"]) == 0
        assert not executed(), executed()
        assert {"dataclasses", "inspect", "json", "fractions"}.isdisjoint(sys.modules)
    """)


def test_star_import_binds_each_name_to_its_module_object():
    run_fresh("""
        import localmass
        assert set(localmass.__all__) <= set(dir(localmass))
        from localmass import *
        import localmass.mass, localmass.model, localmass.oracle, localmass.rationals
        modules = [localmass.mass, localmass.model, localmass.oracle, localmass.rationals]
        for name in localmass.__all__:
            homes = [vars(m)[name] for m in modules if name in vars(m)]
            assert homes, name
            assert all(obj is globals()[name] for obj in homes), name
            assert getattr(localmass, name) is globals()[name], name
        try:
            localmass.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
    """)


def test_no_query_loads_an_argument_parsing_library():
    # argparse brought in gettext; getopt brings in gettext and locale too.
    run_fresh("""
        import contextlib, io, sys
        import localmass.cli as cli
        parsers = {"argparse", "optparse", "getopt", "gettext", "locale"}
        assert parsers.isdisjoint(sys.modules), sorted(parsers & set(sys.modules))
        for query in [
            "structure --p 3 --e 2", "mass --p 3 --e 2", "count --p 3 --e 2",
            "tame --p 3 --pprime 2", "galois-verify --p 3", "oracle-check --p 3 --e 1",
            "checksum --p 3",
        ]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*query.split(), "--format", "tsv"]) == 0
            assert parsers.isdisjoint(sys.modules), (query, sorted(parsers & set(sys.modules)))
    """)


#: For one query of each subcommand: the ``localmass`` modules it executes,
#: and whether it imports ``fractions`` and ``json``.  Every query executes
#: the cli, the helpers its handlers share, and the one module that holds
#: its handler.
STRUCTURE = {"cli", "cli_common", "cli_structure", "model"}
COUNT = {"cli", "cli_common", "cli_count", "model"}
KERNELS = {"cli", "cli_common", "cli_mass", "model", "mass", "rationals"}
LOADS = [
    ("structure --p 3 --e 2 --format tsv", STRUCTURE, False, False),
    ("structure --p 3 --e 2 --format text", STRUCTURE, False, False),
    ("structure --p 3 --e 2 --format json", STRUCTURE, False, True),
    ("count --p 3 --e 2 --format tsv", COUNT, False, False),
    ("count --p 3 --e 2 --format text", COUNT, False, False),
    ("count --p 3 --e 2 --format json", COUNT, False, True),
    ("mass --p 3 --e 2 --format tsv", KERNELS, True, False),
    ("mass --p 3 --e 2 --format json", KERNELS, True, True),
    ("tame --p 3 --pprime 2 --format tsv", KERNELS, True, False),
    ("checksum --p 3 --format tsv", KERNELS, True, False),
    (
        "oracle-check --p 3 --e 1 --format tsv",
        {"cli", "cli_common", "cli_verify", "model", "mass", "rationals", "oracle"},
        True,
        False,
    ),
    (
        "galois-verify --p 3 --format tsv",
        {"cli", "cli_common", "cli_verify", "model", "permgroup", "stabchain"},
        False,
        False,
    ),
]


@pytest.mark.parametrize("query, modules, fractions, json", LOADS, ids=[row[0] for row in LOADS])
def test_each_subcommand_executes_only_what_it_runs(query, modules, fractions, json):
    # A module the cli registered lazily and never read keeps its placeholder
    # type, so it counts only once its code has run.
    loaded = run_fresh(f"""
        import contextlib, io, sys, types
        import localmass.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({query.split()!r}) == 0
        executed = sorted(
            name.removeprefix("localmass.") for name, module in sys.modules.items()
            if name.startswith("localmass.") and type(module) is types.ModuleType
        )
        print([executed, "fractions" in sys.modules, "json" in sys.modules])
    """)
    assert ast.literal_eval(loaded) == [sorted(modules), fractions, json]


def test_cli_import_executes_no_handler_module():
    # main imports the module of the asked subcommand; the import alone
    # executes the parser's module and the model that names its errors.
    run_fresh("""
        import sys, types
        import localmass.cli as cli
        executed = sorted(
            name for name, module in sys.modules.items()
            if name.startswith("localmass.") and type(module) is types.ModuleType
        )
        assert executed == ["localmass.cli", "localmass.model"], executed
        handlers = {f"localmass.{m}" for m, *_ in cli._FLAGS.values()} | {"localmass.cli_common"}
        assert handlers.isdisjoint(sys.modules), sorted(handlers & set(sys.modules))
    """)


def _imported(path: Path) -> set[str]:
    """The absolute names of the modules ``path`` imports, or imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "localmass" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_but_the_cli_imports_the_cli():
    # ``python -m localmass.cli`` runs cli.py as __main__: a module that
    # imported localmass.cli would compile and run it a second time.
    importers = [
        path.name for path in sorted((ROOT / "src" / "localmass").glob("*.py"))
        if path.name != "cli.py" and "localmass.cli" in _imported(path)
    ]
    assert not importers, importers
