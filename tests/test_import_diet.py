"""What a query imports: each check runs in a fresh interpreter, since this
one has long since loaded every module."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_skips_dataclasses_inspect_and_json():
    run_fresh("""
        import sys
        import localmass.cli as cli
        loaded = {"dataclasses", "inspect", "json"} & set(sys.modules)
        assert not loaded, loaded
        assert cli.main(["galois-verify", "--p", "3", "--format", "tsv"]) == 0
        loaded = {"dataclasses", "inspect", "json"} & set(sys.modules)
        assert not loaded, loaded
    """)


def test_cli_registers_the_kernels_without_running_them():
    # A module the LazyLoader has registered but not executed keeps its
    # placeholder type until an attribute is read.
    run_fresh("""
        import sys, types
        import localmass.cli as cli
        deferred = ["localmass.mass", "localmass.oracle", "localmass.permgroup"]
        def executed():
            return [n for n in deferred if type(sys.modules[n]) is types.ModuleType]
        assert all(n in sys.modules for n in deferred)
        assert not executed(), executed()
        assert cli.main(["structure", "--p", "3", "--e", "2", "--format", "tsv"]) == 0
        assert not executed(), executed()
        assert {"dataclasses", "inspect", "json"}.isdisjoint(sys.modules)
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
