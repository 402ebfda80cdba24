"""The benchmark's traced run wraps functions by ``module.function`` name;
each name must resolve, or ``--trace 1`` crashes instead of a test failing."""

import importlib
import importlib.util
from pathlib import Path

TRACED_MAIN = Path(__file__).resolve().parents[1] / "perfbench" / "traced_main.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("traced_main", TRACED_MAIN)
    traced_main = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_main)
    missing = []
    for qualname in traced_main.SPANS + traced_main.COUNTERS:
        module, name = qualname.split(".")
        if not callable(getattr(importlib.import_module(f"localmass.{module}"), name, None)):
            missing.append(qualname)
    assert not missing
