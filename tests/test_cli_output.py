"""What the cli writes to stdout: the recorded bytes of every sweep query, the
hand-rolled json of the long tables, one renderer per query, and nothing at
all when a query fails."""

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import localmass.cli as cli
from localmass.mass import count_table, per_character_contributions, total_mass
from localmass.model import INFINITE_E, LocalField, layout
from localmass.rationals import format_rational

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _wrong_digests(capsys, pool):
    """The queries of ``pool`` whose exit status and stdout digest differ from
    the recorded ones; a known failure must exit 1 with empty stdout."""
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    wrong = []
    for qu in pool:
        code, out, _ = run_cli(capsys, *qu.argv)
        if qu.known_failure is None:
            expected = (qu.expect_exit, digests[qu.key])
            out = hashlib.sha256(out.encode()).hexdigest()[:16]
        else:
            expected = (1, "")
        if (code, out) != expected:
            wrong.append((qu.key, code, out[:40]))
    return wrong


def test_sweep_stdout_matches_recorded_digests(capsys):
    pool = list(dict.fromkeys(qu for slot in workloads.sweep_slots() for qu in slot))
    assert len(pool) > 1000
    assert not _wrong_digests(capsys, pool)


def test_deep_mass_stdout_matches_recorded_digests(capsys):
    # Fields the sweep grid does not reach: p = 31 and 101, e = 100.
    pool = workloads.DEEP_MASS
    assert sum(qu.known_failure is None for qu in pool) == 6
    assert not _wrong_digests(capsys, pool)


def test_verify_stdout_matches_recorded_digests(capsys):
    # The brute-force checks: line enumeration at p = 3, 5, 7 and 13, and the
    # transitive families of S_3, S_5 and S_7.
    pool = workloads.VERIFY
    assert len(pool) == 8 and not any(qu.known_failure for qu in pool)
    assert not _wrong_digests(capsys, pool)


def _old_structure_json(field, max_level):
    lay = layout(field, max_level)
    blocks = [
        {"level": b.level, "vbar": b.valuation, "dim": b.dim, "distinguished": b.distinguished}
        for b in lay.blocks
    ]
    obj = {"field": field.to_json_obj(), "max_level": lay.max_level, "total_dim": lay.total_dim}
    return json.dumps(dict(obj, blocks=blocks), sort_keys=True, indent=2) + "\n"


def _old_count_json(field, max_level, vbar):
    levels = {
        str(rec.level): dataclasses.asdict(rec)
        for rec in count_table(field, max_level).values()
        if vbar is None or rec.vbar == vbar % max(field.p - 1, 1)
    }
    return json.dumps({"field": field.to_json_obj(), "levels": levels}, sort_keys=True, indent=2) + "\n"


def _old_mass_json(field):
    obj = total_mass(field).to_json_obj()
    obj["per_character"] = [
        {"a": chi.coords[0], "b": chi.coords[1], "vbar": chi.valuation,
         "distinguished": chi.distinguished, "contribution": format_rational(value)}
        for chi, value in per_character_contributions(field)
    ]
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_streamed_json_equals_json_dumps_on_the_sweep_grid(capsys):
    empty_tables = 0
    for p, f, e in workloads._sweep_fields():
        field = LocalField(p, f, INFINITE_E if e == "inf" else int(e))
        _, out, _ = run_cli(capsys, "mass", "--p", p, "--f", f, "--e", e, "--format", "json")
        assert out == _old_mass_json(field), (p, f, e)
        for max_level in (0, 7, 20 if e == "inf" else None):
            bound = () if max_level is None else ("--max-level", max_level)
            argv = ("--p", p, "--f", f, "--e", e, *bound, "--format", "json")
            _, out, _ = run_cli(capsys, "structure", *argv)
            assert out == _old_structure_json(field, max_level), argv
            for vbar in (None, 0, 1):
                flag = () if vbar is None else ("--vbar", vbar)
                _, out, _ = run_cli(capsys, "count", *argv, *flag)
                assert out == _old_count_json(field, max_level, vbar), (argv, vbar)
                empty_tables += '"levels": {}' in out
    assert empty_tables > 0


QUERIES = [
    ("structure", "--p", 3, "--e", 2),
    ("mass", "--p", 5, "--e", "inf"),
    ("mass", "--p", 3, "--e", 1, "--filter", "cyclic"),
    ("count", "--p", 3, "--e", "inf", "--max-level", 9),
    ("tame", "--pprime", 2, "--p", 3),
    ("galois-verify", "--p", 3),
    ("oracle-check", "--p", 3, "--e", 1),
    ("checksum", "--p", 3),
]
RENDERERS = {"json": {"_json", "_json_streamed"}, "tsv": {"_tsv"}, "text": {"_text"}}


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_only_the_requested_renderer_runs(capsys, monkeypatch, fmt):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in set().union(*RENDERERS.values()):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    monkeypatch.setattr(cli.json, "dumps", spy("json.dumps", json.dumps))
    for argv in QUERIES:
        calls.clear()
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and out
        renderers = set(calls) - {"json.dumps"}
        assert len(renderers) == 1 and renderers <= RENDERERS[fmt], (argv, calls)
        if fmt != "json":
            assert "json.dumps" not in calls, argv


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_count_past_the_int_str_limit_writes_nothing(capsys, fmt):
    # At (3, 1, 1400) only the top 121 of 2 802 levels have counts of more
    # than 640 digits, so a renderer that converted as it wrote would have
    # written the lower levels before it failed.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "count", "--p", 3, "--e", 1400, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err.startswith("error: Exceeds the limit (640 digits) for integer string conversion")
