"""What the cli writes to stdout: the recorded bytes of every sweep query, the
hand-rolled json of the long tables, one renderer per query, and nothing at
all when a query fails."""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import localmass.cli as cli
from localmass.mass import count_table, per_character_contributions, total_mass
from localmass.model import INFINITE_E, LocalField, layout
from localmass.rationals import format_rational
from reference import run_cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


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


def test_wide_tables_stdout_matches_recorded_digests(capsys):
    # Thousands of levels from the level walk: structure and count tables.
    pool = workloads.WIDE_TABLES
    assert sum(qu.known_failure is None for qu in pool) == 5
    assert not _wrong_digests(capsys, pool)


def test_verify_stdout_matches_recorded_digests(capsys):
    # The brute-force checks: line enumeration at p = 3, 5, 7 and 13, and the
    # transitive families of S_3, S_5 and S_7.
    pool = workloads.VERIFY
    assert len(pool) == 8 and not any(qu.known_failure for qu in pool)
    assert not _wrong_digests(capsys, pool)


@pytest.mark.parametrize(
    "p,fmt,digest",
    [
        (5, "json", "288f1858cf67f428"),
        (5, "text", "2c94b5606c779ba2"),
        (7, "json", "0986479c38e88178"),
        (7, "tsv", "ee17aeea6129aa43"),
    ],
)
def test_galois_verify_outputs_no_workload_records(capsys, p, fmt, digest):
    # digests.json holds the other eight p in {2, 3, 5, 7} x format outputs.
    code, out, _ = run_cli(capsys, "galois-verify", "--p", p, "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (0, digest)


def _field_obj(field):
    e = "inf" if field.e == INFINITE_E else field.e
    return {"p": field.p, "f": field.f, "e": e, "q": field.p**field.f}


def _old_structure_json(field, max_level):
    lay = layout(field, max_level)
    blocks = [
        {"level": b.level, "vbar": b.valuation, "dim": b.dim, "distinguished": b.distinguished}
        for b in lay.blocks
    ]
    obj = {"field": _field_obj(field), "max_level": lay.max_level, "total_dim": lay.total_dim}
    return json.dumps(dict(obj, blocks=blocks), sort_keys=True, indent=2) + "\n"


def _old_count_json(field, max_level, vbar):
    levels = {
        str(rec.level): rec._asdict()
        for rec in count_table(field, max_level).values()
        if vbar is None or rec.vbar == vbar % max(field.p - 1, 1)
    }
    return json.dumps({"field": _field_obj(field), "levels": levels}, sort_keys=True, indent=2) + "\n"


def _old_mass_json(field):
    report = total_mass(field)
    obj = {
        "field": _field_obj(field),
        "per_vbar": {str(w): format_rational(c) for w, c in report.per_vbar.items()},
        "tres_extra": format_rational(report.tres_extra),
        "total_ramified": format_rational(report.total),
        "grand_total": format_rational(report.total + 1),
    }
    obj["per_character"] = [
        {"a": a, "b": b, "vbar": chi.valuation,
         "distinguished": chi.distinguished, "contribution": format_rational(value)}
        for (a, b), chi, value in per_character_contributions(field)
    ]
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


OMEGA_FIELDS = [LocalField(3, 1, 2, (0, 0)), LocalField(5, 1, 2, (2, 1)), LocalField(7, 1, 3, (3, 5))]


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
    # Known cyclotomic coordinates: (0, 0) stays trivial on Q_3(sqrt(-3)),
    # which contains mu_3, and the other two fields mark their pair omega.
    for field in OMEGA_FIELDS:
        argv = ("--p", field.p, "--f", field.f, "--e", field.e, "--format", "json")
        omega = ("--omega-a", field.omega[0], "--omega-b", field.omega[1])
        _, out, _ = run_cli(capsys, "mass", *argv, *omega)
        assert out == _old_mass_json(field), field


def test_structure_prints_one_line_per_layout_block(capsys):
    # The cli repeats one formatted row for a level's generic blocks; the
    # layout lists every block.
    for p, f, e in workloads._sweep_fields():
        field = LocalField(p, f, INFINITE_E if e == "inf" else int(e))
        for max_level in (7, 20 if e == "inf" else None):
            bound = () if max_level is None else ("--max-level", max_level)
            argv = ("structure", "--p", p, "--f", f, "--e", e, *bound)
            blocks = layout(field, max_level).blocks
            _, out, _ = run_cli(capsys, *argv, "--format", "tsv")
            assert out.splitlines()[1:] == ["\t".join(map(str, b)) for b in blocks], (p, f, e)
            _, out, _ = run_cli(capsys, *argv)
            text = ["  level {:>5}  vbar {}  dim {}  {}".format(*b) for b in blocks]
            assert out.splitlines()[1:] == text, (p, f, e)


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

    # Each handler module binds the renderers it calls.
    for module in sorted({module for module, *_ in cli._FLAGS.values()}):
        handlers = importlib.import_module(f"localmass.{module}")
        for name in set().union(*RENDERERS.values()) & set(vars(handlers)):
            monkeypatch.setattr(handlers, name, spy(name, getattr(handlers, name)))
    monkeypatch.setattr(json, "dumps", spy("json.dumps", json.dumps))
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


@pytest.mark.parametrize(
    "argv",
    [
        ("tame", "--pprime", 2, "--p", 3, "--f", 20000, "--format", "tsv"),
        ("tame", "--pprime", 2, "--p", 3, "--f", 20000, "--format", "json"),
        ("structure", "--p", 3, "--f", 20000, "--e", 1, "--format", "json"),
    ],
    ids=["tame-tsv", "tame-json", "structure-json"],
)
def test_q_past_the_int_str_limit_writes_nothing(capsys, argv):
    # q = 3**20000 has 9 543 digits; it used to be converted first by the
    # renderer, after main's error handling, and escaped as a traceback.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")
