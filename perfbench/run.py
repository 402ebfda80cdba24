"""Benchmark of the ``localmass`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One client works through the workload's query list in a closed loop: each
query runs in a fresh ``python3 -m localmass.cli`` subprocess, the next one
starts when it has ended, and no two run at once.  A pass is one trip through
the list; passes repeat while another one fits in ``--seconds``, and at least
one always runs.  Every output is checked (see ``checks.py``).

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
each query of a pass runs twice, untraced and at once again through
``traced_main.py``, and the per-layer metrics and the tracing overhead are
reported.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are the same
figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import WORKLOADS, Query, queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI = ROOT / "src" / "localmass" / "cli.py"

#: A query still running after this long is killed and counted as failed.
QUERY_TIMEOUT_S = 60.0
#: No query starts after this much of a run has passed, so a run always ends
#: well inside three minutes even when the program has become much slower.
RUN_BUDGET_S = 150.0
#: Interpreter starts timed per run for ``setup_s``, after one warm-up start.
SETUP_SAMPLES = 15


@dataclass
class Outcome:
    """What one query did."""

    query: Query
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout_digest: str
    stdout_bytes: int
    problem: str | None
    known: bool
    trace: dict | None = None


@dataclass
class Pass:
    """One trip through the query list."""

    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        """The queries' summed wall time; the benchmark's own checks are left out."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # The children must see Python's default int-to-str limit, whatever the
    # caller's environment says: some queries fail on it at the commit that
    # defined this benchmark, and those failures are part of the result.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Finished:
    status: int | None  # None: killed at the timeout
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    side: bytes


class Launcher:
    """Runs commands one at a time through ``launcher.py``.

    The children are forked there, not here, so that their ``ru_maxrss`` is
    their own peak and not this process's (see ``launcher.py``).
    """

    def __init__(self, env: dict[str, str]) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "launcher.py"), str(theirs.fileno())],
                stdin=subprocess.DEVNULL, env=env, cwd=ROOT, pass_fds=(theirs.fileno(),),
            )

    def close(self) -> None:
        self.sock.close()
        self.proc.wait()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, cmd: list[str], timeout: float, side_channel: bool = False) -> Finished:
        """Run ``cmd`` to completion, or kill it at ``timeout``.

        With ``side_channel`` the child also gets the write end of a pipe as
        fd 3, and what it writes there is returned as ``side``.
        """
        pipes = [os.pipe() for _ in range(3 if side_channel else 2)]
        start = time.perf_counter()
        request = json.dumps({"argv": cmd, "timeout": timeout}).encode()
        socket.send_fds(self.sock, [request], [w for _, w in pipes])
        for _, w in pipes:
            os.close(w)
        json.loads(self.sock.recv(1 << 16))  # the child has started
        buffers: dict[int, list[bytes]] = {r: [] for r, _ in pipes}
        with selectors.DefaultSelector() as sel:
            for fd in buffers:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        buffers[key.fd].append(chunk)
                    else:
                        sel.unregister(key.fd)
                        os.close(key.fd)
        reply = json.loads(self.sock.recv(1 << 16))
        wall = time.perf_counter() - start
        out = [b"".join(buffers[r]) for r, _ in pipes] + [b""]
        return Finished(reply["status"], wall, reply["cpu_s"], reply["rss_kb"], out[0], out[1], out[2])


class Runner:
    """Runs queries and checks them; takes set-up samples between queries.

    ``setup_samples`` set-up samples are spread over the first passes, one
    after every ``len(queries) // setup_samples`` queries, so that they see
    the same machine load as the queries do.
    """

    def __init__(self, launcher: Launcher, digests: dict[str, str], setup_samples: int) -> None:
        self.launcher = launcher
        self.digests = digests
        self.setup_target = setup_samples
        self.setup: list[float] = []
        self.passes = 0
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter that starts and imports localmass.cli."""
        done = self.launcher.spawn([sys.executable, "-c", "import localmass.cli"], QUERY_TIMEOUT_S)
        if done.status != 0:
            raise SystemExit(f"cannot import localmass.cli: {done.stderr.decode(errors='replace')}")
        return done.wall_s

    def run(self, query: Query, traced: bool, query_id: str = "") -> Outcome:
        timeout = min(QUERY_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Outcome(query, 0.0, 0.0, 0, "", 0, "not started: run budget spent", False)
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_main.py"), query_id, *query.argv]
        else:
            cmd = [sys.executable, "-m", "localmass.cli", *query.argv]
        done = self.launcher.spawn(cmd, timeout, side_channel=traced)
        problem, known = checks.problem(query, done.status, done.stdout, done.stderr, self.digests)
        trace = None
        if traced and done.status is not None:
            try:
                trace = json.loads(done.side)
            except ValueError:
                problem, known = problem or "traced run wrote no trace", False
        return Outcome(
            query, done.wall_s, done.cpu_s, done.rss_kb, checks.digest(done.stdout),
            len(done.stdout), problem, known, trace,
        )

    def run_pass(self, qs: list[Query]) -> Pass:
        """One untraced trip through ``qs``, taking set-up samples until there are enough."""
        every = max(1, len(qs) // self.setup_target) if self.setup_target else 0
        outcomes = []
        for i, qu in enumerate(qs, 1):
            outcomes.append(self.run(qu, traced=False))
            if every and i % every == 0 and len(self.setup) < self.setup_target:
                self.setup.append(self.setup_sample())
        return Pass(outcomes)

    def run_pair(self, qs: list[Query]) -> tuple[Pass, Pass]:
        """One trip through ``qs`` that runs each query untraced, then at once traced.

        Run back to back, the two runs of a query see the same machine speed,
        so their difference is the tracing overhead and not the host's drift,
        which on a shared 2-vCPU machine moved a pass's time by up to half within
        one run.
        """
        self.passes += 1
        plain, wrapped = [], []
        for i, qu in enumerate(qs, 1):
            plain.append(self.run(qu, traced=False))
            wrapped.append(self.run(qu, traced=True, query_id=f"{self.passes}.{i}"))
        return Pass(plain), Pass(wrapped)


def repeat(seconds: float, step) -> list:
    """Call ``step`` while another call fits in ``seconds``; at least once."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "query_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed for a reader but left out of the result's metrics, so no bound
#: gates them.  One query's wall time spread by up to a third from run to run
#: on a shared 2-vCPU machine, more than the largest bound a metric can have.
PRINTED_ONLY = {"query_p50_s"}


def end_to_end(setup: list[float], passes: list[Pass]) -> dict[str, float]:
    # Each query's median over the passes first, so that one slow sample of a
    # short query cannot become the median of a list of few distinct queries;
    # then the upper median, a time that some query of the list really took
    # rather than the mean of two unlike queries.
    per_query = [statistics.median(runs) for runs in zip(*([o.wall_s for o in p.outcomes] for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "query_p50_s": statistics.median_high(per_query),
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p.outcomes) / 1024,
    }


def _layer_names() -> dict[str, str]:
    from traced_main import COUNTERS, SPANS

    units = {"cli.import_s": "s", "cli.stdout_bytes": "B"}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for name in COUNTERS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s"})
    units.update({
        "mass.char_contribution.distinct": "count",
        "mass.char_contribution.useful_ratio": "1",
        "mass.result_num_bits_max": "bit",
        "mass.result_den_bits_max": "bit",
        "mass.count_table.rows": "count",
        "model.layout.blocks": "count",
        "oracle.vectors": "count",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


LAYER_UNITS = _layer_names()


def per_layer(pairs: list[tuple[Pass, Pass]]) -> dict[str, float]:
    """Per-layer figures of the traced passes, as means per pass."""
    total = dict.fromkeys(LAYER_UNITS, 0.0)
    bits = [0, 0]
    for _, traced in pairs:
        for o in traced.outcomes:
            total["cli.stdout_bytes"] += o.stdout_bytes
            if o.trace is None:
                continue
            tr = o.trace
            total["cli.import_s"] += tr["import_s"]
            spans = tr["spans"]
            covered = [s[4] for s in spans]  # counter time charged to each span
            for s in spans:
                if s[3] is not None:
                    covered[s[3]] += s[2] - s[1]
            for s, cov in zip(spans, covered):
                total[f"{s[0]}.calls"] += 1
                total[f"{s[0]}.s"] += s[2] - s[1]
                total[f"{s[0]}.self_s"] += s[2] - s[1] - cov
            for name, (calls, secs) in tr["counters"].items():
                total[f"{name}.calls"] += calls
                total[f"{name}.s"] += secs
            for name, n in tr["counts"].items():
                total[name] += n
            bits = [max(bits[0], tr["bits"][0]), max(bits[1], tr["bits"][1])]
    n = len(pairs)
    out = {k: v / n for k, v in total.items()}
    calls = out["mass.char_contribution.calls"]
    out["mass.char_contribution.useful_ratio"] = (
        out["mass.char_contribution.distinct"] / calls if calls else 0.0
    )
    out["mass.result_num_bits_max"], out["mass.result_den_bits_max"] = bits
    untraced = statistics.mean(u.wall_s for u, _ in pairs)
    traced = statistics.mean(t.wall_s for _, t in pairs)
    out["trace.untraced_wall_s"] = untraced
    out["trace.traced_wall_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    return out


def stdout_mismatches(pairs: list[tuple[Pass, Pass]]) -> list[str]:
    """Queries whose traced stdout is not byte-identical to the untraced one."""
    return [
        u.query.key
        for plain, traced in pairs
        for u, t in zip(plain.outcomes, traced.outcomes)
        if u.problem is None and t.problem is None and u.stdout_digest != t.stdout_digest
    ]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(qs: list[Query], seconds: float, trace: bool):
    """Measure one run of ``qs``: the result object and report lines for a reader."""
    with Launcher(child_env()) as launcher:
        runner = Runner(launcher, checks.load_digests(), 0 if trace else SETUP_SAMPLES)
        return _bench(runner, qs, seconds, trace)


def _bench(runner: Runner, qs: list[Query], seconds: float, trace: bool):
    incorrect: list[str] = []
    if trace:
        pairs = repeat(seconds, lambda: runner.run_pair(qs))
        outcomes = [o for pair in pairs for p in pair for o in p.outcomes]
        metrics, units = per_layer(pairs), LAYER_UNITS
        incorrect += [f"traced stdout differs: {key}" for key in stdout_mismatches(pairs)]
        notes = {}
        n_passes = len(pairs)
    else:
        runner.setup_sample()  # warm-up; also fails early if localmass does not import
        passes = repeat(seconds, lambda: runner.run_pass(qs))
        while len(runner.setup) < runner.setup_target:
            runner.setup.append(runner.setup_sample())
        setup = runner.setup
        outcomes = [o for p in passes for o in p.outcomes]
        metrics, units = end_to_end(setup, passes), E2E_UNITS
        notes = {
            "setup_s": f"median of {len(setup)} interpreter starts",
            "query_p50_s": f"upper median over n={len(qs)} queries of each one's median over {len(passes)} passes",
        }
        n_passes = len(passes)
    failed = [o for o in outcomes if o.problem is not None]
    incorrect += [f"{o.query.key}: {o.problem}" for o in failed if not o.known]
    lines = [f"passes {n_passes}  queries per pass {len(qs)}"]
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}{note}")
    lines.append(
        f"  {'fail_ratio':<44} {len(failed) / len(outcomes):>14.6g} 1"
        f"  ({len(failed)} failed of {len(outcomes)} attempted,"
        f" {sum(o.known for o in failed)} of them known failures)"
    )
    lines += [f"  [known {o.query.known_failure}] {o.query.key}: {o.problem}" for o in failed if o.known]
    lines += [f"  [INCORRECT] {line}" for line in incorrect]
    result = {
        "correct": not incorrect,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name not in PRINTED_ONLY
        },
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not CLI.is_file():
        print(f"error: {CLI.relative_to(ROOT)} not found; run from a localmass checkout", file=sys.stderr)
        return 2
    result, lines = bench(queries(args.workload, args.seed), args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  " + lines[0])
    print("\n".join(lines[1:]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
