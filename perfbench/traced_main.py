"""Run one ``localmass`` CLI query with the package's public functions traced.

Usage: ``python3 traced_main.py <query id> <argv...>`` with ``src`` on
PYTHONPATH and file descriptor 3 open for writing.

The functions named in ``SPANS`` and ``COUNTERS`` are wrapped in every
``localmass`` namespace that holds them, so calls through ``from .x import f``
bindings are seen too; then ``localmass.cli.main(argv)`` runs and its stdout
is left untouched.  A span records name, start, end, parent and query id; the hot
helpers in ``COUNTERS`` only add to a call count and a summed time, which is
also charged to the innermost open span so that its self time excludes it.
Everything stays in memory and is written as one JSON document to file
descriptor 3 when the query ends.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from fractions import Fraction

clock = time.perf_counter

#: Layer boundaries recorded as spans, as ``module.function``.
SPANS = (
    "cli.main",
    "mass.char_contribution",
    "mass.char_contribution_truncated",
    "mass.per_character_contributions",
    "mass.total_mass",
    "mass.galois_closure_contribution",
    "mass.contribution_checksum",
    "mass.count_table",
    "model.layout",
    "oracle.oracle_mass",
    "oracle.enumerate_lines",
    "permgroup.transitive_family",
    "permgroup.subgroups_of_order",
    "permgroup.normalizer_of_cycle",
    "permgroup.verify_index_p_subgroups",
)

#: Helpers called too often for one span per call: counts and summed time.
COUNTERS = (
    "rationals.rat_pow",
    "rationals.geom_finite",
    "rationals.geom_infinite",
    "rationals.format_rational",
    "model.stratum_slot",
    "model.enumerate_characters",
    "model.is_prime",
    "permgroup.closure",
)


def _fractions(value):
    if isinstance(value, Fraction):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _fractions(item)


class Tracer:
    def __init__(self, query_id: str) -> None:
        self.query_id = query_id
        self.spans: list[list] = []  # [name, start, end, parent index, counter seconds, query id]
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.in_counter = False
        self.distinct: set = set()
        self.counts = {"mass.count_table.rows": 0, "model.layout.blocks": 0, "oracle.vectors": 0}
        self.bits = [0, 0]

    def span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, 0.0, self.query_id]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        stat = self.counters.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            stat[0] += 1
            if self.in_counter:  # time is charged to the outermost counted call
                return fn(*args, **kwargs)
            self.in_counter = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.in_counter = False
                stat[1] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][4] += elapsed

        return counted

    def record_bits(self, args, kwargs, result) -> None:
        for x in _fractions(result):
            self.bits[0] = max(self.bits[0], x.numerator.bit_length())
            self.bits[1] = max(self.bits[1], x.denominator.bit_length())

    def record_contribution(self, args, kwargs, result) -> None:
        field, chi = args[0], args[1] if len(args) > 1 else kwargs["chi"]
        self.distinct.add((field, chi.valuation, chi.distinguished))
        self.record_bits(args, kwargs, result)

    def after_hook(self, name: str, fn):
        """What to record from a span's arguments and result, besides time."""
        if name == "mass.char_contribution":
            return self.record_contribution
        if name == "mass.count_table":
            return lambda a, k, result: self._add("mass.count_table.rows", len(result))
        if name == "model.layout":
            return lambda a, k, result: self._add("model.layout.blocks", len(result.blocks))
        if name == "oracle.enumerate_lines":
            signature = inspect.signature(fn)
            from localmass.oracle import eigenspace_blocks

            def vectors(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                blocks = eigenspace_blocks(bound["field"], bound["chi"], bound["max_level"])
                self._add("oracle.vectors", bound["field"].p ** sum(b.dim for b in blocks))

            return vectors
        if name.startswith("mass."):
            return self.record_bits
        return None

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def install(self) -> None:
        """Replace each traced function in every localmass namespace holding it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "localmass"]
        for qualname in SPANS + COUNTERS:
            module, name = qualname.split(".")
            original = getattr(sys.modules[f"localmass.{module}"], name)
            if qualname in SPANS:
                wrapped = self.span(qualname, original, self.after_hook(qualname, original))
            else:
                wrapped = self.counter(qualname, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapped)

    def report(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "spans": self.spans,
            "counters": self.counters,
            "counts": dict(self.counts, **{"mass.char_contribution.distinct": len(self.distinct)}),
            "bits": self.bits,
        }


def main() -> None:
    query_id, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    import localmass.cli

    import_s = clock() - start
    tracer = Tracer(query_id)
    tracer.install()
    try:
        code = localmass.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    finally:
        sys.stdout.flush()
        with os.fdopen(3, "w") as out:
            json.dump(tracer.report(import_s), out)
    sys.exit(code)


if __name__ == "__main__":
    main()
