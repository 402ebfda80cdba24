"""Record the stdout digest of every query the workloads can produce.

Usage, from the root of a checkout: ``python3 perfbench/record.py``.  Runs
each query once, sequentially, and rewrites ``digests.json``.  A query that
fails is left out of the file; the run then lists it and exits 1 unless it
fails as ``workloads.KNOWN_FAILURES`` records.  Run it only at a commit whose
outputs are known to be right: the digests are the reference every later
benchmark run compares against.
"""

from __future__ import annotations

import json
import sys

import checks
from run import QUERY_TIMEOUT_S, Launcher, child_env
from workloads import every_query


def main() -> int:
    digests, unexpected = {}, []
    pool = every_query()
    with Launcher(child_env()) as launcher:
        for i, query in enumerate(pool, 1):
            done = launcher.spawn([sys.executable, "-m", "localmass.cli", *query.argv], QUERY_TIMEOUT_S)
            problem, known = checks.problem(query, done.status, done.stdout, done.stderr, {})
            if problem is None:
                digests[query.key] = checks.digest(done.stdout)
            elif not known:
                unexpected.append(f"{query.key}: {problem}")
            print(f"[{i}/{len(pool)}] {done.wall_s:6.2f}s {problem or 'ok'}  {query.key}", file=sys.stderr)
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    for line in unexpected:
        print(f"unexpected failure: {line}")
    print(f"recorded {len(digests)} digests of {len(pool)} queries")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
