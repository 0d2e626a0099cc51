"""Print one value hash per driver query, as JSON, so two versions of the
engine can be diffed for "answers unchanged" with one command.

Usage: python tools/hash_queries.py SF_DIR > hashes.json

Every ``queries()`` entry runs, including those without a SQL oracle; its
output is normalised and hashed exactly as ``tools/check_oracles.py``
does (columns sorted by name, rows sorted, ``value_hash``).  A query that
raises is recorded as ``"raised <ExceptionType>"``.  Diff the files from
two checkouts (``diff a.json b.json``) to list the queries whose answers
moved.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from check_oracles import norm, to_pandas, value_hash  # noqa: E402


def main(sf_dir: str) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    out = {}
    for name, fn in e.queries().items():
        try:
            out[name] = value_hash(norm(to_pandas(fn(sf_dir))))
        except Exception as ex:  # noqa: BLE001
            out[name] = f"raised {type(ex).__name__}"
        print(f"{name}: {out[name]}", file=sys.stderr)
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    # Ray prints worker and raylet warnings to sys.stdout; keep them out
    # of the JSON
    with contextlib.redirect_stdout(sys.stderr):
        hashes = main(sys.argv[1])
        import ray

        ray.shutdown()
    print(json.dumps(hashes, indent=1, sort_keys=True))
