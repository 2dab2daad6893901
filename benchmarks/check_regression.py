"""The regression runner: measure each bench once, check its gate table.

Every regression bench is a module with a ``measure()`` that returns flat
dotted metrics and a ``GATES`` table (see ``gates.py``):

* ``compiled`` (``bench_compiled.py``) — end-to-end compiled keyword
  search against SQLite on the large TPC-H scale;
* ``backends`` (``bench_backends.py``) — the memory backend against
  SQLite and the paged disk tier on the differential statement mix;
* ``planner`` (``bench_planner.py``) — the cost-based optimizer against
  the size-only greedy, plus cardinality q-error;
* ``service`` (``bench_service.py``) — closed-loop serving SLOs over the
  worker-process tier.

A run writes its metrics to ``BENCH_result.json`` (not tracked) and
checks every gate against the committed ``BENCH_baseline.json``.  Both
files have one schema, ``{bench: {metric: value}}``.  A gate whose metric
or baseline value is missing fails.  Refresh a bench's baseline after an
intentional performance change by copying its section of
``BENCH_result.json`` over the same section of ``BENCH_baseline.json``,
and record the change in ``CHANGES.md``.

Run every bench with ``python benchmarks/check_regression.py``, one bench
by running its own file (``python benchmarks/bench_planner.py``), or all
of them as one test per bench with ``pytest benchmarks/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

import bench_backends
import bench_compiled
import bench_planner
import bench_service

BENCHES = {
    "compiled": bench_compiled,
    "backends": bench_backends,
    "planner": bench_planner,
    "service": bench_service,
}

_HERE = Path(__file__).resolve().parent
RESULT_PATH = _HERE / "BENCH_result.json"
BASELINE_PATH = _HERE / "BENCH_baseline.json"


def _read(path: Path) -> Dict[str, Dict[str, float]]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_baseline() -> Dict[str, Dict[str, float]]:
    return _read(BASELINE_PATH)


def run(names: Sequence[str]) -> List[str]:
    """Measure the named benches once each and print every gate's report.

    Returns the failure reports.  Each bench's metrics replace its section
    of ``BENCH_result.json`` as soon as they are measured; sections of
    benches not run are kept."""
    baseline = load_baseline()
    failures: List[str] = []
    for name in names:
        bench = BENCHES[name]
        result = bench.measure()
        results = _read(RESULT_PATH)
        results[name] = result
        with open(RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for gate in bench.GATES:
            passed, report = gate.evaluate(result, baseline.get(name, {}))
            print(f"{'ok  ' if passed else 'FAIL'} {name}: {report}")
            if not passed:
                failures.append(f"{name}: {report}")
    return failures


@pytest.mark.parametrize("name", list(BENCHES))
def test_no_regression(name):
    failures = run([name])
    assert not failures, "\n".join(failures)


def main(names: Optional[Sequence[str]] = None) -> int:
    failures = run(list(names or BENCHES))
    print(f"wrote {RESULT_PATH}")
    print(f"{len(failures)} gate(s) failed" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
