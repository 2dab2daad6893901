"""Compiled-plan speed: end-to-end keyword search against SQLite.

End-to-end keyword search on the compiled physical plans (closure
predicates, index-backed scans, plan caching — see
``docs/PERFORMANCE.md``) is timed on the large TPC-H scale against SQLite
executing the same picked statements in the same process.  The rows must
be canonically equal, and the ratio ``sqlite_ms / compiled_ms`` must not
fall more than 20% below the committed baseline.

The measurement is *relative* — both sides run in the same process on
the same data and statements, so the ratio is stable across machines
(and across a loaded host's speed swings) in a way raw timings are not
(the same trick ``check_overhead.py`` uses).

Run it with ``python benchmarks/bench_compiled.py``; the runner,
baseline and refresh procedure are described in ``check_regression.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gates import Gate  # noqa: E402
from repro.backends import SqliteBackend  # noqa: E402
from repro.backends.normalize import canonical_rows, rows_match  # noqa: E402
from repro.datasets import TpchConfig, generate_tpch  # noqa: E402
from repro.engine import KeywordSearchEngine  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.experiments import TPCH_QUERIES, pick_interpretation  # noqa: E402

_MIX_REPEATS = 3  # best-of-N to shed scheduler noise

LARGE = TpchConfig(seed=42, parts=320, suppliers=120, customers=240, orders=2400)

GATES = (
    Gate("mismatches", "<=", 0, why="compiled and SQLite results differ"),
    Gate(
        "sqlite_ratio",
        ">=",
        0.80,
        drift="*",
        why="compiled plans slowed relative to SQLite",
    ),
)


def _query_mix(engine: KeywordSearchEngine) -> List:
    specs = []
    for spec in TPCH_QUERIES:
        try:
            engine.compile(spec.text)
        except ReproError:
            continue
        specs.append(spec)
    return specs


def _run_mix(engine: KeywordSearchEngine, specs) -> None:
    """One end-to-end pass: search + pick + execute every query."""
    for spec in specs:
        interpretations = engine.compile(spec.text)
        chosen = pick_interpretation(interpretations, spec)
        chosen.execute()


def _best_of(run: Callable[[], None]) -> float:
    best = float("inf")
    for _ in range(_MIX_REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> Dict[str, float]:
    """Time compiled keyword search against SQLite on the same statements.

    The compiled side is the end-to-end mix (search + pick + execute); the
    SQLite side executes the statements that mix picks.  Both are warmed
    first (pattern caches, plan cache, indexes, SQLite's page cache): the
    scenario is repeated query traffic against loaded data.
    """
    engine = KeywordSearchEngine(generate_tpch(LARGE))
    specs = _query_mix(engine)
    assert specs, "no runnable TPC-H experiment queries"
    picked = [
        (spec.qid, pick_interpretation(engine.compile(spec.text), spec).select)
        for spec in specs
    ]
    sqlite = SqliteBackend()
    sqlite.load(engine.database)
    try:
        # results must agree before timings mean anything
        mismatches = [
            qid
            for qid, select in picked
            if not rows_match(
                canonical_rows(engine.executor.execute(select).rows),
                canonical_rows(sqlite.execute(select).rows),
            )
        ]

        def sqlite_mix() -> None:
            for _, select in picked:
                sqlite.execute(select)

        _run_mix(engine, specs)  # warm both sides once more before timing
        sqlite_mix()
        compiled_s = _best_of(lambda: _run_mix(engine, specs))
        sqlite_s = _best_of(sqlite_mix)
    finally:
        sqlite.close()
    return {
        "queries": len(specs),
        "compiled_ms": compiled_s * 1000.0,
        "sqlite_ms": sqlite_s * 1000.0,
        "sqlite_ratio": sqlite_s / compiled_s if compiled_s else float("inf"),
        "mismatches": len(mismatches),
    }


if __name__ == "__main__":
    from check_regression import main

    raise SystemExit(main(["compiled"]))
