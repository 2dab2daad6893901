"""Scaling behaviour beyond the paper: end-to-end query time vs data size.

The paper fixes one dataset per schema; this bench sweeps the TPC-H
generator's scale to show how compile time (schema-bound, flat) and
execution time (data-bound, growing) separate — the observation behind the
paper's claim that SQL generation overhead is negligible.
"""

from __future__ import annotations

import pytest

from repro.backends import SqliteBackend
from repro.backends.normalize import canonical_rows, rows_match
from repro.datasets import TpchConfig, generate_tpch
from repro.engine import KeywordSearchEngine
from repro.experiments import TPCH_QUERIES, pick_interpretation, spec_by_id

SCALES = {
    "small": TpchConfig(seed=42, parts=80, suppliers=30, customers=60, orders=300),
    "medium": TpchConfig(seed=42),
    "large": TpchConfig(
        seed=42, parts=320, suppliers=120, customers=240, orders=2400
    ),
}

T6 = spec_by_id("T6")


@pytest.fixture(scope="module")
def engines():
    return {
        name: KeywordSearchEngine(generate_tpch(config))
        for name, config in SCALES.items()
    }


@pytest.mark.parametrize("scale", list(SCALES), ids=list(SCALES))
def test_compile_time_is_schema_bound(benchmark, scale, engines):
    """SQL generation touches the schema graph, not the data: compile time
    must stay flat across scales."""
    engine = engines[scale]
    interpretations = benchmark(lambda: engine.compile(T6.text))
    assert interpretations
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["rows"] = sum(engine.database.row_counts().values())


@pytest.mark.parametrize("scale", list(SCALES), ids=list(SCALES))
def test_execution_time_grows_with_data(benchmark, scale, engines):
    """Warm compiled-plan execution of T6; the answer must equal the SQLite
    backend's canonical row multiset for the same Select."""
    engine = engines[scale]
    chosen = pick_interpretation(engine.compile(T6.text), T6)
    select = chosen.select
    result = benchmark(lambda: engine.executor.execute(select))
    assert len(result) > 0
    sqlite = SqliteBackend()
    sqlite.load(engine.database)
    try:
        expected = sqlite.execute(select).rows
    finally:
        sqlite.close()
    assert rows_match(canonical_rows(result.rows), canonical_rows(expected))
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["suppliers"] = len(result)


def test_search_many_batch(benchmark, engines):
    """Warm-cache batch search over the experiment query mix."""
    engine = engines["large"]
    texts = [spec.text for spec in TPCH_QUERIES] * 2
    engine.search_many(texts, parallel=4)  # warm the caches
    results = benchmark(lambda: engine.search_many(texts, parallel=4))
    assert len(results) == len(texts)
