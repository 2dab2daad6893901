"""Backend sweep: the in-memory engine against SQLite and the paged disk tier.

For every workload dataset the full statement mix the differential
harness compares (top-k semantic interpretations plus the SQAK baseline
statements — see ``repro.backends.differential``) is executed end to end
on each backend, best-of-N per backend, with the memory backend timed
once as the reference.  Two ratios come out of it, both relative to the
machine because every backend runs in the same process on the same data
and statements:

* ``<dataset>.sqlite_ratio`` — sqlite_ms / memory_ms: the compiled
  executor against round-tripping SQL text through SQLite;
* ``<dataset>.disk_ratio`` — disk_ms / memory_ms: the same compiled
  plans with only the storage tier underneath swapped (page decode and
  buffer-pool bookkeeping on every access), which splits execution time
  into its CPU and storage parts.

The disk tier runs on ``DISK_DATASETS`` with a pool small enough that
TPC-H does not fit resident, so the sweep exercises eviction and
write-back.  Alongside the mix, materialization is timed (heap files,
B+-trees, hash indexes and the SPIMI text index for the whole database)
and the pool's hit rate is recorded — a pool thrashing its way through
the mix shows up there long before raw latency moves.

Asserted before any timing means anything (a benchmark of disagreeing
backends measures nothing):

* memory, SQLite and disk return canonically equal rows for every
  statement (a re-statement of ``python -m repro diff --backend disk``);
* the pool's page budget held (``DiskBackend.execute`` raises otherwise);
* the mix is non-empty for every dataset.

Run it with ``python benchmarks/bench_backends.py``; the runner,
baseline and refresh procedure are described in ``check_regression.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gates import Gate  # noqa: E402
from repro.backends import DiskBackend, MemoryBackend, SqliteBackend  # noqa: E402
from repro.backends.differential import collect_statements  # noqa: E402
from repro.backends.normalize import canonical_rows  # noqa: E402

DATASETS = ("university", "tpch", "tpch-unnorm", "acmdl", "acmdl-unnorm")
DISK_DATASETS = ("university", "tpch", "acmdl")
REPEATS = 3  # best-of-N to shed scheduler noise

#: pool small enough that the workload datasets do not fit resident,
#: so the sweep actually exercises eviction and write-back
POOL_CAPACITY = 64
PAGE_SIZE = 2048

# the memory backend (compiled plans, hash joins, plan cache) must never
# be slower than round-tripping SQL text through SQLite by more than
# this factor on any workload — if it is, the executor has regressed
MAX_MEMORY_VS_SQLITE = 5.0

# the disk backend pays for page decode + pool bookkeeping on every
# access; it must still stay within this factor of the in-memory
# engine on every workload mix, or the storage tier has regressed
MAX_DISK_VS_MEMORY = 60.0

# for a dataset that fits in the pool, a repeated statement mix must be
# served mostly from resident frames; datasets larger than the pool are
# exempt — repeated sequential scans under LRU legitimately miss (the
# classic sequential-flooding pattern), and the ratio gate covers them
MIN_HIT_RATE = 0.50

GATES = tuple(
    gate
    for dataset in DATASETS
    for gate in (
        Gate(
            f"{dataset}.sqlite_ratio",
            ">=",
            1.0 / MAX_MEMORY_VS_SQLITE,
            why=f"memory backend over {MAX_MEMORY_VS_SQLITE:g}x slower than SQLite",
        ),
        Gate(
            f"{dataset}.sqlite_ratio",
            ">=",
            0.5,
            drift="*",
            why="memory backend regressed vs SQLite",
        ),
    )
) + tuple(
    gate
    for dataset in DISK_DATASETS
    for gate in (
        Gate(
            f"{dataset}.disk_ratio",
            "<=",
            MAX_DISK_VS_MEMORY,
            why=f"disk backend over {MAX_DISK_VS_MEMORY:g}x slower than memory",
        ),
        Gate(
            f"{dataset}.hit_rate",
            ">=",
            MIN_HIT_RATE,
            when=f"{dataset}.fits_pool",
            why="the pool is thrashing",
        ),
        Gate(
            f"{dataset}.max_resident",
            "<=",
            POOL_CAPACITY,
            why="resident frames exceeded the page budget",
        ),
        Gate(
            f"{dataset}.disk_ratio",
            "<=",
            1.5,
            drift="*",
            why="disk backend regressed vs memory",
        ),
        Gate(
            f"{dataset}.hit_rate",
            ">=",
            -0.10,
            drift="+",
            why="buffer pool hit rate fell",
        ),
    )
)


def _time_mix(backend, statements) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _qid, _source, select in statements:
            backend.execute(select)
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> Dict[str, float]:
    """Per-dataset memory/SQLite/disk latency, materialization, hit rate."""
    metrics: Dict[str, float] = {}
    for dataset in DATASETS:
        database, statements = collect_statements(dataset)
        assert statements, f"{dataset}: empty statement mix"
        memory = MemoryBackend()
        memory.load(database)
        sqlite = SqliteBackend()
        sqlite.load(database)
        disk = None
        if dataset in DISK_DATASETS:
            disk = DiskBackend(pool_capacity=POOL_CAPACITY, page_size=PAGE_SIZE)
        try:
            if disk is not None:
                start = time.perf_counter()
                disk.load(database)
                metrics[f"{dataset}.materialize_ms"] = (
                    time.perf_counter() - start
                ) * 1000.0
            # correctness first (and this warms every backend for the timing)
            for qid, source, select in statements:
                fast = canonical_rows(memory.execute(select).rows)
                oracle = canonical_rows(sqlite.execute(select).rows)
                assert fast == oracle, f"{dataset} {qid} [{source}]: sqlite disagrees"
                if disk is not None:
                    paged = canonical_rows(disk.execute(select).rows)
                    assert fast == paged, f"{dataset} {qid} [{source}]: disk disagrees"
            # disk is timed right after memory: its ratio has the tighter
            # drift bound, and the host's speed drifts less between
            # adjacent timings
            memory_s = _time_mix(memory, statements)
            metrics[f"{dataset}.statements"] = len(statements)
            metrics[f"{dataset}.memory_ms"] = memory_s * 1000.0
            if disk is not None:
                disk_s = _time_mix(disk, statements)
                counters = disk.pool_counters()
                totals = disk.storage_manifest()["totals"]
                accesses = counters["hits"] + counters["misses"]
                metrics[f"{dataset}.disk_ms"] = disk_s * 1000.0
                metrics[f"{dataset}.disk_ratio"] = (
                    disk_s / memory_s if memory_s else float("inf")
                )
                metrics[f"{dataset}.pages"] = totals["pages"]
                metrics[f"{dataset}.rows"] = totals["rows"]
                metrics[f"{dataset}.fits_pool"] = float(
                    totals["pages"] <= POOL_CAPACITY
                )
                metrics[f"{dataset}.hit_rate"] = (
                    counters["hits"] / accesses if accesses else 1.0
                )
                metrics[f"{dataset}.max_resident"] = counters["max_resident"]
            sqlite_s = _time_mix(sqlite, statements)
            metrics[f"{dataset}.sqlite_ms"] = sqlite_s * 1000.0
            metrics[f"{dataset}.sqlite_ratio"] = (
                sqlite_s / memory_s if memory_s else float("inf")
            )
        finally:
            sqlite.close()
            if disk is not None:
                disk.close()
    return metrics


if __name__ == "__main__":
    from check_regression import main

    raise SystemExit(main(["backends"]))
