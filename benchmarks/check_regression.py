"""Performance regression checks: compiled-plan speed and serving SLOs.

Independent gates share this module's measure/check idiom:

* **Compiled-plan speed** — end-to-end keyword search on the compiled
  physical plans (closure predicates, index-backed scans, plan caching —
  see ``docs/PERFORMANCE.md``) is timed against SQLite executing the same
  picked statements in the same process.  The rows must be canonically
  equal, and the ratio ``sqlite_ms / compiled_ms`` must not fall more
  than ``TOLERANCE`` below the ratio recorded in the committed baseline
  (``BENCH_scaling_baseline.json``).
* **Serving SLOs** — the query service's closed-loop load numbers
  (``bench_service.py``, swept over the worker-process tier) must hold
  the hard p95-ratio and scale-out guarantees and, per configuration,
  must not drift from the committed ``BENCH_service_baseline.json`` by
  more than ``SERVICE_RATIO_TOLERANCE`` (p95 ratio) /
  ``SERVICE_SHED_TOLERANCE`` (absolute shed rate at peak load) /
  ``SERVICE_THROUGHPUT_TOLERANCE`` (peak throughput-per-core).
* **Storage tier** — the paged disk backend (``bench_storage.py``) must
  hold its hard page-budget/ratio gates and, per dataset, must not let
  the disk/memory latency ratio drift more than
  ``STORAGE_RATIO_TOLERANCE`` above ``BENCH_storage_baseline.json`` nor
  the buffer-pool hit rate drop more than
  ``STORAGE_HIT_RATE_TOLERANCE`` below it.

The compiled-plan measurement is *relative* — both sides run in the same
process on the same data and statements, so the ratio is stable across
machines (and across a loaded host's speed swings) in a way raw timings
are not (the same trick ``check_overhead.py`` uses).  Each run writes its
numbers to ``BENCH_scaling.json`` next to this file; refresh the baseline
by copying that file over the committed one after an intentional
performance change.

Run standalone (``python benchmarks/check_regression.py``) or as part of
the bench suite (``pytest benchmarks/`` collects ``check_*.py`` via
``pyproject.toml``).
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.backends import SqliteBackend
from repro.backends.normalize import canonical_rows, rows_match
from repro.datasets import TpchConfig, generate_tpch
from repro.engine import KeywordSearchEngine
from repro.errors import ReproError
from repro.experiments import TPCH_QUERIES, pick_interpretation

TOLERANCE = 0.20  # allowed fraction of the baseline SQLite/compiled ratio to give back
_MIX_REPEATS = 3  # best-of-N to shed scheduler noise

LARGE = TpchConfig(seed=42, parts=320, suppliers=120, customers=240, orders=2400)

_HERE = Path(__file__).resolve().parent
RESULT_PATH = _HERE / "BENCH_scaling.json"
BASELINE_PATH = _HERE / "BENCH_scaling_baseline.json"


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


def measure() -> Dict[str, object]:
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
        "scale": "large",
        "queries": len(specs),
        "compiled_ms": compiled_s * 1000.0,
        "sqlite_ms": sqlite_s * 1000.0,
        "sqlite_ratio": sqlite_s / compiled_s if compiled_s else float("inf"),
        "mismatches": mismatches,
    }


def check(result: Dict[str, object]) -> List[str]:
    """Failure messages (empty when the check passes)."""
    failures: List[str] = []
    mismatches = list(result["mismatches"])
    if mismatches:
        failures.append(
            "compiled and SQLite results differ on " + ", ".join(mismatches)
        )
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH, encoding="utf-8") as handle:
            baseline = json.load(handle)
        ratio = float(result["sqlite_ratio"])
        floor = float(baseline["sqlite_ratio"]) * (1.0 - TOLERANCE)
        if ratio < floor:
            failures.append(
                f"compiled plans slowed relative to SQLite: sqlite/compiled "
                f"{ratio:.2f}x vs baseline {baseline['sqlite_ratio']:.2f}x "
                f"(floor {floor:.2f}x)"
            )
    return failures


def write_result(result: Dict[str, object]) -> None:
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_result(result: Dict[str, object]) -> str:
    return (
        f"large TPC-H, {result['queries']} queries/mix: "
        f"compiled {result['compiled_ms']:.1f} ms, "
        f"sqlite {result['sqlite_ms']:.1f} ms "
        f"-> sqlite/compiled {result['sqlite_ratio']:.2f}x"
    )


# ----------------------------------------------------------------------
# Serving-layer SLO regression (delegates measurement to bench_service)
# ----------------------------------------------------------------------
SERVICE_RATIO_TOLERANCE = 0.50  # allowed fractional growth of the w1 p95 ratio
SERVICE_SHED_TOLERANCE = 0.25  # allowed absolute shed-rate growth at peak
# allowed fractional drop of peak throughput-per-core per configuration:
# generous because closed-loop wall clocks on shared machines are noisy,
# but a real serving-layer regression (lost coalescing, broken memo,
# per-dispatch overhead) costs more than half the throughput
SERVICE_THROUGHPUT_TOLERANCE = 0.50

SERVICE_BASELINE_PATH = _HERE / "BENCH_service_baseline.json"


def _load_bench_service():
    spec = importlib.util.spec_from_file_location(
        "bench_service", _HERE / "bench_service.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_service() -> Dict[str, object]:
    """The closed-loop load numbers, via ``bench_service.measure()``."""
    return _load_bench_service().measure()


def check_service(result: Dict[str, object]) -> List[str]:
    """Hard SLOs plus drift against the committed service baseline.

    Per configuration (w1 / w2 / w4): the peak shed rate must not grow
    past the baseline by more than its tolerance, and peak
    **throughput-per-core** must not drop below
    ``1 - SERVICE_THROUGHPUT_TOLERANCE`` of the baseline — the drift
    gate for the worker-pool scale-out numbers.  The p95 ratio drifts
    only for ``w1``, mirroring the bench's own gate: pool configs keep
    requests queued at peak by design, so their admitted-p95 is a
    function of queue depth, not serving speed — throughput is their
    latency-honest signal."""
    bench_service = _load_bench_service()
    failures = bench_service.check(result)
    if SERVICE_BASELINE_PATH.exists():
        with open(SERVICE_BASELINE_PATH, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for name, config in result["configs"].items():
            base = baseline["configs"].get(name)
            if base is None:
                continue
            ratio = float(config["p95_ratio_at_peak"])
            ceiling = float(base["p95_ratio_at_peak"]) * (
                1.0 + SERVICE_RATIO_TOLERANCE
            )
            if name == "w1" and ratio > ceiling:
                failures.append(
                    f"{name}: service p95 ratio regressed: {ratio:.2f}x vs "
                    f"baseline {base['p95_ratio_at_peak']:.2f}x "
                    f"(ceiling {ceiling:.2f}x)"
                )
            shed = float(config["shed_rate_at_peak"])
            shed_ceiling = (
                float(base["shed_rate_at_peak"]) + SERVICE_SHED_TOLERANCE
            )
            if shed > shed_ceiling:
                failures.append(
                    f"{name}: service shed rate at peak regressed: "
                    f"{shed:.0%} vs baseline {base['shed_rate_at_peak']:.0%} "
                    f"(ceiling {shed_ceiling:.0%})"
                )
            per_core = float(config["throughput_per_core_at_peak_rps"])
            floor = float(base["throughput_per_core_at_peak_rps"]) * (
                1.0 - SERVICE_THROUGHPUT_TOLERANCE
            )
            if per_core < floor:
                failures.append(
                    f"{name}: peak throughput-per-core regressed: "
                    f"{per_core:.0f} rps/core vs baseline "
                    f"{base['throughput_per_core_at_peak_rps']:.0f} rps/core "
                    f"(floor {floor:.0f})"
                )
    return failures


# ----------------------------------------------------------------------
# Backend latency regression (delegates measurement to bench_backends)
# ----------------------------------------------------------------------
# allowed fractional drop of the sqlite/memory latency ratio per dataset:
# the ratio falling means the memory backend got slower relative to the
# SQLite oracle on the same statements, data and machine
BACKENDS_RATIO_TOLERANCE = 0.50

BACKENDS_BASELINE_PATH = _HERE / "BENCH_backends_baseline.json"


def _load_bench_backends():
    spec = importlib.util.spec_from_file_location(
        "bench_backends", _HERE / "bench_backends.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_backends() -> Dict[str, object]:
    """Per-dataset backend latencies, via ``bench_backends.measure()``."""
    return _load_bench_backends().measure()


def check_backends(result: Dict[str, object]) -> List[str]:
    """Hard agreement/ratio gates plus drift against the baseline."""
    bench_backends = _load_bench_backends()
    failures = bench_backends.check(result)
    if BACKENDS_BASELINE_PATH.exists():
        with open(BACKENDS_BASELINE_PATH, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for dataset, numbers in result["datasets"].items():
            base = baseline["datasets"].get(dataset)
            if base is None:
                continue
            ratio = float(numbers["ratio"])
            floor = float(base["ratio"]) * (1.0 - BACKENDS_RATIO_TOLERANCE)
            if ratio < floor:
                failures.append(
                    f"{dataset}: memory backend regressed vs SQLite: ratio "
                    f"{ratio:.2f} vs baseline {base['ratio']:.2f} "
                    f"(floor {floor:.2f})"
                )
    return failures


# ----------------------------------------------------------------------
# Storage-tier regression (delegates measurement to bench_storage)
# ----------------------------------------------------------------------
# allowed fractional growth of the disk/memory latency ratio per
# dataset: the ratio growing means the paged storage tier got slower
# relative to the in-memory engine on the same plans, data and machine
STORAGE_RATIO_TOLERANCE = 0.50
# allowed absolute drop of the buffer-pool hit rate per dataset
STORAGE_HIT_RATE_TOLERANCE = 0.10

STORAGE_BASELINE_PATH = _HERE / "BENCH_storage_baseline.json"


def _load_bench_storage():
    spec = importlib.util.spec_from_file_location(
        "bench_storage", _HERE / "bench_storage.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_storage() -> Dict[str, object]:
    """Per-dataset disk-vs-memory numbers, via ``bench_storage.measure()``."""
    return _load_bench_storage().measure()


def check_storage(result: Dict[str, object]) -> List[str]:
    """Hard budget/ratio gates plus drift against the baseline."""
    bench_storage = _load_bench_storage()
    failures = bench_storage.check(result)
    if STORAGE_BASELINE_PATH.exists():
        with open(STORAGE_BASELINE_PATH, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for dataset, numbers in result["datasets"].items():
            base = baseline["datasets"].get(dataset)
            if base is None:
                continue
            ratio = float(numbers["ratio"])
            ceiling = float(base["ratio"]) * (1.0 + STORAGE_RATIO_TOLERANCE)
            if ratio > ceiling:
                failures.append(
                    f"{dataset}: disk backend regressed vs memory: ratio "
                    f"{ratio:.2f} vs baseline {base['ratio']:.2f} "
                    f"(ceiling {ceiling:.2f})"
                )
            hit_rate = float(numbers["hit_rate"])
            floor = float(base["hit_rate"]) - STORAGE_HIT_RATE_TOLERANCE
            if hit_rate < floor:
                failures.append(
                    f"{dataset}: buffer pool hit rate fell to "
                    f"{hit_rate:.2f} vs baseline {base['hit_rate']:.2f} "
                    f"(floor {floor:.2f})"
                )
    return failures


# ----------------------------------------------------------------------
# Plan-quality regression (delegates measurement to bench_planner)
# ----------------------------------------------------------------------
# allowed fractional growth of the optimizer-on/heuristic total ratio:
# the ratio growing means the cost-based planner got slower relative to
# the size-only greedy on the same workload, data and machine
PLANNER_RATIO_TOLERANCE = 0.50
# allowed fractional drop of the >=4-relation subset speedup: losing it
# means the DP search stopped finding the plans the greedy misses
PLANNER_SPEEDUP_TOLERANCE = 0.35
# allowed absolute growth of the median cardinality q-error: estimates
# drifting here means the statistics or selectivity model regressed
PLANNER_Q_ERROR_TOLERANCE = 1.0

PLANNER_BASELINE_PATH = _HERE / "BENCH_planner_baseline.json"


def _load_bench_planner():
    spec = importlib.util.spec_from_file_location(
        "bench_planner", _HERE / "bench_planner.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_planner() -> Dict[str, object]:
    """The plan-quality sweep numbers, via ``bench_planner.measure()``."""
    return _load_bench_planner().measure()


def check_planner(result: Dict[str, object]) -> List[str]:
    """Hard plan-quality gates plus drift against the baseline."""
    bench_planner = _load_bench_planner()
    failures = bench_planner.check(result)
    if PLANNER_BASELINE_PATH.exists():
        with open(PLANNER_BASELINE_PATH, encoding="utf-8") as handle:
            baseline = json.load(handle)
        ratio = float(result["total_ratio"])
        ceiling = float(baseline["total_ratio"]) * (
            1.0 + PLANNER_RATIO_TOLERANCE
        )
        if ratio > ceiling:
            failures.append(
                f"planner total ratio regressed: {ratio:.2f} vs baseline "
                f"{baseline['total_ratio']:.2f} (ceiling {ceiling:.2f})"
            )
        speedup = float(result["big_join_speedup"])
        floor = float(baseline["big_join_speedup"]) * (
            1.0 - PLANNER_SPEEDUP_TOLERANCE
        )
        if speedup < floor:
            failures.append(
                f"big-join speedup regressed: {speedup:.2f}x vs baseline "
                f"{baseline['big_join_speedup']:.2f}x (floor {floor:.2f}x)"
            )
        q_error = float(result["median_q_error"])
        q_ceiling = (
            float(baseline["median_q_error"]) + PLANNER_Q_ERROR_TOLERANCE
        )
        if q_error > q_ceiling:
            failures.append(
                f"median q-error regressed: {q_error:.2f} vs baseline "
                f"{baseline['median_q_error']:.2f} (ceiling {q_ceiling:.2f})"
            )
    return failures


# ----------------------------------------------------------------------
# pytest wiring (collected by `pytest benchmarks/`)
# ----------------------------------------------------------------------
def test_compiled_vs_sqlite_no_regression():
    result = measure()
    write_result(result)
    failures = check(result)
    assert not failures, "; ".join(failures) + " | " + format_result(result)


def test_backends_no_regression():
    bench_backends = _load_bench_backends()
    result = measure_backends()
    bench_backends.write_result(result)
    failures = check_backends(result)
    assert not failures, "; ".join(failures) + "\n" + bench_backends.format_result(
        result
    )


def test_storage_no_regression():
    bench_storage = _load_bench_storage()
    result = measure_storage()
    bench_storage.write_result(result)
    failures = check_storage(result)
    assert not failures, "; ".join(failures) + "\n" + bench_storage.format_result(
        result
    )


def test_planner_no_regression():
    bench_planner = _load_bench_planner()
    result = measure_planner()
    bench_planner.write_result(result)
    failures = check_planner(result)
    assert not failures, "; ".join(failures) + "\n" + bench_planner.format_result(
        result
    )


def test_service_slo_no_regression():
    bench_service = _load_bench_service()
    result = measure_service()
    bench_service.write_result(result)
    failures = check_service(result)
    assert not failures, "; ".join(failures) + "\n" + bench_service.format_result(
        result
    )


def main() -> int:
    bench_service = _load_bench_service()
    result = measure()
    write_result(result)
    print(format_result(result))
    print(f"wrote {RESULT_PATH}")
    failures = check(result)
    bench_backends = _load_bench_backends()
    backends_result = measure_backends()
    bench_backends.write_result(backends_result)
    print(bench_backends.format_result(backends_result))
    print(f"wrote {bench_backends.RESULT_PATH}")
    failures.extend(check_backends(backends_result))
    bench_storage = _load_bench_storage()
    storage_result = measure_storage()
    bench_storage.write_result(storage_result)
    print(bench_storage.format_result(storage_result))
    print(f"wrote {bench_storage.RESULT_PATH}")
    failures.extend(check_storage(storage_result))
    bench_planner = _load_bench_planner()
    planner_result = measure_planner()
    bench_planner.write_result(planner_result)
    print(bench_planner.format_result(planner_result))
    print(f"wrote {bench_planner.RESULT_PATH}")
    failures.extend(check_planner(planner_result))
    service_result = measure_service()
    bench_service.write_result(service_result)
    print(bench_service.format_result(service_result))
    print(f"wrote {bench_service.RESULT_PATH}")
    failures.extend(check_service(service_result))
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
