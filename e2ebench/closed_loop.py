"""warm-mix and disk-mix: one in-process client, closed loop.

Each pass runs the paper's 16 evaluation queries (T1-T8, A1-A8) against
TPC-H and ACMDL, normalized and §4.1-unnormalized: 32 operations, each
``engine.search(text).best.execute()``, in an order drawn from the seed.
warm-mix runs on the memory backend at scale factor 4; disk-mix on the
disk backend, with its default 64-frame buffer pool, at scale factor 1.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import KeywordSearchEngine

from common import (
    DATABASES,
    SETUP_REPS,
    LayerReadings,
    Metrics,
    Oracle,
    Outcome,
    build_engines,
    check_closure,
    close_engines,
    pattern_counters,
    peak_rss_mb,
    percentile,
    ratio,
    setup_metrics,
    zero_service_metrics,
    zero_storage_metrics,
)
from data import DatasetSpec, clone_specs, paper_databases
from layers import REQUEST_PATH, SETUP_PATH, LayerTracer


@dataclass(frozen=True)
class ClosedLoop:
    scale_factor: float
    backend: str


CLOSED_LOOPS = {
    "warm-mix": ClosedLoop(scale_factor=4, backend="memory"),
    "disk-mix": ClosedLoop(scale_factor=1, backend="disk"),
}

Record = Tuple[int, Any, Any]  # (database index, best interpretation, answer)


class Mix:
    """The 32 (database index, text) operations and the seeded order of
    each pass over them."""

    def __init__(self, specs: Sequence[DatasetSpec], seed: int) -> None:
        self.specs = specs
        self.operations = [
            (index, text) for index, spec in enumerate(specs) for text in spec.queries
        ]
        self._rng = random.Random(seed)

    def next_order(self) -> List[int]:
        order = list(range(len(self.operations)))
        self._rng.shuffle(order)
        return order


def _run_pass(
    engines: Sequence[KeywordSearchEngine],
    mix: Mix,
    outcome: Outcome,
    records: List[Record],
    tracer: Optional[LayerTracer] = None,
    readings: Optional[LayerReadings] = None,
) -> Dict[int, float]:
    """One pass over the mix: latency (ms) per operation that answered."""
    clock = time.perf_counter
    latencies: Dict[int, float] = {}
    for position in mix.next_order():
        index, text = mix.operations[position]
        name = mix.specs[index].name
        engine = engines[index]
        if readings is not None:
            readings.current_db = name
            generated_before = readings.generated
        began = clock()
        try:
            if tracer is not None:
                with tracer.operation():
                    result = engine.search(text)
                    best = result.best
                    answer = best.execute()
            else:
                result = engine.search(text)
                best = result.best
                answer = best.execute()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.attempted += 1
            outcome.failed += 1
            outcome.notes.append(f"{name}: {text!r}: {exc!r}")
            continue
        latencies[position] = (clock() - began) * 1000.0
        outcome.attempted += 1
        if readings is not None:
            readings.note_kept(generated_before, len(result.interpretations))
        records.append((index, best, answer))
    return latencies


def _check(
    records: List[Record], mix: Mix, oracle: Oracle, outcome: Outcome
) -> None:
    """Check the answers of the passes since the last check, between
    passes (no latency is being timed), then drop them."""
    for index, best, answer in records:
        name = mix.specs[index].name
        if not oracle.matches(name, best.sql_compact, best.select, answer.rows):
            outcome.failed += 1
            outcome.invalid(f"{name}: wrong answer for {best.sql_compact}")
    records.clear()


def _end_to_end(passes: Sequence[Dict[int, float]]) -> Tuple[float, float, float]:
    """(p50, p95, throughput) from each operation's fastest run.

    A shared machine's speed drifts by tens of percent for 10-30 s at a time,
    often longer than a run; an operation's fastest latency over the run
    (as ``timeit`` takes it) is what repeats between runs.  p50 and p95
    are over the 32 operations; throughput is operations per second of a
    pass made of those fastest runs."""
    best: Dict[int, float] = {}
    for latencies in passes:
        for position, latency in latencies.items():
            best[position] = min(latency, best.get(position, latency))
    values = list(best.values())
    return (
        percentile(values, 50),
        percentile(values, 95),
        ratio(len(values), sum(values) / 1000.0),
    )


def run_closed_loop(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Outcome:
    config = CLOSED_LOOPS[workload]
    outcome = Outcome()
    base = paper_databases(config.scale_factor)
    setup_tracer = LayerTracer(SETUP_PATH) if trace else None
    setup_times = []
    engines: List[KeywordSearchEngine] = []
    specs: List[DatasetSpec] = []
    for rep in range(1 if trace else SETUP_REPS):
        close_engines(engines)
        # free and collect the last repetition first, so each one's
        # garbage collections scan the same heap
        engines, specs = [], []
        gc.collect()
        specs = clone_specs(base)
        repdir = os.path.join(workdir, f"setup-{rep}")
        began = time.perf_counter()
        if setup_tracer is not None:
            with setup_tracer:
                engines = build_engines(specs, config.backend, repdir)
        else:
            engines = build_engines(specs, config.backend, repdir)
        setup_times.append(time.perf_counter() - began)
    mix = Mix(specs, seed)
    oracle = Oracle(specs)
    records: List[Record] = []
    try:
        # warm-up: fill the pattern and plan caches, the lazy per-column
        # hash indexes and (on disk) the disk executor's statistics; the
        # workload measures the warm path
        _run_pass(engines, mix, outcome, records)
        _check(records, mix, oracle, outcome)
        if trace:
            assert setup_tracer is not None
            outcome.metrics.update(setup_metrics(setup_tracer))
            outcome.metrics.update(
                _traced(engines, mix, seconds, outcome, records, oracle)
            )
        else:
            passes: List[Dict[int, float]] = []
            deadline = time.perf_counter() + seconds
            while not passes or time.perf_counter() < deadline:
                passes.append(_run_pass(engines, mix, outcome, records))
                _check(records, mix, oracle, outcome)
            p50, p95, throughput = _end_to_end(passes)
            outcome.metrics = {
                "latency_p50_ms": (p50, "ms"),
                "latency_p95_ms": (p95, "ms"),
                "throughput_qps": (throughput, "1/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MiB"),
            }
    finally:
        close_engines(engines)
        oracle.close()
    if trace:
        outcome.metrics["error_ratio"] = (
            ratio(outcome.failed, outcome.attempted),
            "ratio",
        )
        check_closure(outcome)
    return outcome


def _traced(
    engines: Sequence[KeywordSearchEngine],
    mix: Mix,
    seconds: float,
    outcome: Outcome,
    records: List[Record],
    oracle: Oracle,
) -> Metrics:
    """Passes alternating untraced and traced for *seconds*, so the
    machine's drifting speed touches both sides of the overhead ratio."""
    specs = mix.specs
    tracer = LayerTracer(REQUEST_PATH)
    readings = LayerReadings(tracer)
    disk = [e.backend if e.backend.name == "disk" else None for e in engines]
    pool_deltas: List[Dict[str, int]] = [{} for _ in engines]
    ops_per_db = {name: 0 for name in DATABASES}
    pattern_hits = pattern_lookups = 0
    untraced: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.extend(_run_pass(engines, mix, outcome, records).values())
        _check(records, mix, oracle, outcome)
        before = [b.pool_counters() if b is not None else {} for b in disk]
        hits_before, misses_before = pattern_counters(engines)
        with tracer:
            latencies = _run_pass(engines, mix, outcome, records, tracer, readings)
        traced.extend(latencies.values())
        hits_after, misses_after = pattern_counters(engines)
        pattern_hits += hits_after - hits_before
        pattern_lookups += hits_after - hits_before + misses_after - misses_before
        for index, _, _ in records:
            ops_per_db[specs[index].name] += 1
        _check(records, mix, oracle, outcome)
        for index, backend in enumerate(disk):
            if backend is None:
                continue
            after = backend.pool_counters()
            for key in ("hits", "misses", "evictions"):
                delta = after.get(key, 0) - before[index].get(key, 0)
                pool_deltas[index][key] = pool_deltas[index].get(key, 0) + delta
    metrics = readings.metrics()
    metrics["patterns.cache_hit_ratio"] = (
        ratio(pattern_hits, pattern_lookups),
        "ratio",
    )
    metrics.update(zero_service_metrics())
    metrics.update(zero_storage_metrics())
    for index, backend in enumerate(disk):
        if backend is None:
            continue
        name = specs[index].name
        ops = ops_per_db[name]
        delta = pool_deltas[index]
        metrics[f"storage.page_reads_per_query.{name}"] = (
            ratio(readings.page_reads[name], ops),
            "count",
        )
        metrics[f"storage.evictions_per_query.{name}"] = (
            ratio(delta["evictions"], ops),
            "count",
        )
        metrics[f"storage.pool_hit_ratio.{name}"] = (
            ratio(delta["hits"], delta["hits"] + delta["misses"]),
            "ratio",
        )
    metrics["trace.overhead_ratio"] = (
        ratio(percentile(traced, 50), percentile(untraced, 50)) - 1.0,
        "ratio",
    )
    return metrics
