"""Pieces every workload shares: outcomes, percentiles, engines, the
sqlite oracle and the per-layer readings of a traced run.

One operation is one keyword query answered: every top-k interpretation
generated, the best one executed and its rows returned — the work
``semantic_search_payload`` does for a service request.  Answers are
checked outside the timed intervals against the ``sqlite`` backend
through ``repro.backends.normalize``.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import create_backend
from repro.backends.normalize import rows_match
from repro.engine import KeywordSearchEngine

from data import DatasetSpec
from layers import LayerTracer

#: Set-up is repeated this many times per untraced run; the median
#: counts.
SETUP_REPS = 5
#: Closure tolerance: traced layer self time must cover all but this
#: share of traced operation time.
UNATTRIBUTED_TOLERANCE = 0.15
DATABASES = ("tpch", "acmdl", "tpch-unnorm", "acmdl-unnorm")

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Outcome:
    """What one run measured, ready for printing."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Metrics = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def invalid(self, why: str) -> None:
        self.correct = False
        self.notes.append(why)


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def low_quartile(values: Sequence[float]) -> float:
    """First quartile, interpolated within the values."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def windowed(windows: Sequence[Sequence[float]]) -> Tuple[float, float]:
    """The lower quartile over windows of each window's p50 and p95.

    A shared machine's speed drifts by tens of percent over seconds, in slow
    stretches that would decide a whole-run percentile.  The lower
    quartile over short windows reads the program at the machine's
    undisturbed speed; both sides of a comparison read it the same way."""
    full = [window for window in windows if window]
    return (
        low_quartile([percentile(window, 50) for window in full]),
        low_quartile([percentile(window, 95) for window in full]),
    )


def _child_pids() -> List[int]:
    pids = []
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _peak_rss_kb(pid: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus its live children), MiB."""
    if not os.path.exists("/proc/self/status"):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total = _peak_rss_kb("self")
    if include_children:
        for pid in _child_pids():
            try:
                total += _peak_rss_kb(str(pid))
            except OSError:
                continue
    return total / 1024.0


def build_engines(
    specs: Sequence[DatasetSpec], backend: str, workdir: Optional[str]
) -> List[KeywordSearchEngine]:
    """Engines over *specs*, with every lazy build done: backend
    materialization, the text and numeric indexes and (for the memory
    backend, whose executor plans the queries) planner statistics."""
    engines = []
    for spec in specs:
        options = None
        if backend == "disk":
            options = {"path": os.path.join(workdir or ".", spec.name)}
        engine = KeywordSearchEngine(
            spec.database,
            backend=backend,
            backend_options=options,
            **spec.engine_kwargs(),
        )
        spec.database.text_index
        spec.database.numeric_index
        if backend == "memory":
            engine.analyze_stats()
        engines.append(engine)
    return engines


def close_engines(engines: Sequence[KeywordSearchEngine]) -> None:
    for engine in engines:
        engine.backend.close()


class Oracle:
    """sqlite answers per (database, SQL), compared canonically."""

    def __init__(self, specs: Sequence[DatasetSpec]) -> None:
        self._specs = {spec.name: spec for spec in specs}
        self._backends: Dict[str, Any] = {}
        self._answers: Dict[Tuple[str, str], List[Tuple[Any, ...]]] = {}

    def matches(self, dataset: str, sql: str, select: Any, rows: Sequence) -> bool:
        key = (dataset, sql)
        expected = self._answers.get(key)
        if expected is None:
            backend = self._backends.get(dataset)
            if backend is None:
                backend = create_backend("sqlite", self._specs[dataset].database)
                self._backends[dataset] = backend
            expected = self._answers[key] = backend.execute(select).rows
        return rows_match(rows, expected)

    def close(self) -> None:
        for backend in self._backends.values():
            backend.close()


# ----------------------------------------------------------------------
# Per-layer readings shared by every traced run
# ----------------------------------------------------------------------
class LayerReadings:
    """Observers on a request-path tracer, turned into per-layer metrics."""

    def __init__(self, tracer: LayerTracer) -> None:
        self.tracer = tracer
        self.tags = 0
        self.generated = 0
        self.kept = 0
        self.q_errors: List[float] = []
        self.operator_rows = 0
        self.result_rows = 0
        self.compiles_on_miss = 0
        self.page_reads: Dict[str, int] = {name: 0 for name in DATABASES}
        self.current_db = DATABASES[0]
        observers = tracer.observers
        observers["keywords.match"].append(self._on_match)
        observers["patterns.generate"].append(self._on_generate)
        observers["relational.execute"].append(self._on_execute)
        observers["relational.compile"].append(self._on_compile)
        observers["storage.read_page"].append(self._on_read_page)

    def _on_match(self, args, kwargs, result, parent, duration) -> None:
        self.tags += sum(len(tags) for tags in result.values())

    def _on_generate(self, args, kwargs, result, parent, duration) -> None:
        self.generated += len(result)

    def _on_execute(self, args, kwargs, result, parent, duration) -> None:
        run = args[0].last_run
        if run is not None:
            for observation in run.operators:
                self.q_errors.append(observation.q_error)
                if observation.label != "output":
                    self.operator_rows += observation.actual
        if parent != "relational.execute":
            self.result_rows += len(result.rows)

    def _on_compile(self, args, kwargs, result, parent, duration) -> None:
        if parent == "relational.plan_lookup":
            self.compiles_on_miss += 1

    def _on_read_page(self, args, kwargs, result, parent, duration) -> None:
        self.page_reads[self.current_db] += 1

    def note_kept(self, generated_before: int, interpretations: int) -> None:
        """Count the top-k kept by an operation that ran generation."""
        if self.generated > generated_before:
            self.kept += interpretations

    def metrics(self) -> Metrics:
        t = self.tracer
        ops = t.op_count
        lookups = t.calls.get("relational.plan_lookup", 0)
        decoded = t.calls.get("storage.decode", 0)
        return {
            "service.cache_ms": (t.ms_per_op("service.cache"), "ms/op"),
            "service.payload_ms": (t.ms_per_op("service.payload"), "ms/op"),
            "keywords.match_ms": (t.ms_per_op("keywords.match"), "ms/op"),
            "keywords.matches_per_query": (
                ratio(self.tags, t.calls.get("keywords.match", 0)),
                "count",
            ),
            "patterns.generate_ms": (t.ms_per_op("patterns.generate"), "ms/op"),
            "patterns.disambiguate_ms": (
                t.ms_per_op("patterns.disambiguate"),
                "ms/op",
            ),
            "patterns.rank_ms": (t.ms_per_op("patterns.rank"), "ms/op"),
            "patterns.translate_ms": (t.ms_per_op("patterns.translate"), "ms/op"),
            "patterns.generated_per_query": (
                ratio(self.generated, t.calls.get("patterns.generate", 0)),
                "count",
            ),
            "patterns.kept_ratio": (ratio(self.kept, self.generated), "ratio"),
            "unnormalized.rewrite_ms": (
                t.ms_per_op("unnormalized.rewrite"),
                "ms/op",
            ),
            "planner.decide_ms": (t.ms_per_op("planner.decide"), "ms/op"),
            "planner.q_error.p50": (percentile(self.q_errors, 50), "ratio"),
            "planner.q_error.p95": (percentile(self.q_errors, 95), "ratio"),
            "relational.execute_ms": (t.ms_per_op("relational.execute"), "ms/op"),
            "relational.hash_join_ms": (
                t.ms_per_op("relational.hash_join"),
                "ms/op",
            ),
            "relational.cross_join_ms": (
                t.ms_per_op("relational.cross_join"),
                "ms/op",
            ),
            "relational.distinct_ms": (t.ms_per_op("relational.distinct"), "ms/op"),
            "relational.sort_ms": (t.ms_per_op("relational.sort"), "ms/op"),
            "relational.index_lookup_ms": (
                t.ms_per_op("relational.index_lookup"),
                "ms/op",
            ),
            "relational.rows_per_result": (
                ratio(self.operator_rows, self.result_rows),
                "ratio",
            ),
            "relational.compile_ms": (t.ms_per_op("relational.compile"), "ms/op"),
            "relational.plan_lookup_ms": (
                t.ms_per_op("relational.plan_lookup"),
                "ms/op",
            ),
            "relational.plan_cache_hit_ratio": (
                ratio(lookups - self.compiles_on_miss, lookups),
                "ratio",
            ),
            "storage.scan_ms": (t.ms_per_op("storage.scan"), "ms/op"),
            "storage.row_fetch_ms": (t.ms_per_op("storage.row_fetch"), "ms/op"),
            "storage.decode_us_per_row": (
                ratio(t.ms("storage.decode") * 1000.0, decoded),
                "us/row",
            ),
            "storage.rows_decoded_per_query": (ratio(decoded, ops), "count"),
            "trace.unattributed_ratio": (t.unattributed_ratio() or 0.0, "ratio"),
        }


def setup_metrics(tracer: LayerTracer) -> Metrics:
    return {
        "unnormalized.view_build_ms": (tracer.ms("unnormalized.view_build"), "ms"),
        "planner.stats_ms": (tracer.ms("planner.stats"), "ms"),
        "relational.text_index_build_ms": (
            tracer.ms("relational.text_index_build"),
            "ms",
        ),
        "storage.materialize_ms": (tracer.ms("storage.materialize"), "ms"),
    }


def zero_service_metrics() -> Metrics:
    return {
        "service.queue_wait_ms.p50": (0.0, "ms"),
        "service.queue_wait_ms.p95": (0.0, "ms"),
        "service.dispatch_ms.p50": (0.0, "ms"),
        "service.front_ms.p50": (0.0, "ms"),
        "service.shed_ratio": (0.0, "ratio"),
        "service.timeout_ratio": (0.0, "ratio"),
        "service.worker_respawns": (0.0, "count"),
        "service.result_cache_hit_ratio": (0.0, "ratio"),
        "service.artifact_hit_ratio": (0.0, "ratio"),
        "service.worker_memo_hit_ratio": (0.0, "ratio"),
        "service.max_sustained_qps": (0.0, "1/s"),
        "loadgen.lateness_ms.p99": (0.0, "ms"),
    }


def zero_storage_metrics() -> Metrics:
    metrics: Metrics = {}
    for name in DATABASES:
        metrics[f"storage.page_reads_per_query.{name}"] = (0.0, "count")
        metrics[f"storage.evictions_per_query.{name}"] = (0.0, "count")
        metrics[f"storage.pool_hit_ratio.{name}"] = (0.0, "ratio")
    return metrics


def check_closure(outcome: Outcome) -> None:
    unattributed = outcome.metrics["trace.unattributed_ratio"][0]
    if not -UNATTRIBUTED_TOLERANCE <= unattributed <= UNATTRIBUTED_TOLERANCE:
        outcome.invalid(
            f"closure check failed: {unattributed:.1%} of traced time is "
            f"outside every layer (tolerance {UNATTRIBUTED_TOLERANCE:.0%})"
        )


def pattern_counters(engines: Sequence[KeywordSearchEngine]) -> Tuple[int, int]:
    hits = misses = 0
    for engine in engines:
        counters = engine.metrics.snapshot().get("counters", {})
        hits += counters.get("pattern_cache_hits", 0)
        misses += counters.get("pattern_cache_misses", 0)
    return hits, misses
