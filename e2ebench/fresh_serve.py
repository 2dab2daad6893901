"""fresh-serve: an open-loop stream of never-repeated queries into a
``QueryService`` with two worker processes.

One process (this one, with its sending thread and the service's own
threads) offers requests on a fixed schedule through
``QueryService.submit``.  Every text is new, and the stream is longer than
any cache (pattern 128, plan 256, result 256, worker memo 256), so no
request reuses earlier work; the reuse guards check that.  Latency is
timed from each request's scheduled send.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import KeywordSearchEngine
from repro.service.config import ServiceConfig
from repro.service.service import QueryService, ServiceRequest

from common import (
    LayerReadings,
    Metrics,
    Oracle,
    Outcome,
    build_engines,
    check_closure,
    pattern_counters,
    peak_rss_mb,
    percentile,
    ratio,
    setup_metrics,
    windowed,
    zero_storage_metrics,
)
from data import DatasetSpec, clone_specs, fresh_texts, serve_databases
from layers import DISPATCH_PATH, REQUEST_PATH, SETUP_PATH, LayerTracer

SERVE_SCALE_FACTOR = 1
SERVE_WORKERS = 2
#: Set-up here takes about 0.1 s and its spread is widest, so it is
#: repeated more often than on the closed loops.
SETUP_REPS = 15
#: Latency limit, from the scheduled send.
LATENCY_LIMIT_MS = 50.0
#: The one fixed offered rate, below the rate at which worker pauses start
#: to decide the p95 (see METRICS.md).
FIXED_RATE_QPS = 50.0
#: The ladder of offered rates: rung i is FIXED_RATE_QPS * LADDER_STEP**i,
#: for |i| < LADDER_RUNGS.
LADDER_STEP = 1.05
LADDER_RUNGS = 64
#: Ladder probes budgeted per traced run (a galloping search).
LADDER_PROBES = 8
#: Shares of --seconds.  Every run starts with a warm-up at the fixed rate
#: (workers build their lazy per-column hash indexes on first use and
#: fill their caches); an untraced run spends the rest at the fixed rate,
#: a traced run splits it between the fixed rate and the ladder.
WARMUP_SHARE = 0.2
TRACED_FIXED_SHARE = 0.3
#: Fixed-rate requests per latency window (one second).
WINDOW_REQUESTS = 50
#: A send later than LATE_MS against its schedule is late.  A window with
#: a late send is not counted, and a run with fewer than half its windows
#: counted is invalid; a ladder probe with more than LATE_SHARE of its
#: sends late fails.
LATE_MS = 10.0
LATE_SHARE = 0.01


@dataclass
class Sent:
    due: float
    sent: float
    submitted: float
    dataset: str
    query: str
    pending: Any
    response: Any = None

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    @property
    def done(self) -> float:
        """When the service resolved the request (its own clock readings)."""
        r = self.response
        return self.submitted + (r.queue_wait_ms + r.serve_ms) / 1000.0

    def latency_ms(self) -> float:
        """From the scheduled send to the service resolving the request:
        the send's lateness, the admission call, the queue wait and the
        serve time the service reports."""
        r = self.response
        return (self.submitted - self.due) * 1000.0 + r.queue_wait_ms + r.serve_ms


class StreamExhausted(Exception):
    """The run used up every distinct query text."""


def _send_phase(
    service: QueryService,
    stream: Iterator[Tuple[str, str]],
    rate: float,
    seconds: float,
) -> List[Sent]:
    """Offer *rate* requests per second for *seconds*, open loop, then
    wait for every response."""
    clock = time.perf_counter
    count = max(1, int(round(rate * seconds)))
    sent: List[Sent] = []
    start = clock() + 0.005
    for i in range(count):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        try:
            dataset, query = next(stream)
        except StopIteration:
            raise StreamExhausted() from None
        at = clock()
        pending = service.submit(ServiceRequest(query=query, dataset=dataset))
        sent.append(Sent(due, at, clock(), dataset, query, pending))
    for item in sent:
        item.response = item.pending.wait(60.0)
    return sent


def _generator_fell_behind(sent: Sequence[Sent]) -> bool:
    late = sum(1 for item in sent if item.late_ms > LATE_MS)
    return late > LATE_SHARE * len(sent)


def _phase_meets_limit(sent: Sequence[Sent]) -> bool:
    """Every request ok, p95 within the limit, and no growing backlog
    (the last quarter's median also within the limit)."""
    if any(not item.response.ok for item in sent):
        return False
    latencies = [item.latency_ms() for item in sent]
    tail = latencies[len(latencies) * 3 // 4 :]
    return (
        percentile(latencies, 95) <= LATENCY_LIMIT_MS
        and percentile(tail, 50) <= LATENCY_LIMIT_MS
    )


def _rung(index: int) -> float:
    return FIXED_RATE_QPS * LADDER_STEP**index


def _ladder(
    service: QueryService,
    stream: Iterator[Tuple[str, str]],
    probe_seconds: float,
    fixed_passed: bool,
    log: List[Sent],
    outcome: Outcome,
) -> float:
    """The highest rung that meets the latency limit.

    Rung 0 is the fixed rate, already measured.  From there the search
    gallops (1, 2, 4, ... rungs away) until the outcome flips, then
    bisects; a failing probe gets one retry, so one stall does not decide
    the answer, and a probe whose generator fell behind counts as a
    failure of that rate.
    """

    def meets(index: int) -> bool:
        for _attempt in range(2):
            sent = _send_phase(service, stream, _rung(index), probe_seconds)
            log.extend(sent)
            if _phase_meets_limit(sent) and not _generator_fell_behind(sent):
                return True
        return False

    low, high = (0, LADDER_RUNGS) if fixed_passed else (-LADDER_RUNGS, 0)
    step = 1
    try:
        if fixed_passed:
            while low + step < high and meets(low + step):
                low, step = low + step, step * 2
            high = min(low + step, high)
        else:
            while high - step > low and not meets(high - step):
                high, step = high - step, step * 2
            low = max(high - step, low)
        while high - low > 1:
            middle = (low + high) // 2
            if meets(middle):
                low = middle
            else:
                high = middle
    except StreamExhausted:
        outcome.notes.append(
            "ladder stopped early: every distinct query text was used, so "
            "the sustained rate is a lower bound"
        )
    return _rung(low)


def _start_service(
    engines: Sequence[KeywordSearchEngine], specs: Sequence[DatasetSpec], workers: int
) -> QueryService:
    service = QueryService(ServiceConfig(worker_processes=workers))
    for spec, engine in zip(specs, engines):
        service.register_dataset(spec.name, engine)
    return service.start()


def _reuse_counts(snapshot: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """(hits, lookups) per cache, from a pool-mode metrics snapshot."""
    service = snapshot["service"]["counters"]
    result_hits = service.get("result_cache_hits", 0) + service.get(
        "singleflight_coalesced", 0
    )
    result_lookups = result_hits + service.get("result_cache_misses", 0)
    artifact_hits = service.get("plan_cache_hits", 0)
    artifact_lookups = artifact_hits + service.get("plan_cache_misses", 0)
    memo_hits = memo_lookups = 0
    for worker in snapshot.get("workers", {}).get("workers", {}).values():
        counters = worker.get("counters", {})
        memo_hits += counters.get("compile_memo_hits", 0)
        memo_lookups += counters.get("compile_memo_hits", 0) + counters.get(
            "compile_memo_misses", 0
        )
    pattern_hits = pattern_lookups = 0
    for engine in snapshot.get("engines", {}).values():
        counters = engine.get("counters", {})
        pattern_hits += counters.get("pattern_cache_hits", 0)
        pattern_lookups += counters.get("pattern_cache_hits", 0) + counters.get(
            "pattern_cache_misses", 0
        )
    return {
        "result": (result_hits, result_lookups),
        "artifact": (artifact_hits, artifact_lookups),
        "worker_memo": (memo_hits, memo_lookups),
        "pattern": (pattern_hits, pattern_lookups),
    }


def _guard_reuse(counts: Dict[str, Tuple[int, int]], outcome: Outcome) -> None:
    for cache, (hits, _lookups) in counts.items():
        if hits:
            outcome.invalid(f"reuse guard: {cache} cache hit {hits} times")


def _check_served(
    sent: Sequence[Sent], specs: Sequence[DatasetSpec], outcome: Outcome
) -> None:
    """Every ok response against an in-process engine and the sqlite
    oracle: same best SQL, canonically equal rows."""
    engines = {
        spec.name: KeywordSearchEngine(spec.database, **spec.engine_kwargs())
        for spec in specs
    }
    oracle = Oracle(specs)
    try:
        for item in sent:
            response = item.response
            if not response.ok:
                continue
            best = engines[item.dataset].compile(item.query, 1)[0]
            payload = response.payload
            served_sql = payload["interpretations"][0]["sql"]
            if served_sql != best.sql_compact or not oracle.matches(
                item.dataset, best.sql_compact, best.select, payload["best"]["rows"]
            ):
                outcome.failed += 1
                outcome.invalid(f"{item.dataset}: wrong answer for {item.query!r}")
    finally:
        oracle.close()


def _count_failures(sent: Sequence[Sent], outcome: Outcome) -> None:
    for item in sent:
        outcome.attempted += 1
        if not item.response.ok:
            outcome.failed += 1
            outcome.notes.append(
                f"{item.dataset}: {item.query!r}: {item.response.status}"
            )


def _count_answered(sent: Sequence[Sent], outcome: Outcome) -> None:
    """Ladder probes: requests refused above capacity are the probe's
    signal, not failed operations; answered ones count (and are checked)."""
    outcome.attempted += sum(1 for item in sent if item.response.ok)


def _served_metrics(
    fixed: Sequence[Sent], outcome: Outcome
) -> Tuple[float, float, float]:
    """(p50, p95, throughput) of the fixed-rate phase.

    Latencies come from one-second windows of WINDOW_REQUESTS sends (see
    ``common.windowed``).  A window in which the generator sent late is
    not counted: the machine starved this process then, and the lateness
    would be read as the service's.  Throughput is answers per second from
    the first scheduled send to the last answer.

    If fewer than half the windows are clean, the host starved the whole
    run; every window is then counted and a note says so.  That says
    nothing about the service's answers, which are checked apart, so the
    run stays correct."""
    windows = [
        fixed[i : i + WINDOW_REQUESTS]
        for i in range(0, len(fixed) - WINDOW_REQUESTS + 1, WINDOW_REQUESTS)
    ]
    counted = [
        [item.latency_ms() for item in window if item.response.ok]
        for window in windows
        if all(item.late_ms <= LATE_MS for item in window)
    ]
    outcome.notes.append(
        f"{len(counted)} of {len(windows)} fixed-rate windows counted "
        "(the others had a late send)"
    )
    if not counted or len(counted) < len(windows) / 2:
        outcome.notes.append(
            "generator fell behind its schedule at the fixed rate: "
            "every window counted"
        )
        counted = [
            [item.latency_ms() for item in window if item.response.ok]
            for window in windows
        ]
    p50, p95 = windowed(counted)
    ok = [item for item in fixed if item.response.ok]
    span = max(item.done for item in ok) - fixed[0].due if ok else 0.0
    return p50, p95, ratio(len(ok), span)


def run_fresh_serve(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Outcome:
    outcome = Outcome()
    base = serve_databases(SERVE_SCALE_FACTOR)
    stream = iter(fresh_texts(base, seed))
    setup_tracer = LayerTracer(SETUP_PATH) if trace else None
    setup_times = []
    service: Optional[QueryService] = None
    engines: List[KeywordSearchEngine] = []
    specs: List[DatasetSpec] = []
    for _rep in range(1 if trace else SETUP_REPS):
        if service is not None:
            service.stop()
        # free and collect the last repetition first, so each one's
        # garbage collections scan the same heap
        service, engines, specs = None, [], []
        gc.collect()
        specs = clone_specs(base)
        began = time.perf_counter()
        if setup_tracer is not None:
            with setup_tracer:
                engines = build_engines(specs, "memory", None)
        else:
            engines = build_engines(specs, "memory", None)
        service = _start_service(engines, specs, SERVE_WORKERS)
        setup_times.append(time.perf_counter() - began)
    assert service is not None
    log: List[Sent] = []
    ladder_log: List[Sent] = []
    dispatch_ms: Dict[str, float] = {}
    sustained = 0.0
    try:
        log.extend(
            _send_phase(service, stream, FIXED_RATE_QPS, seconds * WARMUP_SHARE)
        )
        if trace:
            dispatch_tracer = LayerTracer(DISPATCH_PATH)
            dispatch_tracer.observers["service.dispatch"].append(
                lambda args, kwargs, result, parent, duration: dispatch_ms.__setitem__(
                    kwargs["query"], duration * 1000.0
                )
            )
            with dispatch_tracer:
                fixed = _send_phase(
                    service, stream, FIXED_RATE_QPS, seconds * TRACED_FIXED_SHARE
                )
            probe_seconds = (
                seconds * (1 - WARMUP_SHARE - TRACED_FIXED_SHARE) / LADDER_PROBES
            )
            fixed_passed = _phase_meets_limit(fixed) and not _generator_fell_behind(
                fixed
            )
            sustained = _ladder(
                service, stream, probe_seconds, fixed_passed, ladder_log, outcome
            )
        else:
            fixed = _send_phase(
                service, stream, FIXED_RATE_QPS, seconds * (1 - WARMUP_SHARE)
            )
        log.extend(fixed)
        snapshot = service.metrics_snapshot()
        counts = _reuse_counts(snapshot)
        _guard_reuse(counts, outcome)
        rss = peak_rss_mb(include_children=True)
        respawns = snapshot.get("workers", {}).get("pool", {}).get("respawns", 0)
    finally:
        service.stop()
    _count_failures(log, outcome)
    _count_answered(ladder_log, outcome)
    late = [item.late_ms for item in log + ladder_log]
    outcome.notes.append(
        f"generator lateness p50 {percentile(late, 50):.3f} ms, "
        f"p99 {percentile(late, 99):.3f} ms, max {max(late):.3f} ms "
        f"over {len(late)} sends"
    )
    _check_served(log + ladder_log, specs, outcome)
    if not trace:
        p50, p95, throughput = _served_metrics(fixed, outcome)
        outcome.metrics = {
            "latency_p50_ms": (p50, "ms"),
            "latency_p95_ms": (p95, "ms"),
            "throughput_qps": (throughput, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        return outcome
    assert setup_tracer is not None
    outcome.metrics.update(setup_metrics(setup_tracer))
    ok = [item for item in fixed if item.response.ok]
    waits = [item.response.queue_wait_ms for item in ok]
    dispatches = [dispatch_ms[item.query] for item in ok if item.query in dispatch_ms]
    fronts = [
        item.latency_ms() - dispatch_ms[item.query]
        for item in ok
        if item.query in dispatch_ms
    ]
    statuses = [item.response.status for item in fixed]
    outcome.metrics.update(
        {
            "service.queue_wait_ms.p50": (percentile(waits, 50), "ms"),
            "service.queue_wait_ms.p95": (percentile(waits, 95), "ms"),
            "service.dispatch_ms.p50": (percentile(dispatches, 50), "ms"),
            "service.front_ms.p50": (percentile(fronts, 50), "ms"),
            "service.shed_ratio": (ratio(statuses.count("shed"), len(fixed)), "ratio"),
            "service.timeout_ratio": (
                ratio(statuses.count("timeout"), len(fixed)),
                "ratio",
            ),
            "service.worker_respawns": (float(respawns), "count"),
            "service.result_cache_hit_ratio": (ratio(*counts["result"]), "ratio"),
            "service.artifact_hit_ratio": (ratio(*counts["artifact"]), "ratio"),
            "service.worker_memo_hit_ratio": (ratio(*counts["worker_memo"]), "ratio"),
            "service.max_sustained_qps": (sustained, "1/s"),
            "loadgen.lateness_ms.p99": (percentile(late, 99), "ms"),
        }
    )
    # worker-side layers: replay the fixed-rate texts through an
    # in-process service on the parent's engines (their caches never saw
    # the stream: the pool workers served it)
    outcome.metrics.update(_traced_replay(engines, specs, fixed, outcome))
    outcome.metrics.update(zero_storage_metrics())
    outcome.metrics["error_ratio"] = (ratio(outcome.failed, outcome.attempted), "ratio")
    check_closure(outcome)
    return outcome


#: Replayed requests per traced or untraced block.
REPLAY_BLOCK = 10


def _traced_replay(
    engines: Sequence[KeywordSearchEngine],
    specs: Sequence[DatasetSpec],
    replay: Sequence[Sent],
    outcome: Outcome,
) -> Metrics:
    """Serve the texts of *replay* closed loop through an in-process
    service, in blocks alternately untraced and traced; each answer must
    be byte-identical to the pool's.  Every text is served once, so no
    request can reuse another's work, and the alternation lets the
    machine's drifting speed touch both sides of the overhead ratio.
    """
    service = _start_service(engines, specs, 0)
    tracer = LayerTracer(REQUEST_PATH)
    readings = LayerReadings(tracer)
    untraced: List[float] = []
    traced: List[float] = []
    hits_before, misses_before = pattern_counters(engines)
    try:
        for start in range(0, len(replay), REPLAY_BLOCK):
            block = replay[start : start + REPLAY_BLOCK]
            if (start // REPLAY_BLOCK) % 2 == 0:
                untraced.extend(_replay_pass(service, block, outcome, None, None))
                continue
            with tracer:
                traced.extend(_replay_pass(service, block, outcome, tracer, readings))
        result_hits = service.metrics_snapshot()["service"]["counters"].get(
            "result_cache_hits", 0
        )
        hits_after, misses_after = pattern_counters(engines)
    finally:
        service.stop()
    metrics = readings.metrics()
    pattern_hits = hits_after - hits_before
    metrics["patterns.cache_hit_ratio"] = (
        ratio(pattern_hits, pattern_hits + misses_after - misses_before),
        "ratio",
    )
    plan_hits = metrics["relational.plan_cache_hit_ratio"][0]
    if pattern_hits or result_hits or plan_hits:
        outcome.invalid(
            f"reuse guard: the in-process replay hit a cache (pattern "
            f"{pattern_hits}, result {result_hits}, plan ratio {plan_hits:.3f})"
        )
    metrics["trace.overhead_ratio"] = (
        ratio(percentile(traced, 50), percentile(untraced, 50)) - 1.0,
        "ratio",
    )
    return metrics


def _replay_pass(
    service: QueryService,
    replay: Sequence[Sent],
    outcome: Outcome,
    tracer: Optional[LayerTracer],
    readings: Optional[LayerReadings],
) -> List[float]:
    latencies = []
    clock = time.perf_counter
    for item in replay:
        dataset, query = item.dataset, item.query
        request = ServiceRequest(query=query, dataset=dataset)
        generated_before = readings.generated if readings is not None else 0
        began = clock()
        if tracer is not None:
            with tracer.operation():
                response = service.serve(request, timeout=60.0)
            # the wait between the service's threads, as the service timed it
            tracer.add("service.queue", response.queue_wait_ms / 1000.0)
        else:
            response = service.serve(request, timeout=60.0)
        latencies.append((clock() - began) * 1000.0)
        outcome.attempted += 1
        if not response.ok:
            outcome.failed += 1
            outcome.notes.append(f"replay {dataset}: {query!r}: {response.status}")
            continue
        if item.response.ok and response.body() != item.response.body():
            outcome.failed += 1
            outcome.invalid(f"replay {dataset}: {query!r}: differs from the pool")
        if readings is not None:
            interpretations = response.payload["interpretations"]
            readings.note_kept(generated_before, len(interpretations))
    return latencies
