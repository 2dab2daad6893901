"""Closed-loop load generator for the query service, swept over the
worker-process tier.

Three serving configurations are measured with the same client fleet
logic:

* ``w1`` — the historical single-thread in-process service (one worker
  thread, two queue slots).  This is the committed baseline the p95
  guarantee was written against: overload must *shed*, not slow the
  admitted work down.
* ``w2`` / ``w4`` — pool mode (``worker_processes=2|4``) with the queue
  scaled to the worker count, exercising the compile/execute split, the
  shared plan-artifact cache and cross-worker single-flight coalescing.

For every offered load (client fleets at 1x / 2x / 4x the configuration's
worker count) the bench reports p50/p95/p99 latency of admitted
requests, the shed rate, and **throughput** (ok responses per wall
second) plus **throughput-per-core** (throughput divided by the cores
the configuration can actually use, ``min(workers, cpu_count)``) — the
honest scale-out number on a small machine.

Acceptance gates (``GATES``):

* every configuration: only clean outcomes under load, counters
  reconcile;
* ``w1``: admitted p95 at peak stays within ``MAX_P95_RATIO`` of the
  single-client p95 (the original serving guarantee, unchanged);
* ``w4`` at 4x load: throughput at least ``MIN_SCALEOUT_SPEEDUP`` times
  the ``w1`` peak throughput, and shed rate at most
  ``MAX_SCALEOUT_SHED_RATE`` (the scale-out acceptance criteria);
* drift, per configuration: the peak shed rate and peak
  throughput-per-core against the baseline.  The p95 ratio drifts only
  for ``w1``: pool configurations keep requests queued at peak by
  design, so their admitted p95 is a function of queue depth, not
  serving speed — throughput is their latency-honest signal.

The result cache runs with ``ttl=0`` so every admitted request does real
engine work (single-flight coalescing still applies, as it would in
production).

Run it with ``python benchmarks/bench_service.py``; the runner,
baseline and refresh procedure are described in ``check_regression.py``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gates import Gate  # noqa: E402
from repro.datasets import university_database  # noqa: E402
from repro.engine import KeywordSearchEngine  # noqa: E402
from repro.service import QueryService, ServiceConfig, ServiceRequest  # noqa: E402

# Worker-process sweep.  w1 keeps the historical shape — one worker
# thread, two queue slots, no process tier — because the engine is
# pure-Python CPU work and extra *threads* only time-slice the GIL; the
# pool configurations scale the queue with the worker count so admission
# control sheds on genuine overload, not on a two-slot artifact.
SWEEP = (
    {"name": "w1", "worker_processes": 0, "threads": 1, "queue_limit": 2},
    {"name": "w2", "worker_processes": 2, "threads": 4, "queue_limit": 16},
    {"name": "w4", "worker_processes": 4, "threads": 8, "queue_limit": 32},
)
MULTIPLIERS = (1, 2, 4)  # client fleets as multiples of the worker count
REQUESTS_PER_LEVEL = 192
SINGLE_CLIENT_REQUESTS = 48
MAX_P95_RATIO = 3.0  # w1: admitted p95 at 4x load vs single-client p95
MIN_SCALEOUT_SPEEDUP = 2.0  # w4 peak throughput vs w1 peak throughput
MAX_SCALEOUT_SHED_RATE = 0.10  # w4 at 4x load

QUERIES = [
    "COUNT Lecturer GROUPBY Course",
    "Green SUM Credit",
    "COUNT Student GROUPBY Course",
    "AVG Credit",
    "COUNT Student",
    "COUNT Student GROUPBY Grade",
    "COUNT Enrol",
    "MAX COUNT Student",
]

_CONFIGS = tuple(str(spec["name"]) for spec in SWEEP)
_LEVELS = tuple(f"{multiplier}x" for multiplier in MULTIPLIERS)

GATES = (
    *(
        gate
        for name in _CONFIGS
        for level in _LEVELS
        for gate in (
            Gate(
                f"{name}.{level}.unexpected",
                "<=",
                0,
                why="non-clean outcomes under load",
            ),
            Gate(f"{name}.{level}.admitted", ">=", 1, why="no requests admitted"),
        )
    ),
    *(
        Gate(
            f"{name}.counters_reconcile",
            ">=",
            1,
            why="counters do not reconcile after the run",
        )
        for name in _CONFIGS
    ),
    Gate(
        "w1.p95_ratio_at_peak",
        "<=",
        MAX_P95_RATIO,
        why="overload must shed, not slow the admitted work down",
    ),
    Gate(
        "scaleout.speedup_at_peak_w4_vs_w1",
        ">=",
        MIN_SCALEOUT_SPEEDUP,
        why="w4 peak throughput must scale out over the w1 baseline",
    ),
    Gate(
        "scaleout.shed_rate_at_peak_w4",
        "<=",
        MAX_SCALEOUT_SHED_RATE,
        why="w4 must absorb 4x load without shedding",
    ),
    Gate(
        "w1.p95_ratio_at_peak",
        "<=",
        1.5,
        drift="*",
        why="service p95 ratio regressed",
    ),
    *(
        Gate(
            f"{name}.shed_rate_at_peak",
            "<=",
            0.25,
            drift="+",
            why="service shed rate at peak regressed",
        )
        for name in _CONFIGS
    ),
    # generous because closed-loop wall clocks on shared machines are
    # noisy, but a real serving-layer regression (lost coalescing, broken
    # memo, per-dispatch overhead) costs more than half the throughput
    *(
        Gate(
            f"{name}.throughput_per_core_at_peak_rps",
            ">=",
            0.5,
            drift="*",
            why="peak throughput-per-core regressed",
            context=("cpu_count",),
        )
        for name in _CONFIGS
    ),
)


def _build_service(spec: Dict[str, object]) -> QueryService:
    engine = KeywordSearchEngine(university_database())
    service = QueryService(
        ServiceConfig(
            max_workers=int(spec["threads"]),
            queue_limit=int(spec["queue_limit"]),
            cache_ttl_s=0.0,  # every admitted request does real work
            default_deadline_s=30.0,
            worker_processes=int(spec["worker_processes"]),
        )
    )
    service.register_dataset("university", engine)
    return service


def percentile(samples: List[float], q: float) -> float:
    """The *q*-quantile (0..1) by nearest-rank on sorted samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _run_clients(
    service: QueryService, clients: int, total_requests: int
) -> Dict[str, object]:
    """Closed-loop fleet: each client fires its share back-to-back.

    Returns the per-request records plus the fleet's wall-clock seconds
    (start of the first client to the finish of the last), which is what
    throughput is computed from."""
    per_client = total_requests // clients
    records: List[Dict[str, object]] = []
    lock = threading.Lock()
    # all clients block on the barrier until the whole fleet exists, so
    # thread start-up cost never counts against the measured wall clock
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait(30.0)
        for i in range(per_client):
            query = QUERIES[(index * per_client + i) % len(QUERIES)]
            started = time.perf_counter()
            response = service.serve(
                ServiceRequest(query=query), timeout=120.0
            )
            latency_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                records.append(
                    {"status": response.status, "latency_ms": latency_ms}
                )

    threads = [
        threading.Thread(
            target=client, args=(index,), name=f"bench-client-{index}", daemon=True
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(30.0)
    fleet_started = time.perf_counter()
    for thread in threads:
        thread.join(300.0)
    wall_s = time.perf_counter() - fleet_started
    assert not any(thread.is_alive() for thread in threads), "client hang"
    return {"records": records, "wall_s": wall_s}


def _summarize(run: Dict[str, object], cores: int) -> Dict[str, float]:
    records = run["records"]
    wall_s = max(float(run["wall_s"]), 1e-9)
    admitted = [
        float(record["latency_ms"])
        for record in records
        if record["status"] == "ok"
    ]
    shed = sum(1 for record in records if record["status"] == "shed")
    throughput = len(admitted) / wall_s
    return {
        "requests": len(records),
        "admitted": len(admitted),
        "shed": shed,
        "shed_rate": shed / len(records) if records else 0.0,
        "unexpected": len(records) - len(admitted) - shed,
        "p50_ms": percentile(admitted, 0.50),
        "p95_ms": percentile(admitted, 0.95),
        "p99_ms": percentile(admitted, 0.99),
        "wall_s": wall_s,
        "throughput_rps": throughput,
        "throughput_per_core_rps": throughput / cores,
    }


def _measure_config(spec: Dict[str, object]) -> Dict[str, float]:
    workers = int(spec["worker_processes"])
    cores = max(1, min(workers or 1, os.cpu_count() or 1))
    service = _build_service(spec)
    with service:
        # warm the engines (pattern + plan caches) outside the timings
        _run_clients(service, 1, 2 * len(QUERIES))
        single = _summarize(
            _run_clients(service, 1, SINGLE_CLIENT_REQUESTS), cores
        )
        fleet_unit = workers or 1
        loads = {
            f"{multiplier}x": _summarize(
                _run_clients(
                    service, fleet_unit * multiplier, REQUESTS_PER_LEVEL
                ),
                cores,
            )
            for multiplier in MULTIPLIERS
        }
        counters = service.metrics_snapshot()["service"]["counters"]
    peak = loads[_LEVELS[-1]]
    metrics = {
        f"{level}.{key}": value
        for level, summary in {"single_client": single, **loads}.items()
        for key, value in summary.items()
    }
    metrics.update(
        {
            "cores_used": cores,
            "p95_ratio_at_peak": peak["p95_ms"] / (single["p95_ms"] or 1e-9),
            "shed_rate_at_peak": peak["shed_rate"],
            "throughput_at_peak_rps": peak["throughput_rps"],
            "throughput_per_core_at_peak_rps": peak["throughput_per_core_rps"],
            "counters_reconcile": float(
                counters["requests_admitted"]
                == counters.get("result_cache_hits", 0)
                + counters.get("result_cache_misses", 0)
                + counters.get("singleflight_coalesced", 0)
            ),
        }
    )
    return metrics


def measure() -> Dict[str, float]:
    metrics: Dict[str, float] = {"cpu_count": os.cpu_count() or 1}
    for spec in SWEEP:
        config = _measure_config(spec)
        metrics.update(
            {f"{spec['name']}.{key}": value for key, value in config.items()}
        )
    metrics["scaleout.speedup_at_peak_w4_vs_w1"] = metrics[
        "w4.throughput_at_peak_rps"
    ] / (metrics["w1.throughput_at_peak_rps"] or 1e-9)
    metrics["scaleout.shed_rate_at_peak_w4"] = metrics["w4.shed_rate_at_peak"]
    return metrics


if __name__ == "__main__":
    from check_regression import main

    raise SystemExit(main(["service"]))
