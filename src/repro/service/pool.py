"""Multi-process worker tier: per-process engines behind a pipe protocol.

The GIL caps a :class:`~repro.service.service.QueryService` at one core no
matter how many worker *threads* drain its queue — the pipeline (keyword →
patterns → SQL → execution) is pure-Python CPU work.  This module breaks
that ceiling the way EdgeDB's server does: a pool of dedicated worker
**processes**, each owning a full :class:`~repro.engine.KeywordSearchEngine`
per dataset, with the front end multiplexing requests onto them over
:mod:`multiprocessing` pipes (see ``repro/service/proto.py`` for the wire
and error contract).

A worker builds a response with the same
:func:`~repro.service.service.compute_payload` the thread tier calls, so
both tiers answer from one code path.  In front of it each worker keeps
a payload memo: a :class:`~repro.service.cache.ResultCache` with no TTL,
keyed like the front end's result cache and emptied per dataset when
that dataset's invalidation epoch moves.

Routing is consistent hashing (stable MD5 ring, virtual nodes) over
``(dataset, query)``, so repeats of a query reach the worker whose memo
and engine caches are already hot, while one dataset's traffic still
spreads over every worker.

Lifecycle: fork-or-spawn aware (fork inherits the parent's already-built
engines copy-on-write; spawn rebuilds from a picklable factory), crash
detection with in-place respawn and a single retry for idempotent ops,
per-dataset invalidation *epochs* carried on every request so
``engine.clear_cache()`` in the front end propagates to every worker —
including ones respawned after the invalidation — and a deterministic
:meth:`WorkerPool.stop` that never leaks processes.

This is the only module in the repository allowed to import
:mod:`multiprocessing` (lint rule LR007).
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import signal
import threading
import time
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cancellation import CancellationToken, cancellation_scope
from repro.errors import DeadlineExceededError
from repro.service import proto
from repro.service.cache import ResultCache
from repro.service.service import compute_payload

__all__ = ["WorkerPool", "WorkerFactory"]

#: Builds the engines a worker serves: ``{dataset: (engine, sqak_or_None)}``.
#: Under the fork start method this may be a closure over live engines (the
#: child inherits them copy-on-write); under spawn it must be picklable
#: (e.g. ``functools.partial`` of a module-level builder).
WorkerFactory = Callable[[], Mapping[str, Tuple[Any, Any]]]

_VNODES = 64  # virtual nodes per worker on the hash ring
_BOOT_TIMEOUT_S = 60.0  # readiness ping after (re)spawn
_DISPATCH_GRACE_S = 2.0  # slack past the deadline before a worker is killed
_MEMO_SIZE = 256  # payloads each worker memoizes


def default_start_method() -> str:
    """The start method a pool picks when none is configured."""
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def _stable_hash(key: Any) -> int:
    """A process-stable 64-bit hash (builtin ``hash`` is salted per run)."""
    digest = hashlib.md5(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ======================================================================
# Worker side (runs in the child process)
# ======================================================================
class _WorkerState:
    """Everything one worker process owns."""

    def __init__(self, worker_id: int, factory: WorkerFactory):
        self.worker_id = worker_id
        self.runtimes = dict(factory())
        # keyed (dataset, engine, mode, query, k, backend); a raised
        # error is never stored, so a rejection is recomputed every time
        self.memo = ResultCache(size=_MEMO_SIZE, ttl_s=math.inf)
        self.epochs: Dict[str, int] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "compile_memo_hits": 0,
            "compile_memo_misses": 0,
            "cache_clears": 0,
        }

    # -- epoch coherence ------------------------------------------------
    def sync_epoch(self, dataset: str, epoch: int) -> None:
        """Drop stale caches when the front end's epoch has moved past ours.

        A freshly (re)spawned worker adopts the current epoch without
        clearing: its engines were just built (spawn) or inherited from
        the post-invalidation parent (fork), so they are already current.
        """
        seen = self.epochs.get(dataset)
        if seen is None:
            self.epochs[dataset] = epoch
            return
        if epoch > seen:
            self.clear(dataset, epoch)

    def clear(self, dataset: Optional[str], epoch: Optional[int]) -> None:
        self.counters["cache_clears"] += 1
        names = [dataset] if dataset is not None else list(self.runtimes)
        for name in names:
            runtime = self.runtimes.get(name)
            if runtime is not None:
                # public API; any invalidation hooks fire on this process's
                # own (forked or rebuilt) copies, which is exactly right
                runtime[0].clear_cache()
            if epoch is not None:
                self.epochs[name] = epoch
        self.memo.invalidate(lambda key: key[0] in names)

    # -- ops ------------------------------------------------------------
    def handle(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        op = msg["op"]
        if op == proto.OP_PING:
            return proto.ok_reply({"worker": self.worker_id})
        if op == proto.OP_SHUTDOWN:
            return proto.ok_reply({"stopping": self.worker_id})
        if op == proto.OP_CLEAR:
            self.clear(msg.get("dataset"), msg.get("epoch"))
            return proto.ok_reply({"cleared": True})
        if op == proto.OP_METRICS:
            return proto.ok_reply(self._metrics())
        if op != proto.OP_SERVE:
            return proto.error_reply(ValueError(f"unknown op {op!r}"))
        try:
            return proto.ok_reply(self._serve(msg))
        except BaseException as exc:  # classified for the wire
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return proto.error_reply(exc)

    def _scope(self, msg: Dict[str, Any]) -> CancellationToken:
        deadline_s = msg.get("deadline_s")
        if deadline_s is not None:
            return CancellationToken.with_timeout(
                deadline_s, reason="request deadline"
            )
        return CancellationToken(reason="request")

    def _serve(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        dataset = msg["dataset"]
        runtime = self.runtimes.get(dataset)
        if runtime is None:
            raise KeyError(f"worker has no dataset {dataset!r}")
        self.sync_epoch(dataset, msg.get("epoch", 0))
        self.counters["requests"] += 1
        engine_name, mode, query, k, backend = (
            msg["engine"], msg["mode"], msg["query"], msg["k"], msg["backend"]
        )

        def compute() -> Dict[str, Any]:
            with cancellation_scope(self._scope(msg)):
                return compute_payload(
                    runtime[0],
                    runtime[1],
                    dataset,
                    mode,
                    engine_name,
                    query,
                    k,
                    backend,
                )

        key = (dataset, engine_name, mode, query, k, backend)
        payload, _ = self.memo.get_or_compute(key, compute, observe=self._count_memo)
        return {"payload": payload}

    def _count_memo(self, outcome: str) -> None:
        self.counters[
            "compile_memo_hits" if outcome == "hit" else "compile_memo_misses"
        ] += 1

    def _metrics(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "memo_entries": len(self.memo),
            "epochs": dict(self.epochs),
            "engines": {
                name: runtime[0].metrics.snapshot()
                for name, runtime in self.runtimes.items()
                if getattr(runtime[0], "metrics", None) is not None
            },
        }


def _worker_main(worker_id: int, conn: Any, factory: WorkerFactory) -> None:
    """The child process loop: recv → handle → send, until shutdown."""
    # a terminal Ctrl-C signals the whole foreground process group;
    # shutdown is the parent's job (OP_SHUTDOWN / closed pipe), so the
    # workers must not die mid-protocol with a KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state = _WorkerState(worker_id, factory)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break  # parent went away (or a stray SIGINT won the race)
        reply = state.handle(msg)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if msg.get("op") == proto.OP_SHUTDOWN:
            break
    conn.close()


# ======================================================================
# Parent side
# ======================================================================
class _Handle:
    """One worker process as the parent sees it."""

    __slots__ = ("worker_id", "process", "conn", "lock", "restarts")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process: Any = None
        self.conn: Any = None
        self.lock = threading.Lock()
        self.restarts = -1  # first spawn brings it to 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """N engine-owning worker processes behind consistent-hash routing."""

    def __init__(
        self,
        factory: WorkerFactory,
        workers: int,
        context: Optional[str] = None,
        grace_s: float = _DISPATCH_GRACE_S,
        boot_timeout_s: float = _BOOT_TIMEOUT_S,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        methods = multiprocessing.get_all_start_methods()
        if context is None:
            context = default_start_method()
        elif context not in methods:
            raise ValueError(
                f"start method {context!r} unavailable (have: {methods})"
            )
        self.context_name = context
        self.grace_s = grace_s
        self.boot_timeout_s = boot_timeout_s
        self._factory = factory
        self._ctx = multiprocessing.get_context(context)
        self._handles = [_Handle(index) for index in range(workers)]
        self._ring = self._build_ring(workers)
        self._started = False
        self._stopping = False
        self._lifecycle_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        self.counters: Dict[str, int] = {  # guarded-by: _counters_lock
            "dispatches": 0,
            "respawns": 0,
            "crash_retries": 0,
            "deadline_kills": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._handles)

    @property
    def running(self) -> bool:
        return self._started and not self._stopping

    def start(self) -> "WorkerPool":
        with self._lifecycle_lock:
            if self._started:
                return self
            self._stopping = False
            for handle in self._handles:
                self._spawn(handle)
            self._started = True
        # readiness barrier: a worker that cannot build its engines must
        # fail start(), not the first unlucky request
        for handle in self._handles:
            self._dispatch_to(
                handle, proto.request(proto.OP_PING), timeout=self.boot_timeout_s
            )
        return self

    def stop(self, grace_s: float = 5.0) -> None:
        """Deterministic shutdown: polite, then firm, never leaky."""
        with self._lifecycle_lock:
            if not self._started:
                return
            self._stopping = True
        deadline = time.monotonic() + grace_s
        for handle in self._handles:
            # a worker stuck in a long compute won't yield its lock; take
            # it if we can within the budget, then escalate regardless
            acquired = handle.lock.acquire(
                timeout=max(0.0, deadline - time.monotonic())
            )
            try:
                if handle.alive and handle.conn is not None and acquired:
                    try:
                        # lock-ok: C003 the handle lock exists to serialize
                        # this duplex pipe; the matching poll below is
                        # bounded by the shutdown grace deadline
                        handle.conn.send(proto.request(proto.OP_SHUTDOWN))
                        handle.conn.poll(max(0.0, deadline - time.monotonic()))
                    except (BrokenPipeError, OSError, EOFError):
                        pass
            finally:
                if acquired:
                    handle.lock.release()
            if handle.process is not None:
                handle.process.join(max(0.05, deadline - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(1.0)
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
                    handle.process.join(1.0)
            if handle.conn is not None:
                handle.conn.close()
                # lock-ok: C001 a wedged worker never yields its lock;
                # dispatchers re-check handle.alive/_stopping under the
                # lock before touching the pipe, so clearing is safe here
                handle.conn = None
            # lock-ok: C001 same shutdown protocol as handle.conn above
            handle.process = None
        with self._lifecycle_lock:
            self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _spawn(self, handle: _Handle) -> None:
        """(Re)create a worker in place; its ring slots are unchanged."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(handle.worker_id, child_conn, self._factory),
            name=f"repro-pool-worker-{handle.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        # lock-ok: C001 callers serialize handle publication: start()
        # runs before the pool is visible (under the lifecycle lock) and
        # _dispatch_to() respawns while holding handle.lock
        handle.process = process
        # lock-ok: C001 same single-writer protocol as handle.process
        handle.conn = parent_conn
        handle.restarts += 1
        if handle.restarts > 0:
            with self._counters_lock:
                self.counters["respawns"] += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _build_ring(self, workers: int) -> List[Tuple[int, int]]:
        points = [
            (_stable_hash((worker, vnode)), worker)
            for worker in range(workers)
            for vnode in range(_VNODES)
        ]
        points.sort()
        return points

    def route(self, dataset: str, query: str) -> int:
        """The worker that owns this query's hot caches."""
        point = _stable_hash((dataset, query))
        index = bisect_right(self._ring, (point, len(self._handles)))
        if index >= len(self._ring):
            index = 0
        return self._ring[index][1]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(
        self,
        op: str,
        dataset: str,
        query: str,
        deadline_s: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Route one request, await its reply, surface failures faithfully.

        A crashed worker is respawned in place; idempotent ops are retried
        exactly once on the fresh worker, so the caller always receives
        exactly one response per dispatch.  A worker that overruns the
        request deadline plus the grace window is killed and the request
        resolves as a deadline failure — exactly what the in-process
        cancellation checkpoint would have produced.
        """
        if not self.running:
            raise proto.WorkerCrashError("worker pool is not running")
        handle = self._handles[self.route(dataset, query)]
        msg = proto.request(
            op, dataset=dataset, query=query, deadline_s=deadline_s, **fields
        )
        with self._counters_lock:
            self.counters["dispatches"] += 1
        timeout = None if deadline_s is None else deadline_s + self.grace_s
        try:
            reply = self._dispatch_to(handle, msg, timeout=timeout)
        except proto.WorkerCrashError:
            if self._stopping or op not in proto.IDEMPOTENT_OPS:
                raise
            with self._counters_lock:
                self.counters["crash_retries"] += 1
            reply = self._dispatch_to(handle, msg, timeout=timeout)
        if reply["status"] == "error":
            proto.raise_remote(reply["kind"], reply["message"])
        return reply["result"]

    def _dispatch_to(
        self, handle: _Handle, msg: Dict[str, Any], timeout: Optional[float]
    ) -> Dict[str, Any]:
        with handle.lock:
            if not handle.alive:
                if self._stopping:
                    raise proto.WorkerCrashError(
                        f"worker {handle.worker_id} unavailable during shutdown"
                    )
                self._spawn(handle)
            try:
                # lock-ok: C003 serializing this duplex pipe is the
                # handle lock's whole purpose (one in-flight request per
                # worker); writes are small and the peer always drains
                handle.conn.send(msg)
                if not handle.conn.poll(timeout):
                    # deadline + grace overrun: the worker is wedged (its
                    # own cancellation token should have tripped long ago)
                    self._kill(handle)
                    with self._counters_lock:
                        self.counters["deadline_kills"] += 1
                    raise DeadlineExceededError(
                        f"worker {handle.worker_id} overran the request "
                        f"deadline and was recycled"
                    )
                # lock-ok: C003 cannot block: only reached after
                # poll(timeout) reported a complete reply is buffered
                return handle.conn.recv()
            except (BrokenPipeError, ConnectionResetError, EOFError, OSError) as exc:
                self._kill(handle)
                raise proto.WorkerCrashError(
                    f"worker {handle.worker_id} died mid-request "
                    f"({type(exc).__name__})"
                ) from exc

    def _kill(self, handle: _Handle) -> None:
        """Tear a broken worker down (caller holds the handle lock)."""
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(1.0)
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        handle.process = None

    # ------------------------------------------------------------------
    # Broadcast / metrics
    # ------------------------------------------------------------------
    def broadcast_clear(self, dataset: Optional[str], epoch: int) -> int:
        """Best-effort cache clear on every live worker (returns how many
        acknowledged).  Workers that miss it catch up through the epoch
        carried on their next request."""
        acked = 0
        for handle in self._handles:
            try:
                self._dispatch_to(
                    handle,
                    proto.request(proto.OP_CLEAR, dataset=dataset, epoch=epoch),
                    timeout=self.grace_s,
                )
                acked += 1
            except (proto.WorkerCrashError, DeadlineExceededError):
                continue
        return acked

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Per-worker counters/engine metrics plus pool-level counters."""
        workers: Dict[str, Any] = {}
        for handle in self._handles:
            entry: Dict[str, Any] = {"restarts": max(0, handle.restarts)}
            try:
                entry.update(
                    self._dispatch_to(
                        handle,
                        proto.request(proto.OP_METRICS),
                        timeout=self.grace_s,
                    )["result"]
                )
                entry["alive"] = True
            except (proto.WorkerCrashError, DeadlineExceededError):
                entry["alive"] = False
            workers[str(handle.worker_id)] = entry
        with self._counters_lock:
            pool_counters = dict(self.counters)
        return {
            "context": self.context_name,
            "workers": workers,
            "pool": pool_counters,
        }

    def health(self) -> Dict[str, Any]:
        with self._counters_lock:
            respawns = self.counters["respawns"]
        return {
            "workers": self.workers,
            "alive": sum(1 for handle in self._handles if handle.alive),
            "context": self.context_name,
            "respawns": respawns,
        }
