"""Per-layer attribution for the traced runs, from the benchmark's own files.

:class:`LayerTracer` wraps public functions of the repro modules (see
:data:`REQUEST_PATH` and :data:`SETUP_PATH`) for the duration of a traced
phase and restores them afterwards.  Each wrapped call is a span: the
span's *self time* is its duration minus the time of the wrapped calls it
made, so the self times of all spans plus the time outside every span add
up to the traced operation time exactly.  That remainder, divided by the
operation time, is ``trace.unattributed_ratio``, the closure check.

Spans nest per thread.  A function imported by name into another module
(``from repro.relational.algebra import hash_join``) is replaced wherever
that name is bound, so calls from every module are seen.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import KeywordSearchEngine
from repro.keywords.matcher import TermMatcher
from repro.patterns import disambiguator, generator, ranker
from repro.planner.optimizer import Optimizer
from repro.planner.stats import StatisticsCatalog
from repro.relational import algebra
from repro.relational.executor import Executor
from repro.relational.index import InvertedIndex, NumericIndex
from repro.relational.plan import CompiledPlan, IndexLookup
from repro.service import service as service_module
from repro.service.cache import ResultCache
from repro.service.pool import WorkerPool
from repro.service.service import QueryService
from repro.storage import serde
from repro.storage.heap import HeapFile
from repro.storage.pager import Pager
from repro.backends.disk import DiskBackend
from repro.unnormalized import rewriter
from repro.unnormalized.view import NormalizedView

# (owner, attribute, span key, kind): kind is "call", "classmethod" or
# "eager" (a generator drained inside the span, so its work is timed where
# it happens; the callers here consume it whole anyway)
Target = Tuple[Any, str, str, str]

#: What one keyword query passes through, by layer.
REQUEST_PATH: Tuple[Target, ...] = (
    (QueryService, "submit", "service.submit", "call"),
    (ResultCache, "get_or_compute", "service.cache", "call"),
    (service_module, "semantic_search_payload", "service.payload", "call"),
    (service_module, "interpretations_fragment", "service.payload", "call"),
    (service_module, "assemble_semantic_payload", "service.payload", "call"),
    (TermMatcher, "match_query", "keywords.match", "call"),
    (generator.PatternGenerator, "generate", "patterns.generate", "call"),
    (disambiguator, "disambiguate_all", "patterns.disambiguate", "call"),
    (ranker, "rank_patterns", "patterns.rank", "call"),
    (KeywordSearchEngine, "translate_parts", "patterns.translate", "call"),
    (rewriter, "rewrite", "unnormalized.rewrite", "call"),
    (Optimizer, "decide", "planner.decide", "call"),
    (StatisticsCatalog, "profile", "planner.stats", "call"),
    (Executor, "plan_for", "relational.plan_lookup", "call"),
    (CompiledPlan, "__init__", "relational.compile", "call"),
    (CompiledPlan, "execute", "relational.execute", "call"),
    (algebra, "hash_join", "relational.hash_join", "call"),
    (algebra, "cross_join", "relational.cross_join", "call"),
    (algebra, "distinct", "relational.distinct", "call"),
    (algebra, "sort_rows", "relational.sort", "call"),
    (IndexLookup, "positions", "relational.index_lookup", "call"),
    (InvertedIndex, "add_table", "relational.text_index_build", "call"),
    (NumericIndex, "add_table", "relational.numeric_index_build", "call"),
    (HeapFile, "scan", "storage.scan", "eager"),
    (HeapFile, "row", "storage.row_fetch", "call"),
    (serde, "decode_row", "storage.decode", "call"),
    (Pager, "read_page", "storage.read_page", "call"),
)

#: What set-up passes through besides the request path.
SETUP_PATH: Tuple[Target, ...] = REQUEST_PATH + (
    (NormalizedView, "build", "unnormalized.view_build", "classmethod"),
    (DiskBackend, "load", "storage.materialize", "call"),
)

#: The parent-side pool call, timed per request in pool mode.
DISPATCH_PATH: Tuple[Target, ...] = (
    (WorkerPool, "dispatch", "service.dispatch", "call"),
)


class _Frame:
    __slots__ = ("key", "child")

    def __init__(self, key: str) -> None:
        self.key = key
        self.child = 0.0


class LayerTracer:
    """Self time and call counts per span key, plus observers.

    ``observers[key]`` callbacks receive ``(args, kwargs, result,
    parent_key, duration_s)`` after every call of that key; the workloads
    use them for counts only a call's arguments or result reveal (tags
    matched, patterns generated, plan q-errors, pages read).
    """

    def __init__(self, targets: Sequence[Target]) -> None:
        self.targets = tuple(targets)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.observers: Dict[str, List[Callable[..., None]]] = defaultdict(list)
        self.op_total_s = 0.0
        self.op_count = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, key: str, eager: bool) -> Callable:
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1].key if stack else None
            frame = _Frame(key)
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                duration = clock() - started
                stack.pop()
                if stack:
                    stack[-1].child += duration
                with tracer._lock:
                    tracer.self_s[key] += duration - frame.child
                    tracer.calls[key] += 1
            for observer in tracer.observers.get(key, ()):
                observer(args, kwargs, result, parent, duration)
            return iter(result) if eager else result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def operation(self):
        """One end-to-end operation: the root every closure is taken over."""
        stack = self._stack()
        frame = _Frame("op")
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            self.op_total_s += duration
            self.op_count += 1

    def add(self, key: str, seconds: float) -> None:
        """Attribute time a layer reported itself (no span was open)."""
        with self._lock:
            self.self_s[key] += seconds
            self.calls[key] += 1

    # -- patching -------------------------------------------------------
    def install(self) -> "LayerTracer":
        for owner, attribute, key, kind in self.targets:
            raw = owner.__dict__[attribute]
            if kind == "classmethod":
                wrapped: Any = classmethod(self._wrap(raw.__func__, key, False))
            else:
                wrapped = self._wrap(raw, key, kind == "eager")
            self._replace(owner, attribute, raw, wrapped)
        return self

    def _replace(self, owner: Any, attribute: str, raw: Any, wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._restore.append(lambda: setattr(owner, attribute, raw))
        if isinstance(owner, type):
            return
        # module-level function: rebind every `from module import name`
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if module is owner or not name.startswith("repro"):
                continue
            if module.__dict__.get(attribute) is raw:
                setattr(module, attribute, wrapped)
                self._restore.append(
                    lambda module=module: setattr(module, attribute, raw)
                )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- readings -------------------------------------------------------
    def ms(self, key: str) -> float:
        """Total self time of *key*, in milliseconds."""
        return self.self_s.get(key, 0.0) * 1000.0

    def ms_per_op(self, key: str) -> float:
        return self.ms(key) / self.op_count if self.op_count else 0.0

    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def unattributed_ratio(self) -> Optional[float]:
        """Share of traced operation time outside every layer span."""
        if self.op_total_s <= 0:
            return None
        return (self.op_total_s - self.attributed_s()) / self.op_total_s
