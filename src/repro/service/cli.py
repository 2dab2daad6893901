"""``python -m repro serve`` — run the query service over HTTP.

Builds the requested built-in datasets (semantic engine plus SQAK
baseline each), wraps them in a :class:`~repro.service.service.QueryService`
and serves them with the stdlib HTTP front end::

    python -m repro serve --port 8080
    python -m repro serve --port 8080 --datasets university,tpch
    python -m repro serve --port 0 --workers 8 --queue-limit 32

``--port 0`` binds a free port (printed on startup), which is what the
smoke script and the CI job use.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.service.config import ServiceConfig
from repro.service.http import make_server
from repro.service.service import QueryService

__all__ = ["build_service", "build_worker_factory", "run_serve"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve keyword search over HTTP (stdlib only)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 binds a free port"
    )
    parser.add_argument(
        "--datasets",
        default="university",
        help="comma-separated built-in datasets to serve (default: university)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument(
        "--worker-processes",
        type=int,
        default=0,
        help="engine-owning worker processes (0: serve in-process)",
    )
    parser.add_argument(
        "--worker-context",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: fork where available)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=5000.0,
        help="default per-request deadline; 0 disables",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=30.0,
        help="result-cache TTL in seconds; 0 disables caching",
    )
    parser.add_argument(
        "--k", type=int, default=3, help="default interpretations per query"
    )
    return parser


def _build_runtimes(dataset_names: Tuple[str, ...]) -> Dict[str, Tuple[Any, Any]]:
    """Materialize the built-in *dataset_names* as ``{name: (engine, sqak)}``.

    Module-level so :func:`build_worker_factory` can wrap it in a
    picklable ``functools.partial`` — the shape spawn-mode worker pools
    need (a spawned child re-runs this, building its own engines)."""
    from repro.baselines import SqakEngine
    from repro.cli import load_dataset
    from repro.engine import KeywordSearchEngine

    runtimes: Dict[str, Tuple[Any, Any]] = {}
    for name in dataset_names:
        database, fds, name_hints, extra_joins = load_dataset(name)
        engine = KeywordSearchEngine(
            database, fds=fds or None, name_hints=name_hints or None
        )
        sqak = SqakEngine(database, extra_joins=extra_joins)
        runtimes[name] = (engine, sqak)
    return runtimes


def build_worker_factory(
    dataset_names: List[str],
) -> Callable[[], Mapping[str, Tuple[Any, Any]]]:
    """A picklable worker factory over the built-in *dataset_names*.

    Pass this as ``QueryService(..., worker_factory=...)`` when running a
    worker pool under the ``spawn`` start method (fork-less platforms):
    engines cannot be pickled, so each spawned worker rebuilds them."""
    return functools.partial(_build_runtimes, tuple(dataset_names))


def build_service(
    dataset_names: List[str],
    config: ServiceConfig,
) -> QueryService:
    """A service with one semantic engine + SQAK baseline per dataset."""
    worker_factory = None
    if config.worker_processes > 0:
        from repro.service.pool import default_start_method

        # fork-mode pools inherit the parent's engines copy-on-write (no
        # factory needed); spawn-mode pools rebuild from this picklable one
        if (config.worker_context or default_start_method()) != "fork":
            worker_factory = build_worker_factory(dataset_names)
    service = QueryService(config, worker_factory=worker_factory)
    for name, runtime in _build_runtimes(tuple(dataset_names)).items():
        service.register_dataset(name, runtime[0], sqak=runtime[1])
    return service


def run_serve(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_serve_parser().parse_args(argv)
    names = [name.strip() for name in args.datasets.split(",") if name.strip()]
    if not names:
        print("error: no datasets requested", file=out)
        return 2
    try:
        config = ServiceConfig(
            max_workers=args.workers,
            queue_limit=args.queue_limit,
            default_deadline_s=(
                args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None
            ),
            default_k=args.k,
            cache_ttl_s=args.cache_ttl,
            worker_processes=args.worker_processes,
            worker_context=args.worker_context,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(f"loading datasets: {', '.join(names)}", file=out)
    service = build_service(names, config)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    with service:
        pool_note = (
            f", {config.worker_processes} worker processes"
            if config.worker_processes > 0
            else ""
        )
        print(
            f"serving on http://{host}:{port} "
            f"({config.max_workers} workers, queue {config.queue_limit}"
            f"{pool_note})",
            file=out,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=out)
        finally:
            # drain in-flight requests before the service (and its pool)
            # stops: accepted requests get their responses, new
            # connections are refused
            stragglers = server.stop(grace_s=config.shutdown_grace_s)
            for name in stragglers:
                print(f"abandoning stuck request thread {name}", file=out)
    return 0
