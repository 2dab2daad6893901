"""Plan-quality sweep: the cost-based optimizer vs the size-only greedy.

A join-aggregate workload over SF-scaled TPC-H and ACMDL (scale factor
``SCALE_FACTOR`` >= 2) runs twice on the same data in the same process:
once with ``optimizer="cost"`` (statistics, DP join ordering, access
paths) and once with ``optimizer="off"`` (the original size-only greedy
pipeline).  Three numbers gate the sweep:

* **total ratio** — optimizer-on wall time over optimizer-off wall time,
  summed across the whole workload.  The optimizer must never make the
  workload slower overall (``<= 1.0``).
* **big-join speedup** — optimizer-off over optimizer-on time on the
  >= 4-relation subset, where join-order choices dominate (``>= 1.3``).
  The cyclic queries (TPC-H Q5 shape: the supplier-customer
  nation/region edge closes a cycle) are the planted traps: the greedy
  min-product pick joins the expanding many-to-many edge early, the DP
  search defers it.
* **median q-error** — per-operator ``max(est/actual, actual/est)``
  collected from every optimized plan's :attr:`CompiledPlan.last_run`.
  The estimator may be wrong in the tails but must be right in the
  middle (``<= 4.0``).

Correctness is asserted before any timing means anything: both modes
must return canonically equal rows for every statement (float aggregates
are compared through ``rows_match``, since a different join order sums
in a different addition order).

Run it with ``python benchmarks/bench_planner.py``; the runner,
baseline and refresh procedure are described in ``check_regression.py``.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gates import Gate  # noqa: E402
from repro.backends.normalize import rows_match  # noqa: E402
from repro.datasets import generate_acmdl, generate_tpch  # noqa: E402
from repro.datasets.acmdl import AcmdlConfig  # noqa: E402
from repro.datasets.tpch import TpchConfig  # noqa: E402
from repro.observability import Tracer  # noqa: E402
from repro.relational.executor import Executor  # noqa: E402
from repro.sql.parser import parse  # noqa: E402

SCALE_FACTOR = 2.0  # the acceptance floor is SF >= 2
REPEATS = 3  # best-of-N to shed scheduler noise
BIG_JOIN_RELATIONS = 4  # the subset where join ordering dominates

# hard gates are machine-relative (both modes run in-process on the same
# data); the drift gates catch the DP search no longer finding the plans
# the greedy misses, or the statistics/selectivity model regressing
GATES = (
    Gate(
        "total_ratio",
        "<=",
        1.0,
        why="optimizer-on must not slow the workload down",
    ),
    Gate(
        "big_join_speedup",
        ">=",
        1.3,
        why=f"optimizer must win on the >={BIG_JOIN_RELATIONS}-relation subset",
    ),
    Gate(
        "median_q_error",
        "<=",
        4.0,
        why="cardinality estimates must be right in the middle",
    ),
    Gate("total_ratio", "<=", 1.5, drift="*", why="planner total ratio regressed"),
    Gate(
        "big_join_speedup", ">=", 0.65, drift="*", why="big-join speedup regressed"
    ),
    Gate("median_q_error", "<=", 1.0, drift="+", why="median q-error regressed"),
)

#: (dataset, qid, sql, relation count).  The >= 4-relation queries are
#: the plan-quality subset; the cyclic ones are the greedy traps.
WORKLOAD: Tuple[Tuple[str, str, str, int], ...] = (
    (
        "tpch",
        "q5-cycle",
        'SELECT N.nname, SUM(O.amount) AS rev FROM Customer C, "Order" O, '
        "Lineitem L, Supplier S, Nation N WHERE C.custkey = O.custkey "
        "AND O.orderkey = L.orderkey AND L.suppkey = S.suppkey "
        "AND S.nationkey = C.nationkey AND N.nationkey = C.nationkey "
        "GROUP BY N.nname",
        5,
    ),
    (
        "tpch",
        "region-cycle",
        "SELECT R.rname, SUM(O.amount) AS rev FROM Region R, Nation N1, "
        'Nation N2, Customer C, "Order" O, Lineitem L, Supplier S '
        "WHERE C.nationkey = N1.nationkey AND S.nationkey = N2.nationkey "
        "AND N1.regionkey = R.regionkey AND N2.regionkey = R.regionkey "
        "AND O.custkey = C.custkey AND L.orderkey = O.orderkey "
        "AND L.suppkey = S.suppkey GROUP BY R.rname",
        7,
    ),
    (
        "tpch",
        "nation-revenue",
        "SELECT N.nname, SUM(O.amount) AS total FROM Supplier S, Customer C, "
        '"Order" O, Nation N WHERE S.nationkey = N.nationkey '
        "AND C.nationkey = N.nationkey AND O.custkey = C.custkey "
        "GROUP BY N.nname",
        4,
    ),
    (
        "tpch",
        "france-parts",
        "SELECT P.type, COUNT(L.quantity) AS n FROM Part P, Lineitem L, "
        "Supplier S, Nation N WHERE L.partkey = P.partkey "
        "AND L.suppkey = S.suppkey AND S.nationkey = N.nationkey "
        "AND N.nname = 'FRANCE' GROUP BY P.type",
        4,
    ),
    (
        "tpch",
        "region-customers",
        "SELECT R.rname, COUNT(C.cname) AS n FROM Region R, Nation N, "
        "Customer C WHERE N.regionkey = R.regionkey "
        "AND C.nationkey = N.nationkey GROUP BY R.rname",
        3,
    ),
    (
        "tpch",
        "big-orders",
        'SELECT C.cname, COUNT(O.orderkey) AS n FROM Customer C, "Order" O '
        "WHERE O.custkey = C.custkey AND O.amount > 50000 GROUP BY C.cname",
        2,
    ),
    (
        "acmdl",
        "publisher-authors",
        "SELECT U.name, COUNT(A.lname) AS n FROM Publisher U, Proceeding P, "
        "Paper R, Write W, Author A WHERE P.publisherid = U.publisherid "
        "AND R.procid = P.procid AND W.paperid = R.paperid "
        "AND W.authorid = A.authorid GROUP BY U.name",
        5,
    ),
    (
        "acmdl",
        "editor-papers",
        "SELECT E.lname, COUNT(R.paperid) AS n FROM Editor E, Edit D, "
        "Proceeding P, Paper R WHERE D.editorid = E.editorid "
        "AND D.procid = P.procid AND R.procid = P.procid GROUP BY E.lname",
        4,
    ),
    (
        "acmdl",
        "long-proceedings",
        "SELECT A.lname, COUNT(P.procid) AS n FROM Author A, Write W, "
        "Paper R, Proceeding P WHERE W.authorid = A.authorid "
        "AND W.paperid = R.paperid AND R.procid = P.procid "
        "AND P.pages > 200 GROUP BY A.lname",
        4,
    ),
    (
        "acmdl",
        "papers-per-proceeding",
        "SELECT P.acronym, COUNT(R.paperid) AS n FROM Proceeding P, Paper R "
        "WHERE R.procid = P.procid GROUP BY P.acronym",
        2,
    ),
)


def _databases():
    return {
        "tpch": generate_tpch(TpchConfig().scaled(SCALE_FACTOR)),
        "acmdl": generate_acmdl(AcmdlConfig().scaled(SCALE_FACTOR)),
    }


def _time_one(executor: Executor, select) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        executor.execute(select)
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> Dict[str, float]:
    """Per-query optimizer-on vs optimizer-off timings plus q-errors."""
    databases = _databases()
    executors = {
        name: (
            Executor(database, optimizer="cost"),
            Executor(database, optimizer="off"),
        )
        for name, database in databases.items()
    }
    metrics: Dict[str, float] = {}
    q_errors: List[float] = []
    total_on = total_off = 0.0
    big_on = big_off = 0.0
    tracer = Tracer()
    for dataset, qid, sql, relations in WORKLOAD:
        on, off = executors[dataset]
        select = parse(sql)
        # correctness first (and this warms both plan caches): a benchmark
        # of two modes that disagree measures nothing
        assert rows_match(on.execute(select).rows, off.execute(select).rows), (
            f"{dataset} {qid}: optimizer on/off disagree"
        )
        on_s = _time_one(on, select)
        off_s = _time_one(off, select)
        plan = on.plan_for(select, tracer)
        plan.execute(tracer=tracer)
        assert plan.last_run is not None, f"{dataset} {qid}: no run observed"
        per_query_errors = plan.last_run.q_errors()
        q_errors.extend(per_query_errors)
        total_on += on_s
        total_off += off_s
        if relations >= BIG_JOIN_RELATIONS:
            big_on += on_s
            big_off += off_s
        metrics[f"{dataset}.{qid}.cost_ms"] = on_s * 1000.0
        metrics[f"{dataset}.{qid}.heuristic_ms"] = off_s * 1000.0
        metrics[f"{dataset}.{qid}.median_q_error"] = statistics.median(
            per_query_errors
        )
    metrics.update(
        {
            "total_cost_ms": total_on * 1000.0,
            "total_heuristic_ms": total_off * 1000.0,
            "total_ratio": total_on / total_off if total_off else float("inf"),
            "big_join_speedup": big_off / big_on if big_on else float("inf"),
            "median_q_error": statistics.median(q_errors),
            "observations": len(q_errors),
        }
    )
    return metrics


if __name__ == "__main__":
    from check_regression import main

    raise SystemExit(main(["planner"]))
