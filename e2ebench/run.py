"""End-to-end benchmark of the keyword-query path.

Run from the repository root::

    python3 e2ebench/run.py --workload warm-mix --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate traced run that reports per-layer self time
and counts plus the closure check.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value": ..., "unit": ...}``).  Notes go to standard error.

The workloads, their layers and the metric predictions are described in
``METRICS.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKLOADS = ("warm-mix", "disk-mix", "fresh-serve")


def _cpu_ticks():
    """(all, steal) CPU ticks of the machine so far, from /proc/stat;
    None where it cannot be read."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return sum(fields[:8]), fields[7]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"e2ebench: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, HERE]
    from closed_loop import run_closed_loop
    from fresh_serve import run_fresh_serve

    runner = run_fresh_serve if args.workload == "fresh-serve" else run_closed_loop
    # disk-backend files live inside the checkout, one directory per run
    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    ticks_before = _cpu_ticks()
    try:
        outcome = runner(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ticks_after = _cpu_ticks()
    if ticks_before and ticks_after and ticks_after[0] > ticks_before[0]:
        # the hypervisor's share of this machine's CPU time during the run;
        # every latency here grows with it (see METRICS.md)
        steal = ticks_after[1] - ticks_before[1]
        total = ticks_after[0] - ticks_before[0]
        outcome.notes.insert(0, f"host steal {steal / total:.1%} of CPU time")
    for note in outcome.notes[:20]:
        print(f"e2ebench: {note}", file=sys.stderr)
    if len(outcome.notes) > 20:
        print(f"e2ebench: ... {len(outcome.notes) - 20} more notes", file=sys.stderr)
    report = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
