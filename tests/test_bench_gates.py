"""The regression benches' gate table, checked without timing anything.

Every gate in ``benchmarks/*`` ``GATES`` must have its reference value in
the committed ``benchmarks/BENCH_baseline.json``, must pass a synthetic
result exactly at its bound and fail one just past it, and must fail
(never skip) when its metric or its baseline value is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import check_regression  # noqa: E402

BASELINE = check_regression.load_baseline()
GATES = [
    (name, gate)
    for name, bench in check_regression.BENCHES.items()
    for gate in bench.GATES
]
IDS = [f"{name}:{gate.metric}{gate.op}{gate.drift}" for name, gate in GATES]


def _result(name, gate, value):
    """The bench's baseline metrics with the gated one replaced."""
    result = dict(BASELINE[name])
    result[gate.metric] = value
    if gate.when is not None:
        result[gate.when] = 1.0
    return result


def test_every_gate_key_has_a_baseline_value():
    missing = [
        f"{name}: {key}"
        for name, gate in GATES
        for key in (gate.metric, gate.when, *gate.context)
        if key is not None and key not in BASELINE.get(name, {})
    ]
    assert not missing, missing


@pytest.mark.parametrize("name,gate", GATES, ids=IDS)
def test_gate_passes_at_its_bound_and_fails_just_past_it(name, gate):
    baseline = BASELINE[name]
    bound = gate.bound(baseline)
    assert gate.evaluate(_result(name, gate, bound), baseline)[0]
    step = max(abs(bound), 1.0) * 1e-9
    past = bound - step if gate.op == ">=" else bound + step
    passed, report = gate.evaluate(_result(name, gate, past), baseline)
    assert not passed
    assert gate.metric in report
    for key in gate.context:
        assert f"{key}: baseline {baseline[key]}" in report


@pytest.mark.parametrize("name,gate", GATES, ids=IDS)
def test_missing_metric_or_baseline_value_fails(name, gate):
    baseline = BASELINE[name]
    at_bound = _result(name, gate, gate.bound(baseline))
    assert not gate.evaluate({}, baseline)[0]
    unmeasured = dict(at_bound)
    del unmeasured[gate.metric]
    assert not gate.evaluate(unmeasured, baseline)[0]
    if gate.when is not None:
        del at_bound[gate.when]
        assert not gate.evaluate(at_bound, baseline)[0]
    if gate.drift:
        no_baseline = {k: v for k, v in baseline.items() if k != gate.metric}
        passed, report = gate.evaluate(at_bound, no_baseline)
        assert not passed and "no baseline" in report


def test_conditional_gate_skips_only_when_its_condition_is_zero():
    conditional = [(name, gate) for name, gate in GATES if gate.when is not None]
    assert conditional
    for name, gate in conditional:
        baseline = BASELINE[name]
        far_past = _result(name, gate, -1e9 if gate.op == ">=" else 1e9)
        assert not gate.evaluate(far_past, baseline)[0]
        far_past[gate.when] = 0.0
        assert gate.evaluate(far_past, baseline)[0]
