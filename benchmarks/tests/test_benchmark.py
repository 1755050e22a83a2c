"""Tests of the benchmark itself: seeded inputs, span arithmetic, refusal
accounting, and agreement between BENCHMARK.json and the runner."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from todafrob import canonical, hierarchy, manifold, potential  # noqa: E402
from todafrob import laurent as la  # noqa: E402
from todafrob import verify as vf  # noqa: E402

SMALL = {
    "verify": dict(wl.VERIFY_SIZES),
    "loop-primary": dict(wl.PRIMARY_SIZES, K=32, flows=["t:-1"], pool=3,
                         accepted_steps=2, steps_per_trajectory=1),
    "loop-lax": dict(wl.LAX_SIZES, K=32, flows=["s1", "v"], T=2e-3),
    "wide-point": dict(wl.WIDE_SIZES, N=[16, 24]),
}


def _flatten(obj):
    """Every array and scalar reachable from a workload's inputs."""
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _flatten(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return _flatten([getattr(obj, f) for f in obj.__dataclass_fields__])
    if isinstance(obj, hierarchy.LoopField):
        return [obj.lo, obj.coeffs]
    if hasattr(obj, "lo") and hasattr(obj, "c"):
        return [obj.lo, obj.c]
    return [obj]


def _same(a, b) -> bool:
    fa, fb = _flatten(a), _flatten(b)
    return len(fa) == len(fb) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(fa, fb))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    w = wl.WORKLOADS[name]
    first = w.make_inputs(7, SMALL[name], str(tmp_path))
    again = w.make_inputs(7, SMALL[name], str(tmp_path))
    other = w.make_inputs(8, SMALL[name], str(tmp_path))
    assert _same(first, again)
    assert not _same(first, other)


def test_self_time_on_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]    2   a1 [2, 3] (child of a)
    #   3   b  [5, 6]
    #   4 root2 [20, 24] with children [21, 23] and [22, 26] overlapping
    #     and running past their parent: covered is [21, 24]
    start = [0, 1, 2, 5, 20, 21, 22]
    end = [10, 4, 3, 6, 24, 23, 26]
    parent = [-1, 0, 1, 0, -1, 4, 4]
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == [6, 2, 1, 1, 1, 2, 4]


def test_tracer_wraps_names_imported_by_other_modules():
    original = manifold.tan_mul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert canonical.tan_mul is manifold.tan_mul is not original
        assert potential.point_from_flat.__wrapped__ is not None
        pt = manifold.sample_point(3, n=8)
        x = manifold.sample_tangent(4)
        canonical.du_pair(pt, np.array([1.0 + 0j]), manifold.tan_mul(pt, x, x))
    finally:
        tracer.uninstall()
    assert manifold.tan_mul is original and canonical.tan_mul is original
    names = tracer.name
    top = names.index("manifold.tan_mul.n8")
    assert tracer.parent[top] == -1
    kids = [names[i] for i, p in enumerate(tracer.parent) if p == top]
    assert "manifold.eta_inverse" in kids and "manifold.cot_mul" in kids
    # the second top-level call is a new operation
    assert tracer.op[names.index("canonical.du_pair")] == tracer.op[top] + 1


def _failing_once(monkeypatch):
    real = hierarchy.rk4_step
    calls = []

    def rk4_step(L, flow, h):
        calls.append(flow)
        if len(calls) == 1:
            raise hierarchy.TailOverflow("forced")
        return real(L, flow, h)

    monkeypatch.setattr(hierarchy, "rk4_step", rk4_step)


@pytest.mark.parametrize("name", ["loop-primary", "loop-lax"])
def test_a_forced_refusal_raises_fail_ratio(name, tmp_path, monkeypatch):
    w = wl.WORKLOADS[name]
    inputs = w.make_inputs(5, SMALL[name], str(tmp_path))
    clean = w.run_pass(inputs)
    tally = run.Tally(clean)
    tally.add(w.run_pass(inputs))
    assert tally.to_json()["fail_ratio"] == 0.0

    _failing_once(monkeypatch)
    refused = w.run_pass(inputs)
    assert refused.by_class["TailOverflow"] == 1
    assert refused.wrong == 0  # a refusal is counted, not a wrong answer
    tally.add(refused)
    assert tally.to_json()["fail_ratio"] > 0.0
    assert tally.failed == 1 + tally.by_class["OutputMismatch"]


def test_a_refused_verify_suite_costs_only_that_suite(tmp_path, monkeypatch):
    inputs = wl.verify_inputs(3, wl.VERIFY_SIZES, str(tmp_path))
    inputs.commands = [c for c in inputs.commands
                       if c[-1] in ("kernel-adjoint", "certificates")]
    assert len(inputs.commands) == 2

    def refuse(*args, **kwargs):
        raise la.TruncationLoss("forced")

    monkeypatch.setattr(vf, "suite_kernel_adjoint", refuse)
    res = wl.verify_pass(inputs)
    assert (res.attempted, res.failed, res.wrong) == (2, 1, 0)
    assert res.by_class["TruncationLoss"] == 1


def test_loop_primary_keeps_its_accepted_step_quota(tmp_path, monkeypatch):
    w = wl.WORKLOADS["loop-primary"]
    inputs = w.make_inputs(5, SMALL["loop-primary"], str(tmp_path))
    _failing_once(monkeypatch)
    steps = []
    real = hierarchy.rk4_step
    monkeypatch.setattr(hierarchy, "rk4_step",
                        lambda L, flow, h: steps.append(flow) or real(L, flow, h))
    res = w.run_pass(inputs)
    quota = SMALL["loop-primary"]["accepted_steps"]
    assert res.failed == 1 and len(steps) == quota + 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert len(spec["per_layer"]) <= 128
    assert run.SUITES == vf.SUITE_ORDER and run.LAYERS == tracing.LAYERS
