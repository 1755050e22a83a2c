"""The suite registry and the verdicts it gives: every suite is declared
once in verify.SUITES, and a run that measured nothing or measured a NaN
never passes."""
from __future__ import annotations

import collections
import dataclasses
import inspect
import json
import math
import re

import numpy as np
import pytest

import todafrob.cli as cli
import todafrob.flatcoords as fc
import todafrob.hierarchy as hi
import todafrob.manifold as mf
import todafrob.verify as vf


def fn_name(suite: str) -> str:
    return "suite_" + suite.replace("-", "_")


def test_registry_matches_the_suite_functions():
    config_fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    for name, suite in vf.SUITES.items():
        params = inspect.signature(getattr(vf, fn_name(name))).parameters
        assert "tol" not in params, name
        assert set(suite.sizes) <= set(params), name
        assert set(suite.sizes.values()) <= config_fields, name
    assert vf.SUITE_ORDER == list(vf.SUITES)
    assert vf.DEFAULT_TOLERANCES == {n: s.tol for n, s in vf.SUITES.items()}


def test_verify_passes_the_config_sizes_to_each_suite(tmp_path, monkeypatch):
    seen = {}

    def recorder(name):
        def fake(seed, **sizes):
            seen[name] = sizes
            acc = vf._Acc()
            acc.add(0.0)
            return acc
        return fake

    for name in vf.SUITES:
        monkeypatch.setattr(vf, fn_name(name), recorder(name))
    code = cli.main(["verify", "--seed", "1", "--N", "12", "--n-max", "3",
                     "--K", "16", "--outdir", str(tmp_path)])
    assert code == 0
    want = {name: {} for name in vf.SUITES}
    want["gram"] = {"n": 12, "kmax": 3}
    for name in ("frobenius", "potential", "quasihomogeneity", "intersection",
                 "semisimplicity", "canonical"):
        want[name] = {"n": 12}
    for name in ("poisson", "hierarchy", "commutators", "transport", "rk4"):
        want[name] = {"nodes": 16}
    assert seen == want


def test_a_nan_residual_is_kept_as_the_worst():
    for residuals in ([math.nan, 1.0], [1.0, math.nan, 2.0]):
        acc = vf._Acc()
        for r in residuals:
            acc.add(r)
        assert math.isnan(acc.worst) and acc.count == len(residuals)


def test_a_nan_residual_fails_its_suite(tmp_path, monkeypatch):
    def nan_suite(seed, **sizes):
        acc = vf._Acc()
        acc.add(math.nan)
        return acc

    monkeypatch.setattr(vf, "suite_kernel_adjoint", nan_suite)
    assert not vf.run_suite("kernel-adjoint", 42).passed
    code = cli.main(["verify", "--seed", "42", "--suites", "kernel-adjoint",
                     "--outdir", str(tmp_path)])
    assert code == 1
    (suite,) = json.loads((tmp_path / "report.json").read_text())["suites"]
    assert suite["pass"] is False and suite["max_residual"] is None


def test_a_suite_that_tested_no_points_fails():
    res = vf.run_suite("intersection", 42, samples=0)
    assert res.points_tested == 0 and res.max_residual == 0.0
    assert not res.passed


def test_potential_fd_widens_the_chart_at_seed_32():
    # the w spectrum tail at seed 32 is 1.57e-12 on [-100, 100]: the
    # chart rebuild widens to [-140, 140] instead of refusing
    result = vf.run_suite("potential-fd", 32)
    assert result.points_tested == 3 and result.passed, result.line()


# -- the hierarchy suite's step ladder --------------------------------------

NOTE = re.compile(r"(\w+) h=([0-9.e-]+) est ([0-9.e+-]+)")


def count_steps(monkeypatch) -> collections.Counter:
    steps = collections.Counter()
    real = hi.rk4_step

    def counted(L, flow, h):
        steps[flow, h] += 1
        return real(L, flow, h)

    monkeypatch.setattr(hi, "rk4_step", counted)
    return steps


def set_hierarchy_tol(monkeypatch, tol: float) -> None:
    suite = vf.SUITES["hierarchy"]._replace(tol=tol)
    monkeypatch.setitem(vf.SUITES, "hierarchy", suite)


def test_every_hierarchy_flow_accepts_h_of_1e_2_at_seed_42():
    res = vf.run_suite("hierarchy", 42)
    assert res.passed and res.points_tested == 13
    (note,) = res.notes
    assert "gate 1.0e-10" in note
    picked = {name: (float(h), float(est)) for name, h, est in NOTE.findall(note)}
    assert set(picked) == {"s1", "sbar1", "t0"}
    for h, est in picked.values():
        assert h == 1e-2 and 0.0 < est < 1e-10


def test_hierarchy_takes_45_rk4_steps_at_seed_42(monkeypatch):
    steps = count_steps(monkeypatch)
    vf.suite_hierarchy(42)
    # per flow: 5 steps at h = 2e-2 and 10 at the accepted 1e-2
    assert sum(steps.values()) == 45


def test_a_tighter_gate_descends_and_integrates_each_step_once(monkeypatch):
    set_hierarchy_tol(monkeypatch, 1e-10)  # gate 1e-12
    steps = count_steps(monkeypatch)
    acc = vf.suite_hierarchy(42)
    used = collections.defaultdict(list)
    for (flow, h), n in steps.items():
        assert n == round(0.1 / h), (flow, h)
        used[flow].append(h)
    ladder = list(vf.HIERARCHY_STEPS)
    for flow, hs in used.items():
        assert sorted(hs, reverse=True) == ladder[:len(hs)], flow
    assert len(used["s", 1]) > 2 and len(used["t", 0]) > 2
    assert len(used["sbar", 1]) == 2
    (note,) = acc.notes
    picked = {name: float(h) for name, h, _ in NOTE.findall(note)}
    assert picked == {"s1": min(used["s", 1]), "sbar1": 1e-2,
                      "t0": min(used["t", 0])}
    assert acc.count == 13 and acc.worst < 1e-10


def test_a_gate_no_step_meets_fails_the_suite(tmp_path, monkeypatch):
    set_hierarchy_tol(monkeypatch, 1e-300)  # the gate only
    monkeypatch.setattr(vf, "HIERARCHY_STEPS", vf.HIERARCHY_STEPS[:2])
    code = cli.main(["verify", "--seed", "42", "--suites", "hierarchy",
                     "--tol", "hierarchy=1e-8", "--outdir", str(tmp_path)])
    assert code == 1
    (suite,) = json.loads((tmp_path / "report.json").read_text())["suites"]
    assert suite["pass"] is False and suite["max_residual"] is None
    assert suite["tolerance"] == 1e-8


# -- the tables suite lowers each frame once ---------------------------------


def assert_bit_equal(got: mf.Tangent, want: mf.Tangent) -> None:
    for g, w in ((got.a, want.a), (got.ab, want.ab)):
        assert g.lo == w.lo and np.array_equal(g.c, w.c)


@pytest.mark.parametrize("where", ["locus", "sample"])
def test_lowered_products_are_bit_equal_to_tan_mul(where):
    if where == "locus":
        pt = mf.locus_point(0.3, -0.2)
        xs = [fc.flat_frame(pt, m).scale(-1.0) for m in (-3, 0, 2)] + [mf.frame_u(pt)]
    else:
        pt = mf.sample_point(5)
        xs = [mf.sample_tangent(s) for s in (11, 12, 13)]
    low = [vf._lower(pt, x) for x in xs]
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            assert_bit_equal(vf._lowered_mul(pt, low[i], low[j]), mf.tan_mul(pt, x, y))


def test_tables_lower_each_frame_once_per_point(monkeypatch):
    calls = []
    real = mf.eta_inverse
    monkeypatch.setattr(mf, "eta_inverse",
                        lambda pt, x: calls.append(1) or real(pt, x))
    assert vf.run_suite("tables", 0).passed
    # 12 frames at each locus point, 11 at each reduced point, and the
    # small quantum table's three tan_mul
    assert len(calls) == 52
