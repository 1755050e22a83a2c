"""The suite registry and the verdicts it gives: every suite is declared
once in verify.SUITES, and a run that measured nothing or measured a NaN
never passes."""
from __future__ import annotations

import dataclasses
import inspect
import json
import math

import todafrob.cli as cli
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
