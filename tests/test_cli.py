"""Command line contract: exit codes, determinism, output structure."""
from __future__ import annotations

import json

import numpy as np
import pytest

import todafrob.cli as cli

FAST = "kernel-adjoint,certificates"


def run(*argv) -> int:
    return cli.main(list(argv))


def test_verify_selected_suites_pass(tmp_path):
    code = run("verify", "--seed", "42", "--suites", FAST,
               "--outdir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    assert report["seed"] == 42
    names = [s["name"] for s in report["suites"]]
    assert names == ["kernel-adjoint", "certificates"]
    for s in report["suites"]:
        assert set(s) == {"name", "points_tested", "max_residual",
                          "tolerance", "pass"}
        assert s["pass"] is True
        assert 0.0 <= s["max_residual"] < s["tolerance"]


def test_zero_tolerance_forces_failure(tmp_path):
    code = run("verify", "--seed", "42", "--suites", "kernel-adjoint",
               "--tol", "kernel-adjoint=0", "--outdir", str(tmp_path))
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is False
    assert report["suites"][0]["tolerance"] == 0.0


def test_unknown_suite_is_config_error(tmp_path, capsys):
    code = run("verify", "--seed", "42", "--suites", "nonsense",
               "--outdir", str(tmp_path))
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


def test_config_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text('{"seed": 42,\n "suites": [}\n')
    code = run("verify", "--config", str(bad), "--outdir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_seed_for_randomized_suite(tmp_path, capsys):
    code = run("verify", "--suites", "kernel-adjoint", "--outdir", str(tmp_path))
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_config_file_drives_run_and_flags_override(tmp_path):
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({
        "seed": 42,
        "suites": ["kernel-adjoint"],
        "tolerances": {"kernel-adjoint": 1e-12},
        "outdir": str(tmp_path / "a"),
    }))
    assert run("verify", "--config", str(cfgfile)) == 0
    assert (tmp_path / "a" / "report.json").exists()
    # the command line wins over the file
    code = run("verify", "--config", str(cfgfile),
               "--tol", "kernel-adjoint=0", "--outdir", str(tmp_path / "b"))
    assert code == 1


def test_negative_tolerance_rejected(tmp_path, capsys):
    code = run("verify", "--seed", "42", "--suites", "kernel-adjoint",
               "--tol", "kernel-adjoint=-1", "--outdir", str(tmp_path))
    assert code == 2
    assert "nonnegative" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("verify", "--seed", "9", "--suites", FAST, "--outdir", str(a)) == 0
    assert run("verify", "--seed", "9", "--suites", FAST, "--outdir", str(b)) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_there_is_no_parallel_option(tmp_path, capsys):
    # suites run one after another: a --parallel flag or a "parallel"
    # config key is a usage error
    assert run("verify", "--seed", "9", "--suites", FAST, "--parallel",
               "--outdir", str(tmp_path)) == 2
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({"seed": 9, "parallel": True}))
    assert run("verify", "--config", str(cfgfile), "--outdir", str(tmp_path)) == 2
    assert "unknown key 'parallel'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_gram_csv_structure(tmp_path):
    assert run("gram", "--seed", "7", "--outdir", str(tmp_path)) == 0
    lines = (tmp_path / "gram.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "frame"
    labels = header[1:]
    assert len(labels) == 11 and len(lines) == 12
    assert labels[:3] == ["t-4", "t-3", "t-2"] and labels[-2:] == ["u", "v"]
    worst = 0.0
    for row in lines[1:]:
        cells = row.split(",")
        ra = cells[0]
        for lb, cell in zip(labels, cells[1:]):
            got = complex(cell)
            if ra.startswith("t") and lb.startswith("t"):
                want = 1.0 if int(ra[1:]) + int(lb[1:]) == -1 else 0.0
            elif ra in ("u", "v") and lb in ("u", "v"):
                want = 1.0 if ra != lb else 0.0
            else:
                want = 0.0
            worst = max(worst, abs(got - want))
    assert worst < 1e-9


def test_gram_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gram", "--seed", "7", "--outdir", str(a)) == 0
    assert run("gram", "--seed", "7", "--outdir", str(b)) == 0
    assert (a / "gram.csv").read_bytes() == (b / "gram.csv").read_bytes()


def test_potential_locus_value(tmp_path):
    assert run("potential", "--u", "0.3", "--v", "0.2",
               "--outdir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "potential.json").read_text())
    assert abs(doc["F"]["re"] - 0.006) < 1e-12
    assert abs(doc["F"]["im"]) < 1e-12
    assert doc["deviation"] < 1e-12
    assert doc["quasihomogeneity_residual"] < 1e-6


def test_flow_ledger_conservation(tmp_path):
    assert run("flow", "--seed", "3", "--flow", "s1", "--T", "0.1",
               "--h", "1e-3", "--outdir", str(tmp_path)) == 0
    lines = (tmp_path / "flow_ledger.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["step", "time", "H1", "Hbar1", "H2",
                      "tail_norm", "u1_drift"]
    assert len(lines) == 102  # header + 101 records
    h1 = [complex(r.split(",")[2]) for r in lines[1:]]
    assert max(abs(z - h1[0]) for z in h1) < 1e-9
    drift = [float(r.split(",")[6]) for r in lines[1:]]
    assert max(drift) == 0.0

    snaps = json.loads((tmp_path / "flow_snapshots.json").read_text())
    assert snaps[0]["time"] == 0.0
    assert abs(snaps[-1]["time"] - 0.1) < 1e-12
    assert {"nodes", "lam", "lbar"} <= set(snaps[0]["loop"])


# 0.07 / 0.01 = 7.000000000000001: a whole number of steps up to rounding
@pytest.mark.parametrize("T, h, steps", [("0.1", "0.025", 4), ("0.07", "0.01", 7)])
def test_flow_reaches_T_in_whole_steps(tmp_path, T, h, steps):
    assert run("flow", "--seed", "3", "--flow", "s1", "--T", T,
               "--h", h, "--outdir", str(tmp_path)) == 0
    lines = (tmp_path / "flow_ledger.csv").read_text().strip().split("\n")
    assert len(lines) == steps + 2  # header + records at steps 0..steps
    assert abs(float(lines[-1].split(",")[1]) - float(T)) < 1e-15


def test_flow_rejects_bad_tag(tmp_path, capsys):
    code = run("flow", "--seed", "3", "--flow", "zz", "--outdir", str(tmp_path))
    assert code == 2
    assert "unknown flow" in capsys.readouterr().err


def test_flow_rejects_tags_outside_the_hierarchy(tmp_path, capsys):
    # s0 and sbar0 once ran a zero flow
    for tag in ["s0", "sbar0", "s-1", "t:1.5", "w"]:
        code = run("flow", "--seed", "3", "--flow", tag, "--outdir", str(tmp_path))
        assert code == 2, tag
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown flow {tag!r}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_canonical_csv(tmp_path):
    assert run("canonical", "--seed", "5", "--outdir", str(tmp_path)) == 0
    lines = (tmp_path / "canonical.csv").read_text().strip().split("\n")
    assert len(lines) == 257
    header = lines[0].split(",")
    assert header[0] == "j" and "re_u_sigma" in header
    vals = np.array([[float(x) for x in r.split(",")] for r in lines[1:]])
    assert np.all(np.isfinite(vals))
    # the p column walks the unit circle
    r = np.hypot(vals[:, 1], vals[:, 2])
    assert np.max(np.abs(r - 1.0)) < 1e-12


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "CONFIG"],
    ["verify", "--seed", "1", "--tol", "gram=abc"],
    ["verify", "--seed", "1", "--K", "0"],
    ["verify", "--seed", "1", "--N", "0"],
    ["gram", "--seed", "-1"],
    ["potential", "--u", "nan"],
    ["flow", "--seed", "1", "--h", "0"],
    ["flow", "--seed", "1", "--h", "-0.001"],
    ["flow", "--seed", "1", "--h", "0.2", "--T", "0.1"],
    ["flow", "--seed", "1", "--h", "0.04", "--T", "0.1"],
    ["flow", "--seed", "1", "--T", "-1"],
    ["flow", "--seed", "1", "--record-every", "0"],
    ["canonical", "--seed", "1", "--grid", "5"],
])
def test_bad_input_is_one_line_and_exit_2(tmp_path, capsys, argv):
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({"seed": 1, "tolerances": {"gram": "abc"}}))
    argv = [str(cfgfile) if a == "CONFIG" else a for a in argv]
    assert run(*argv, "--outdir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("argv", [
    ["verify", "--bogus"],
    ["verify", "--seed", "abc"],
    ["flow", "--T", "x"],
    ["verify", "--seed"],
    ["nonsense"],
    [],
])
def test_usage_errors_are_one_line_and_exit_2(tmp_path, monkeypatch, capsys, argv):
    # argparse's own errors once printed the usage block as well
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 0
    assert "usage: todafrob" in capsys.readouterr().out


@pytest.mark.parametrize("u", ["100", "16.92982", "15", "-30"])
def test_potential_out_of_reach_is_one_line_and_exit_2(tmp_path, capsys, u):
    # u = 100: F cancels to rounding; u = 16.92982 and 15: F passes, but the
    # Euler derivative of the quasihomogeneity check is lost to rounding;
    # u = -30: e^u is too small
    assert run("potential", f"--u={u}", "--v", "0.2", "--outdir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("potential refused") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_smallest_canonical_grid_runs(tmp_path):
    assert run("canonical", "--seed", "1", "--grid", "6", "--outdir", str(tmp_path)) == 0
    assert len((tmp_path / "canonical.csv").read_text().strip().split("\n")) == 7
