"""Benchmark for todafrob: one workload per run, one process, no worker threads.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up is timed in fresh interpreters, then one untimed warm-up
pass fixes the reference outputs, then passes are timed until ``--seconds``
have elapsed.  Every pass is checked against its own tolerances and against
the warm-up outputs.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line
reports the per-layer metrics from the traced ones.  Full results, with
provenance, go to ``.bench_out/<workload>[.trace].json`` and the traced
spans to ``.bench_out/<workload>.spans.npz``.  The exit code is 1 when an
answer is wrong and 2 when the checkout has no package to run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15
MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
                    "ok_ratio": "ratio"}

# Per-layer metrics, reported by every traced run.  Times are shares of
# the traced pass wall time, so a layer a workload never calls reads 0%.
CALL_SITES = [
    "laurent.divide_on_circle", "laurent.log_on_circle",
    "laurent.grid_to_series", "laurent.grid_eval",
    "manifold.tan_mul", "manifold.cot_mul", "manifold.eta_inverse",
    "manifold.metric_tangent",
    "manifold.check_membership.n96", "manifold.check_membership.n384",
    "canonical.canonical_data.n96", "canonical.canonical_data.n384",
    "canonical.du_pair", "canonical.char_velocities",
    "flatcoords.point_from_flat", "flatcoords.flat_coordinates",
    "potential.potential_F", "potential.flat_fd_triple",
    "potential.trilinear_form", "potential.triple_flat",
    "hierarchy.w_power_field", "hierarchy.log_w_field",
    "hierarchy.hamiltonian", "hierarchy.transport_residual",
    "hierarchy.LoopField.mul", "hierarchy.pb",
]
_LAX_FLOWS = ["s1", "sbar1", "s2", "t0", "t1", "u", "v"]
CALL_SITES += [f"hierarchy.rk4_step.{f}.k32" for f in _LAX_FLOWS]
CALL_SITES += [f"hierarchy.rk4_step.{f}.k128" for f in _LAX_FLOWS + ["t-1", "t-2"]]
PEAK_SITES = ["manifold.check_membership.n96", "manifold.check_membership.n384",
              "canonical.canonical_data.n96", "canonical.canonical_data.n384"]
SUITES = ["gram", "frobenius", "potential", "potential-fd", "quasihomogeneity",
          "tables", "intersection", "semisimplicity", "canonical", "charts",
          "poisson", "hierarchy", "commutators", "transport", "rk4",
          "kernel-adjoint", "certificates"]
LAYERS = ("laurent", "manifold", "flatcoords", "potential", "canonical",
          "hierarchy", "verify", "cli")
# Certified circle ops; reciprocal_on_circle delegates to divide_on_circle.
CERTIFIED = ("laurent.divide_on_circle", "laurent.log_on_circle")
WORKLOAD_NAMES = ("verify", "loop-primary", "loop-lax", "wide-point")


def per_layer_units() -> dict:
    units = {}
    for site in CALL_SITES:
        units[f"{site}.calls"] = "count"
        units[f"{site}.self_pct"] = "%"
    for site in PEAK_SITES:
        units[f"{site}.peak_mib"] = "MiB"
    units.update({
        "laurent.grid_eval.bytes": "B",
        "laurent.refused": "count",
        "laurent.accept_ratio": "ratio",
        "flatcoords.point_from_flat.refused": "count",
        "hierarchy.refused": "count",
        "hierarchy.accept_ratio": "ratio",
    })
    for suite in SUITES:
        units[f"verify.suite.{suite}.pct"] = "%"
    units["cli.report.pct"] = "%"
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units["trace.overhead_s"] = "s"
    units["trace.wall_s"] = "s"
    return units


# -- helpers ---------------------------------------------------------------


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "min": min(values), "max": max(values)}


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "todafrob").glob("*.py")))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(args, workload) -> dict:
    import numpy as np
    import todafrob

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "todafrob": todafrob.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "src_lines": src_line_count(),
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def workdir(name: str) -> str:
    path = OUT / f"{name}-work"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def setup_times(args) -> list[float]:
    """Fresh-interpreter set-up: spawn to inputs ready, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return times


# -- passes ----------------------------------------------------------------


class Tally:
    """Counts over the timed passes of one run."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = reference.wrong
        self.by_class: Counter = Counter()
        self.worst_ratio = reference.worst_ratio

    def add(self, res) -> None:
        if res.digest != self.reference.digest:
            res.wrong_answer("OutputMismatch")
        self.attempted += res.attempted
        self.failed += res.failed
        self.wrong += res.wrong
        self.by_class.update(res.by_class)
        self.worst_ratio = max(self.worst_ratio, res.worst_ratio)

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "failed_by_class": dict(sorted(self.by_class.items())),
            "wrong_answers": self.wrong,
            "resid_ratio": self.worst_ratio,
        }


def timed(run_pass, inputs):
    t0 = time.perf_counter()
    res = run_pass(inputs)
    return time.perf_counter() - t0, res


def run_untraced(workload, inputs, tally, seconds):
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, res = timed(workload.run_pass, inputs)
        walls.append(wall)
        tally.add(res)
    return walls


def run_traced(workload, inputs, tally, seconds, tracer):
    walls, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        wall, res = timed(workload.run_pass, inputs)
        walls.append(wall)
        tally.add(res)
        tracer.install()
        try:
            wall, res = timed(workload.run_pass, inputs)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tally.add(res)
    return walls, traced


# -- per-layer analysis ------------------------------------------------------


def report_seconds(a) -> float:
    """Time spent writing report.json: outermost json_text plus atomic_write."""
    import numpy as np

    names = np.array(a["names"])[a["name_idx"]]
    parent_names = np.where(a["parent"] >= 0, names[a["parent"]], "")
    dur = a["end"] - a["start"]
    outer = (names == "cli.json_text") & (parent_names != "cli.json_text")
    return float(dur[outer].sum() + dur[names == "cli.atomic_write"].sum())


ROADMAP_ROWS = [
    "manifold.tan_mul.n96", "manifold.tan_mul.n384",
    "manifold.check_membership.n96", "manifold.check_membership.n384",
    "canonical.canonical_data.n96", "canonical.canonical_data.n384",
    "hierarchy.rk4_step.s1.k32", "hierarchy.rk4_step.s1.k128",
    "hierarchy.rk4_step.t-2.k32", "hierarchy.rk4_step.t-2.k128",
]


def span_table(tracer, passes: int) -> dict:
    """Per span name: calls, refusals, self and total time per pass, and
    the median and 90th percentile of the calls that returned."""
    import numpy as np
    from tracing import self_times

    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    table = {}
    for i, name in enumerate(a["names"]):
        sel = a["name_idx"] == i
        done = np.sort(dur[sel & a["ok"]])
        row = {
            "calls_per_pass": int(sel.sum()) / passes,
            "refused_per_pass": int((sel & ~a["ok"]).sum()) / passes,
            "self_s_per_pass": float(own[sel].sum()) / passes,
            "total_s_per_pass": float(dur[sel].sum()) / passes,
        }
        if len(done):
            row["p50_ms"] = 1e3 * float(np.median(done))
            row["p90_ms"] = 1e3 * float(done[min(len(done) - 1, int(0.9 * len(done)))])
        if name in tracer.peak_bytes:
            row["peak_mib"] = max(tracer.peak_bytes[name]) / 2**20
        table[name] = row
    for (name, cls), n in tracer.refused.items():
        table[name].setdefault("refused_by_class", {})[cls] = n / passes
    return table


def layer_report(tracer, untraced: list[float], traced: list[float]):
    """(metrics, results): the per-layer metrics and the full tables."""
    passes = len(traced)
    table = span_table(tracer, passes)

    def total(site: str, key: str) -> float:
        """Sum of a column over the site's spans, size or case tags included."""
        return sum(row[key] for name, row in table.items()
                   if name == site or name.startswith(site + "."))

    def pct(seconds_per_pass: float) -> float:
        return 100.0 * seconds_per_pass * passes / sum(traced)

    m = {}
    for site in CALL_SITES:
        m[f"{site}.calls"] = total(site, "calls_per_pass")
        m[f"{site}.self_pct"] = pct(total(site, "self_s_per_pass"))
    for site in PEAK_SITES:
        m[f"{site}.peak_mib"] = table.get(site, {}).get("peak_mib", 0.0)
    m["laurent.grid_eval.bytes"] = tracer.counts["laurent.grid_eval.bytes"] / passes
    layer_refused = {layer: {} for layer in LAYERS}
    for (layer, cls), n in tracer.layer_refused.items():
        layer_refused[layer][cls] = n / passes
    m["laurent.refused"] = sum(layer_refused["laurent"].values())
    m["flatcoords.point_from_flat.refused"] = total("flatcoords.point_from_flat",
                                                    "refused_per_pass")
    m["hierarchy.refused"] = sum(layer_refused["hierarchy"].values())
    for name, sites in (("laurent", CERTIFIED), ("hierarchy", ("hierarchy.rk4_step",))):
        calls = sum(total(s, "calls_per_pass") for s in sites)
        refused = sum(total(s, "refused_per_pass") for s in sites)
        m[f"{name}.accept_ratio"] = 1.0 - refused / calls if calls else 1.0
    for suite in SUITES:
        m[f"verify.suite.{suite}.pct"] = pct(total(f"verify.suite.{suite}",
                                                   "total_s_per_pass"))
    report_s = report_seconds(tracer.arrays()) / passes
    m["cli.report.pct"] = pct(report_s)
    layers = {layer: {"self_s_per_pass": total(layer, "self_s_per_pass"),
                      "refused_per_pass": layer_refused[layer]} for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = pct(layers[layer]["self_s_per_pass"])
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    m["trace.wall_s"] = statistics.median(traced)
    roadmap = {}
    for name in ROADMAP_ROWS:
        row = table.get(name, {})
        if "p50_ms" in row:
            roadmap[name] = {k: row[k] for k in ("p50_ms", "p90_ms", "calls_per_pass")}
        else:
            roadmap[name] = ("every call refused" if row else
                             "not called on this workload")
    return m, {"layers": layers, "cli_report_s_per_pass": report_s,
               "roadmap_rows": roadmap, "spans": table}


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_end_to_end(args, workload, inputs, tally):
    """(metrics, results) of an untraced run."""
    setup = setup_times(args)
    walls = run_untraced(workload, inputs, tally, args.seconds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = tally.to_json()
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mib": rss_mib,
        "ok_ratio": 1.0 - counts["fail_ratio"],
    }
    # the five end-to-end figures; fail_ratio and resid_ratio stay out of
    # BENCHMARK.json (0 has no relative spread; residuals spread by seed)
    figures = {
        "setup_s": (metrics["setup_s"], "s"),
        "wall_s": (metrics["wall_s"], "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "fail_ratio": (counts["fail_ratio"], "ratio"),
        "resid_ratio": (counts["resid_ratio"], "ratio"),
    }
    for name, (value, unit) in figures.items():
        print(f"{workload.name} {name} = {value!r} {unit}")
    return metrics, {
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "setup_s": summary(setup),
        "wall_s": summary(walls),
    }


def measure_layers(args, workload, inputs, tally):
    """(metrics, results) of a traced run; the spans go to a file."""
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = run_traced(workload, inputs, tally, args.seconds, tracer)
    metrics, results = layer_report(tracer, untraced, traced)
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"{workload.name}.spans.npz"))
    for name, row in results["roadmap_rows"].items():
        print(f"{workload.name} {name}: {row}")
    print(f"{workload.name} tracing overhead {metrics['trace.overhead_s']!r} s "
          f"on {statistics.median(untraced)!r} s")
    results.update(untraced_wall_s=summary(untraced), traced_wall_s=summary(traced))
    return metrics, results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "todafrob" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'todafrob'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    # One process and no worker threads: pin the numerical libraries to one
    # thread before numpy is imported; the set-up probes inherit this.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.make_inputs(args.seed, workload.sizes, workdir(workload.name))
        print(repr(time.perf_counter()))
        return 0

    inputs = workload.make_inputs(args.seed, workload.sizes, workdir(workload.name))
    tally = Tally(workload.run_pass(inputs))  # the warm-up pass
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, results = measure(args, workload, inputs, tally)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    correct = tally.wrong == 0
    results = {"provenance": provenance(args, workload), "correct": correct,
               **tally.to_json(), **results}
    OUT.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    with open(OUT / f"{workload.name}{suffix}.json", "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"{workload.name} attempted={tally.attempted} failed={tally.failed} "
          f"by_class={dict(tally.by_class)} wrong={tally.wrong}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
