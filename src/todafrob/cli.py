"""Command line front end: seeded identity suites and data exports.

Subcommands: verify | gram | potential | flow | canonical.  A JSON
config file supplies defaults; every field is overridable by a flag.
All numeric output is fixed at 17 significant digits and files are
written atomically, so identical configs produce byte-identical runs.
Exit codes: 0 pass, 1 suite or run failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import canonical as ca
from . import flatcoords as fc
from . import hierarchy as hi
from . import laurent as la
from . import manifold as mf
from . import potential as po
from . import verify as vf


class ConfigError(ValueError):
    pass


# -- fixed-precision serialization ---------------------------------------


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def json_text(obj, indent: int = 0) -> str:
    """JSON writer with floats pinned to 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj) if math.isfinite(obj) else "null"  # JSON has no NaN
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return json_text({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {json_text(v, indent + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return json_text(list(obj), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _out_path(cfg: RunConfig, name: str) -> str:
    """Path of an output file in the output directory, which is created."""
    os.makedirs(cfg.outdir, exist_ok=True)
    return os.path.join(cfg.outdir, name)


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    atomic_write(path, "\n".join(lines) + "\n")


# -- configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    seed: int | None = None
    N: int = vf.SIZES["N"]
    n_max: int = vf.SIZES["n_max"]
    K: int = vf.SIZES["K"]
    tolerances: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)
    outdir: str = "."


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}

# Numeric settings, from the config file or a flag: kind, smallest value
# allowed (None: any finite value) and whether that value is excluded.
_NUMBERS = {
    "seed": (int, 0, False), "N": (int, 1, False), "n_max": (int, 0, False),
    "K": (int, 1, False), "kmax": (int, 0, False), "record_every": (int, 1, False),
    "grid": (int, 6, False), "T": (float, 0.0, True), "h": (float, 0.0, True),
    "u": (float, None, False), "v": (float, None, False),
}


def _number(key: str, val, kind=float, lo=None, strict=False):
    """val as a finite number of the given kind, at least lo (above lo if strict)."""
    try:
        x = kind(val)
        ok = not isinstance(val, bool) and (x == val if kind is int else math.isfinite(x))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if ok and lo is not None:
        ok = x > lo if strict else x >= lo
    if not ok:
        noun = "integer" if kind is int else "finite number"
        if lo is None:
            want = f"a {noun}"
        elif lo == 0:
            want = f"a {'positive' if strict else 'nonnegative'} {noun}"
        else:
            want = f"an {noun} >= {lo}"
        raise ConfigError(f"{key} must be {want}, got {val!r}")
    return x


# The other settings: type and wording.
_KINDS = {"tolerances": (dict, "an object"), "suites": (list, "a list"), "outdir": (str, "a string")}


def _setting(key: str, val):
    """One setting from the config file or the command line, checked."""
    if key in _NUMBERS:
        return _number(key, val, *_NUMBERS[key])
    kind, want = _KINDS[key]
    if not isinstance(val, kind):
        raise ConfigError(f"{key} must be {want}")
    if key == "tolerances":
        for name in val:
            if name not in vf.SUITES:
                raise ConfigError(f"unknown suite in tolerances: {name!r}")
        return {name: _number(f"tolerance for {name}", v, float, 0.0)
                for name, v in val.items()}
    if key == "suites":
        for name in val:
            if not isinstance(name, str) or name not in vf.SUITES:
                raise ConfigError(f"unknown suite {name!r}")
    return val


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config {path} line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    for key, val in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        try:
            setattr(cfg, key, _setting(key, val))
        except ConfigError as e:
            raise ConfigError(f"config {path}: {e}") from None
    return cfg


def parse_flow_tag(text: str):
    """The flow tag of s<n>, sbar<n> (n >= 1), t:<a>, u or v, checked by
    ca.flow_tag; anything else is a ConfigError."""
    m = re.fullmatch(r"(s|sbar|t:)(-?\d+)", text)
    flow = (m.group(1).rstrip(":"), int(m.group(2))) if m else text
    try:
        ca.flow_tag(flow)
    except ValueError:
        raise ConfigError(f"unknown flow {text!r}; expected s<n>, sbar<n> with n >= 1, "
                          f"t:<a>, u, v") from None
    return flow


# -- verify ----------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    names = cfg.suites or list(vf.SUITE_ORDER)
    randomized = [n for n in names if vf.SUITES[n].randomized]
    if cfg.seed is None and randomized:
        raise ConfigError(
            f"seed is required for randomized suites: {', '.join(randomized)}"
        )
    seed = cfg.seed if cfg.seed is not None else 0

    def run(name: str) -> vf.SuiteResult:
        sizes = {kw: getattr(cfg, f) for kw, f in vf.SUITES[name].sizes.items()}
        return vf.run_suite(name, seed, cfg.tolerances.get(name), **sizes)

    results = [run(name) for name in names]

    for r in results:
        print(r.line())
        for note in r.notes:
            print(f"    note: {note}")
    ok = all(r.passed for r in results)
    report = {
        "seed": seed,
        "suites": [r.to_json_dict() for r in results],
        "pass": ok,
    }
    atomic_write(_out_path(cfg, "report.json"), json_text(report) + "\n")
    return 0 if ok else 1


# -- gram ------------------------------------------------------------------


def cmd_gram(cfg: RunConfig, kmax: int) -> int:
    if cfg.seed is None:
        raise ConfigError("seed is required for gram")
    pt = mf.sample_point(cfg.seed, n=cfg.N)
    labels = [("t", k) for k in range(-kmax, kmax + 1)] + ["u", "v"]
    names = [lab if isinstance(lab, str) else f"t{lab[1]}" for lab in labels]
    frames = [vf._frame(pt, lab) for lab in labels]
    rows = []
    for nm, x in zip(names, frames):
        cells = [nm]
        for y in frames:
            cells.append(fmt_complex(mf.metric_tangent(pt, x, y)))
        rows.append(cells)
    path = _out_path(cfg, "gram.csv")
    write_csv(path, ["frame"] + names, rows)
    print(f"gram: {len(names)}x{len(names)} matrix written to {path}")
    return 0


# -- potential ---------------------------------------------------------------


def cmd_potential(cfg: RunConfig, u: float, v: float) -> int:
    try:
        pt = mf.locus_point(u, v)  # ValueError: e^u too small for a point
        F = po.potential_F(pt)
        quasi = po.quasihomogeneity_residual(pt)  # F at shifted points as well
    except (ValueError, la.TruncationLoss) as e:
        print(f"potential refused at u={u}, v={v}: {e}", file=sys.stderr)
        return 2
    closed = u * v * v / 2.0
    report = {
        "u": u,
        "v": v,
        "F": complex(F),
        "closed_form_uvv_half": closed,
        "deviation": abs(F - closed),
        "dF_du": complex(po.dF_du(pt)),
        "dF_dv": complex(po.dF_dv(pt)),
        "quasihomogeneity_residual": float(abs(quasi)),
    }
    atomic_write(_out_path(cfg, "potential.json"), json_text(report) + "\n")
    print(f"potential: F = {fmt_complex(F)} (locus closed form {fmt_float(closed)})")
    return 0


# -- flow ---------------------------------------------------------------------


def cmd_flow(cfg: RunConfig, flow_text: str, T: float, h: float,
             record_every: int) -> int:
    if cfg.seed is None:
        raise ConfigError("seed is required for flow")
    flow = parse_flow_tag(flow_text)
    L = hi.sample_loop(cfg.seed, nodes=cfg.K)
    try:
        snapshots, ledger = hi.integrate(L, flow, T, h, record_every=record_every)
    except (hi.BlowUp, hi.TailOverflow) as e:
        print(f"flow {flow_text} aborted: {e}", file=sys.stderr)
        return 1
    header = ["step", "time", "H1", "Hbar1", "H2", "tail_norm", "u1_drift"]
    rows = []
    for row in ledger:
        rows.append([
            str(row["step"]),
            fmt_float(row["time"]),
            fmt_complex(row["H1"]),
            fmt_complex(row["Hbar1"]),
            fmt_complex(row["H2"]),
            fmt_float(row["tail_norm"]),
            fmt_float(row["u1_drift"]),
        ])
    write_csv(_out_path(cfg, "flow_ledger.csv"), header, rows)
    snap_doc = [
        {"time": t, "loop": hi.loop_to_json_dict(P)} for t, P in snapshots
    ]
    atomic_write(_out_path(cfg, "flow_snapshots.json"),
                 json_text(snap_doc) + "\n")
    drift = max(abs(row["H1"] - ledger[0]["H1"]) for row in ledger)
    print(f"flow {flow_text}: {len(ledger) - 1} steps to T={fmt_float(T)}, "
          f"|H1 drift| = {drift:.3e}")
    return 0


# -- canonical ----------------------------------------------------------------


def cmd_canonical(cfg: RunConfig, grid: int) -> int:
    if cfg.seed is None:
        raise ConfigError("seed is required for canonical")
    pt = mf.sample_point(cfg.seed, n=cfg.N)
    cd = ca.canonical_data(pt, grid)
    vel = ca.char_velocities(pt, ("t", 0), grid)
    header = ["j", "re_p", "im_p", "re_sigma", "im_sigma",
              "re_u_sigma", "im_u_sigma", "re_f", "im_f",
              "re_velocity_t0", "im_velocity_t0"]
    rows = []
    for j in range(len(cd.p)):
        rows.append([str(j)] + [
            fmt_float(val)
            for val in (cd.p[j].real, cd.p[j].imag,
                        cd.sigma[j].real, cd.sigma[j].imag,
                        cd.u_sigma[j].real, cd.u_sigma[j].imag,
                        cd.f[j].real, cd.f[j].imag,
                        vel[j].real, vel[j].imag)
        ])
    write_csv(_out_path(cfg, "canonical.csv"), header, rows)
    print(f"canonical: {len(rows)} circle nodes written "
          f"(trace residual {cd.critical_residual:.3e}, "
          f"self-intersecting: {cd.self_intersecting})")
    return 0


# -- argument plumbing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ConfigErrors, so that they reach
    the user as one line, like every other bad input."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="todafrob",
        description="Identity suites and data exports for the Toda Frobenius "
                    "manifold library.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="seed for randomized sampling")
        sp.add_argument("--N", type=int, help="manifold band size")
        sp.add_argument("--n-max", dest="n_max", type=int,
                        help="flat frame index range")
        sp.add_argument("--K", type=int, help="loop node count")
        sp.add_argument("--outdir", help="output directory")

    sv = sub.add_parser("verify", help="run identity suites")
    common(sv)
    sv.add_argument("--suites", help="comma-separated suite names")
    sv.add_argument("--tol", action="append", default=[],
                    metavar="SUITE=VALUE", help="override a suite tolerance")

    sg = sub.add_parser("gram", help="export the flat Gram matrix as CSV")
    common(sg)
    sg.add_argument("--kmax", type=int, default=4,
                    help="frame range |k| <= kmax (default 4)")

    sp_ = sub.add_parser("potential", help="evaluate F on a locus point")
    common(sp_)
    sp_.add_argument("--u", type=float, default=0.3)
    sp_.add_argument("--v", type=float, default=0.2)

    sf = sub.add_parser("flow", help="integrate a hierarchy flow")
    common(sf)
    sf.add_argument("--flow", default="s1",
                    help="flow tag: s<n>, sbar<n>, t:<a>, u, v (default s1)")
    sf.add_argument("--T", type=float, default=0.1)
    sf.add_argument("--h", type=float, default=1e-3)
    sf.add_argument("--record-every", dest="record_every", type=int, default=20)

    sc = sub.add_parser("canonical", help="export canonical coordinate data")
    common(sc)
    sc.add_argument("--grid", type=int, default=256,
                    help="circle grid size (default 256)")
    return p


def merge_config(args: argparse.Namespace) -> RunConfig:
    """The config file overlaid by the flags.  Every value from either
    source is checked by _setting, and T must be a whole number of flow
    steps h."""
    cfg = load_config(args.config)
    flags = {k: v for k, v in vars(args).items() if v is not None}
    for key in [*_NUMBERS, "outdir"]:
        if key in flags:
            val = _setting(key, flags[key])
            if key in _CONFIG_KEYS:
                setattr(cfg, key, val)
    if flags.get("h", 0.0) > flags.get("T", math.inf):
        raise ConfigError(f"h must not exceed T, got h={flags['h']!r}, T={flags['T']!r}")
    if "h" in flags and "T" in flags:
        try:
            hi.step_count(flags["T"], flags["h"])
        except ValueError as e:
            raise ConfigError(str(e)) from None
    if flags.get("suites"):
        cfg.suites = _setting("suites", [s.strip() for s in args.suites.split(",")
                                         if s.strip()])
    tols = {}
    for item in flags.get("tol", []):
        if "=" not in item:
            raise ConfigError(f"--tol expects SUITE=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        tols[name.strip()] = val
    cfg.tolerances = {**cfg.tolerances, **_setting("tolerances", tols)}
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = merge_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "gram":
            return cmd_gram(cfg, args.kmax)
        if args.command == "potential":
            return cmd_potential(cfg, args.u, args.v)
        if args.command == "flow":
            return cmd_flow(cfg, args.flow, args.T, args.h, args.record_every)
        if args.command == "canonical":
            return cmd_canonical(cfg, args.grid)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
