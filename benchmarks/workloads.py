"""The benchmark's four seeded workloads.

Each workload has ``make_inputs(seed, sizes, workdir)``, run during set-up, and
``run_pass(inputs) -> PassResult``, the timed job.  A pass checks every
answer it can check on its own and returns a digest of its outputs; the
runner compares that digest with the warm-up pass.  Inputs come from the
seed alone, and every pass rebuilds its library objects from plain series,
so no pass reuses a cache filled by an earlier one.

What one operation is differs by workload and is stated with each one.
A refused operation is a failed one; it is counted by exception class.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from todafrob import canonical as ca
from todafrob import cli
from todafrob import flatcoords as fc
from todafrob import hierarchy as hi
from todafrob import manifold as mf
from todafrob import potential as po
from todafrob import verify as vf

# Workload tags keep the seeded streams of different workloads apart.
_PRIMARY, _LAX, _POINTS, _TANGENTS = 1, 2, 3, 4

# Tolerances of the verify suites that check the same identities.
HIERARCHY_TOL = vf.DEFAULT_TOLERANCES["hierarchy"]
TRANSPORT_TOL = vf.DEFAULT_TOLERANCES["transport"]
FROBENIUS_TOL = vf.DEFAULT_TOLERANCES["frobenius"]
CANONICAL_TOL = vf.DEFAULT_TOLERANCES["canonical"]


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    by_class: Counter = field(default_factory=Counter)
    worst_ratio: float = 0.0  # worst residual / tolerance over the checks
    wrong: int = 0  # failed checks: answers that are wrong, not refused
    digest: str = ""

    def fail(self, cls: str, count: int = 1) -> None:
        self.failed += count
        self.by_class[cls] += count

    def wrong_answer(self, cls: str) -> None:
        self.fail(cls)
        self.wrong += 1

    def check(self, residual: float, tol: float, what: str) -> None:
        """A certified check: the residual must sit below its tolerance."""
        ratio = float(residual) / tol
        self.worst_ratio = max(self.worst_ratio, ratio)
        if not ratio < 1.0:
            self.wrong_answer(f"{what}AboveTolerance")

    def call(self, fn, *args):
        """One operation: returns fn(*args), or None if the library refused."""
        self.attempted += 1
        try:
            return fn(*args)
        except (ArithmeticError, ValueError) as exc:
            self.fail(type(exc).__name__)
            return None


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _loop_bytes(L: hi.LoopPoint) -> bytes:
    return b"".join(
        np.int64(f.lo).tobytes() + f.coeffs.tobytes() for f in (L.lam, L.lbar))


# -- verify ----------------------------------------------------------------
# One operation is one suite.  The pass is `todafrob verify --seed S` at
# default sizes, run in-process through cli.main, one suite per call
# (`--suites NAME`): a suite draws its samples from S alone, so the
# results are those of the full command, but a suite the library refuses
# with an exception, which aborts the full command (potential-fd at
# seed 102 raises TruncationLoss), costs only that suite.  Exit 0, the
# suite passing and the report bytes are checked.


VERIFY_SIZES = {"N": 16, "n_max": 4, "K": 32, "suites": len(vf.SUITE_ORDER)}


@dataclass
class VerifyInputs:
    commands: list  # one argv per suite
    outdir: str


def verify_inputs(seed: int, sizes: dict, workdir: str) -> VerifyInputs:
    outdir = os.path.join(workdir, "verify-outdir")
    os.makedirs(outdir, exist_ok=True)
    argv = ["verify", "--seed", str(seed), "--N", str(sizes["N"]),
            "--n-max", str(sizes["n_max"]), "--K", str(sizes["K"]), "--outdir", outdir]
    return VerifyInputs([argv + ["--suites", name] for name in vf.SUITE_ORDER], outdir)


def verify_pass(inp: VerifyInputs) -> PassResult:
    res = PassResult()
    parts = []
    path = os.path.join(inp.outdir, "report.json")
    for argv in inp.commands:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = res.call(cli.main, argv)
        if code is None:
            parts.append(("refused", argv[-1]))
            continue
        with open(path, "rb") as f:
            raw = f.read()
        (suite,) = json.loads(raw)["suites"]
        res.worst_ratio = max(res.worst_ratio, suite["max_residual"] / suite["tolerance"])
        if code != 0 or not suite["pass"]:
            res.wrong_answer("SuiteFailed")
        parts.append(raw)
    res.digest = _digest(parts)
    return res


# -- loop-primary ----------------------------------------------------------
# One operation is one RK4 step, one hamiltonian(L, -1) or one
# transport_residual(L, ("t", 0)).  Each flow walks the seeded pool of
# loops in order, up to steps_per_trajectory steps per loop, until it
# has accepted_steps accepted steps.  A refused step (t:-2 refuses about
# 40% of loops at K=128 with TailOverflow) ends its trajectory and counts
# as a failure; the next loop of the pool follows.  The quota keeps the
# accepted work of a pass the same for every seed.  A trajectory with at
# least one accepted step records H_-1 and the transport residual at each
# of its states; H_-1 is a Casimir, so its drift is checked.


PRIMARY_SIZES = {"K": 128, "flows": ["t:-1", "t:-2"], "accepted_steps": 8,
                 "steps_per_trajectory": 2, "h": 1e-3, "pool": 32}


@dataclass
class PrimaryInputs:
    pool: list  # (lam, lbar) LoopFields per loop
    flows: list
    accepted_steps: int
    steps_per_trajectory: int
    h: float


def primary_inputs(seed: int, sizes: dict, workdir: str) -> PrimaryInputs:
    pool = []
    for i in range(sizes["pool"]):
        L = hi.sample_loop([seed, _PRIMARY, i], nodes=sizes["K"])
        pool.append((L.lam, L.lbar))
    flows = [cli.parse_flow_tag(f) for f in sizes["flows"]]
    return PrimaryInputs(pool, flows, sizes["accepted_steps"],
                         sizes["steps_per_trajectory"], sizes["h"])


def primary_pass(inp: PrimaryInputs) -> PassResult:
    res = PassResult()
    parts = []
    for flow in inp.flows:
        taken = 0
        for lam, lbar in inp.pool:
            if taken == inp.accepted_steps:
                break
            states = [hi.LoopPoint(lam, lbar)]
            for _ in range(min(inp.steps_per_trajectory, inp.accepted_steps - taken)):
                nxt = res.call(hi.rk4_step, states[-1], flow, inp.h)
                if nxt is None:
                    parts.append(("refused", flow, taken))
                    break
                states.append(nxt)
                taken += 1
            if len(states) == 1:
                continue
            h0 = None
            for P in states:
                H = res.call(hi.hamiltonian, P, -1)
                r = res.call(hi.transport_residual, P, ("t", 0))
                if r is not None:
                    res.check(r, TRANSPORT_TOL, "Transport")
                if H is not None:
                    h0 = H if h0 is None else h0
                    res.check(abs(H - h0), HIERARCHY_TOL, "CasimirDrift")
                parts += [H, r]
            parts.append(_loop_bytes(states[-1]))
        if taken < inp.accepted_steps:
            missing = inp.accepted_steps - taken
            res.attempted += missing
            res.fail("PoolExhausted", missing)
    res.digest = _digest(parts)
    return res


# -- loop-lax --------------------------------------------------------------
# One operation is one hierarchy.integrate trajectory with its ledger.
# The ledger drift of H1, Hbar1 and H2 must stay within the hierarchy
# suite tolerance.


LAX_SIZES = {"K": 128, "flows": ["s1", "sbar1", "s2", "t:0", "t:1", "u", "v"],
             "T": 0.08, "h": 1e-3}


@dataclass
class LaxInputs:
    lam: hi.LoopField
    lbar: hi.LoopField
    flows: list
    T: float
    h: float


def lax_inputs(seed: int, sizes: dict, workdir: str) -> LaxInputs:
    L = hi.sample_loop([seed, _LAX], nodes=sizes["K"])
    flows = [cli.parse_flow_tag(f) for f in sizes["flows"]]
    return LaxInputs(L.lam, L.lbar, flows, sizes["T"], sizes["h"])


def lax_pass(inp: LaxInputs) -> PassResult:
    res = PassResult()
    parts = []
    steps = int(round(inp.T / inp.h))
    for flow in inp.flows:
        L = hi.LoopPoint(inp.lam, inp.lbar)
        out = res.call(hi.integrate, L, flow, inp.T, inp.h, steps)
        if out is None:
            parts.append(("refused", flow))
            continue
        snapshots, ledger = out
        drift = max(abs(row[key] - ledger[0][key])
                    for row in ledger for key in ("H1", "Hbar1", "H2"))
        res.check(drift, HIERARCHY_TOL, "LedgerDrift")
        parts += [[(row["H1"], row["Hbar1"], row["H2"]) for row in ledger],
                  _loop_bytes(snapshots[-1][1])]
    res.digest = _digest(parts)
    return res


# -- wide-point ------------------------------------------------------------
# One operation is one library call on a point: check_membership,
# canonical_data, two tan_mul, two metric_tangent, flat_coordinates and
# potential_F.  Seeded points lie in the open stratum by a wide margin,
# so a negative membership or simplicity verdict is a wrong answer; the
# canonical trace residual and the Frobenius invariance
# g(x*y, z) = g(x, y*z) are certified checks.


WIDE_SIZES = {"N": [96] * 8 + [384], "tangent_band": 12}


@dataclass
class WideInputs:
    points: list  # (lam, lbar) LaurentSeries per point
    tangents: list  # three (a, ab) LaurentSeries pairs per point


def wide_inputs(seed: int, sizes: dict, workdir: str) -> WideInputs:
    points, tangents = [], []
    for i, n in enumerate(sizes["N"]):
        pt = mf.sample_point([seed, _POINTS, i], n=n)
        points.append((pt.lam, pt.lbar))
        xs = [mf.sample_tangent([seed, _TANGENTS, i, j], n=sizes["tangent_band"])
              for j in range(3)]
        tangents.append([(x.a, x.ab) for x in xs])
    return WideInputs(points, tangents)


def wide_pass(inp: WideInputs) -> PassResult:
    res = PassResult()
    parts = []
    for (lam, lbar), tans in zip(inp.points, inp.tangents):
        pt = mf.Point(lam, lbar)
        x, y, z = (mf.Tangent(a, ab) for a, ab in tans)
        rep = res.call(mf.check_membership, pt)
        if rep is not None:
            if not rep.in_open_stratum:
                res.wrong_answer("NotInOpenStratum")
            parts.append(sorted(rep.to_json_dict().items()))
        cd = res.call(ca.canonical_data, pt)
        if cd is not None:
            if cd.self_intersecting:
                res.wrong_answer("SelfIntersecting")
            res.check(cd.critical_residual, CANONICAL_TOL, "CanonicalTrace")
            parts += [cd.sigma.tobytes(), cd.u_sigma.tobytes(), cd.f.tobytes()]
        xy = res.call(mf.tan_mul, pt, x, y)
        yz = res.call(mf.tan_mul, pt, y, z)
        if xy is not None and yz is not None:
            left = res.call(mf.metric_tangent, pt, xy, z)
            right = res.call(mf.metric_tangent, pt, x, yz)
            if left is not None and right is not None:
                res.check(abs(left - right), FROBENIUS_TOL, "FrobeniusInvariance")
            parts += [f.c.tobytes() for f in (xy.a, xy.ab, yz.a, yz.ab)]
            parts += [left, right]
        t = res.call(fc.flat_coordinates, pt)
        parts.append(None if t is None else sorted(t.items()))
        parts.append(res.call(po.potential_F, pt))
    res.digest = _digest(parts)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    make_inputs: object
    run_pass: object


WORKLOADS = {
    w.name: w for w in (
        Workload("verify", "the todafrob verify command at default sizes: "
                 "the acceptance gate, spread over the whole pointwise stack",
                 VERIFY_SIZES, verify_inputs, verify_pass),
        Workload("loop-primary", "negative primary flows at K=128: one certified "
                 "circle op per loop node, the per-node loops a batched kernel removes",
                 PRIMARY_SIZES, primary_inputs, primary_pass),
        Workload("loop-lax", "Lax and primary flows at K=128 with the conservation "
                 "ledger: loop arithmetic and FFTs, no certified circle op",
                 LAX_SIZES, lax_inputs, lax_pass),
        Workload("wide-point", "points at N=96 and N=384 through membership and "
                 "canonical data: the quadratic curve-simplicity code at a wide band",
                 WIDE_SIZES, wide_inputs, wide_pass),
    )
}
