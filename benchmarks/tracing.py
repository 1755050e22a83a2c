"""Span tracing for the benchmark's traced run.

The tracer wraps every public function of the package modules, at every
name its callers use: ``canonical`` imports ``tan_mul`` by name and
``potential`` imports ``point_from_flat`` by name, so those bindings get
the same wrapper as the module attribute.  ``LoopField.__mul__`` is wrapped
as ``hierarchy.LoopField.mul``.  The library itself is not edited; the
wrappers are installed for a traced pass and removed after it.

Each call becomes a span (name, start, end, parent, op id) kept in memory.
Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "todafrob"
LAYERS = ("laurent", "manifold", "flatcoords", "potential", "canonical",
          "hierarchy", "verify", "cli")


def flow_tag(flow) -> str:
    """Metric-safe flow name: ("t", -2) -> "t-2", ("sbar", 1) -> "sbar1"."""
    if isinstance(flow, str):
        return flow
    kind, n = flow
    return f"{kind}{n}"


def _band_tag(pt, *args, **kwargs) -> str:
    return f"n{pt.band_n}"


def _rk4_tag(L, flow, *args, **kwargs) -> str:
    return f"{flow_tag(flow)}.k{L.nodes}"


def _suite_tag(name, *args, **kwargs) -> str:
    return name


# Functions whose span name carries a size or case tag.
TAGGED = {
    "manifold.tan_mul": _band_tag,
    "manifold.check_membership": _band_tag,
    "canonical.canonical_data": _band_tag,
    "hierarchy.rk4_step": _rk4_tag,
    "verify.run_suite": _suite_tag,
}
SPAN_LABEL = {"verify.run_suite": "verify.suite"}
# Spans that also record their tracemalloc peak (the m x m grids).
TRACK_MEMORY = {"manifold.check_membership", "canonical.canonical_data"}
# Counters kept at a boundary: grid_eval computes 16 bytes per grid node.
COUNTED = {"laurent.grid_eval": ("laurent.grid_eval.bytes",
                                 lambda f, m, *args, **kwargs: 16 * m)}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores.

    A call made while no span is open starts a new operation, so all spans
    under one top-level call share its op id.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.ok: list[bool] = []  # False when the call raised
        self.refused: Counter = Counter()  # (span name, class) -> count
        self.layer_refused: Counter = Counter()  # (layer, class), once per raise
        self.counts: Counter = Counter()
        self.peak_bytes: defaultdict = defaultdict(list)
        self._stack: list[int] = []
        self._ops = [-1]
        self._raised: dict = {}  # id -> (exception, layers that counted it)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------

    def wrap(self, fn, key: str):
        label = SPAN_LABEL.get(key, key)
        layer = key.split(".", 1)[0]
        tag = TAGGED.get(key)
        counted = COUNTED.get(key)
        memory_span = key in TRACK_MEMORY
        names, starts, ends, parents, ops, oks = (
            self.name, self.start, self.end, self.parent, self.op, self.ok)
        stack, op_ids, raised = self._stack, self._ops, self._raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if tag is None else f"{label}.{tag(*args, **kwargs)}"
            if counted is not None:
                self.counts[counted[0]] += counted[1](*args, **kwargs)
            if not stack:
                op_ids[0] += 1
                raised.clear()
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(op_ids[0])
            starts.append(0.0)
            ends.append(0.0)
            oks.append(True)
            stack.append(idx)
            memory = memory_span and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                cls = type(exc).__name__
                oks[idx] = False
                self.refused[(name, cls)] += 1
                layers = raised.setdefault(id(exc), (exc, set()))[1]
                if layer not in layers:
                    layers.add(layer)
                    self.layer_refused[(layer, cls)] += 1
                raise
            finally:
                ends[idx] = clock()
                if memory:
                    self.peak_bytes[name].append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        # rebind every name that refers to an original, in every module
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        hierarchy = modules[LAYERS.index("hierarchy")]
        cls = hierarchy.LoopField
        self._saved.append((cls, "__mul__", cls.__dict__["__mul__"]))
        cls.__mul__ = self.wrap(cls.__mul__, "hierarchy.LoopField.mul")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------

    def arrays(self) -> dict:
        return span_arrays(self.name, self.start, self.end, self.parent, self.op,
                           self.ok)

    def save(self, path: str) -> None:
        """Write the spans as columns (names are indices into ``names``)."""
        a = self.arrays()
        np.savez(path, names=np.array(a["names"]), name=a["name_idx"],
                 start=a["start"], end=a["end"], parent=a["parent"], op=a["op"],
                 ok=a["ok"])


def span_arrays(name, start, end, parent, op, ok) -> dict:
    names = sorted(set(name))
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "name_idx": np.array([index[n] for n in name], dtype=np.int32),
        "start": np.asarray(start, dtype=float),
        "end": np.asarray(end, dtype=float),
        "parent": np.asarray(parent, dtype=np.int64),
        "op": np.asarray(op, dtype=np.int64),
        "ok": np.asarray(ok, dtype=bool),
    }


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    children = defaultdict(list)
    for i in np.flatnonzero(parent >= 0):
        children[int(parent[i])].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], reach), min(end[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out
