"""The public surface of todafrob: every public module-level function has
a caller in the package or the benchmark, so API that only tests call
does not accumulate.

A reference to a function is its bare name in its own module or after a
`from ... import`, an attribute of a name bound to its module, or a
string "module.function" (the benchmark's tracer names call sites so).
References inside the function's own body and in docstrings do not count.

A public method or property of a public package class needs a read of
its name as an attribute (x.name) somewhere in `src/` or `benchmarks/`.
That matches by name only, whatever the object, so it is a loose guard:
a read of an unrelated attribute of the same name counts as a caller.
"""
from __future__ import annotations

import ast
import functools
import inspect
import re
from pathlib import Path

import pytest

from todafrob import canonical, cli, flatcoords, hierarchy, laurent, manifold, potential, verify

ROOT = Path(__file__).resolve().parent.parent
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    laurent, manifold, flatcoords, potential, canonical, hierarchy, verify, cli)}

# The second, independent route of an identity that the README promises
# twice: tests compare the closed forms against these, nothing else runs them.
REFERENCE_IMPLEMENTATIONS = {
    ("hierarchy", "primary_gradient_fd"): "finite-difference gradients of the primary Hamiltonians",
    ("manifold", "intersection_metric"): "the intersection form by circle quadrature",
    ("canonical", "metric_diagonality_residual"): "the flat metric as a contour of du(p) pairings",
    ("flatcoords", "flat_differential"): "dt_n, dual to the flat frames",
    ("flatcoords", "jacobian_t_w"): "d t_n / d w_m by contour integral",
}


def public_functions() -> set[tuple[str, str]]:
    return {(short, name) for short, mod in MODULES.items() for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__}


def references(path: Path) -> set[tuple[str, str]]:
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent.name == "todafrob" else None
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                short = a.name.removeprefix("todafrob.")
                if a.name.startswith("todafrob.") and short in MODULES and a.asname:
                    aliases[a.asname] = short
        elif isinstance(node, ast.ImportFrom):
            # "from . import m" and "from todafrob import m" bind modules,
            # "from .m import f" and "from todafrob.m import f" functions
            if node.level:
                source = node.module or ""
            elif node.module == "todafrob" or node.module.startswith("todafrob."):
                source = node.module.removeprefix("todafrob").removeprefix(".")
            else:
                continue
            for a in node.names:
                if source == "" and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                elif source in MODULES:
                    names[a.asname or a.name] = (source, a.name)
    found = set()

    def visit(node: ast.AST, inside: tuple | None) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # a docstring
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            ref = names.get(node.id) or ((own, node.id) if own else None)
            if ref and ref != inside:
                found.add(ref)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\b(\w+)\.(\w+)", node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for stmt in tree.body:
        inside = (own, stmt.name) if own and isinstance(stmt, ast.FunctionDef) else None
        visit(stmt, inside)
    return found


def reached() -> set[tuple[str, str]]:
    files = sorted((ROOT / "src" / "todafrob").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    out = set().union(*(references(p) for p in files))
    # verify.run_suite looks each registered suite up by name
    out |= {("verify", "suite_" + name.replace("-", "_")) for name in verify.SUITES}
    return out


def test_every_public_function_has_a_caller_outside_the_tests():
    unreached = public_functions() - reached() - set(REFERENCE_IMPLEMENTATIONS)
    assert not unreached, sorted(unreached)


def public_members() -> set[tuple[str, str]]:
    """(class, name) of each public method or property of a public class,
    dunders and overrides of a base-class attribute left out."""
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    return {(cname, name) for mod in MODULES.values() for cname, cls in vars(mod).items()
            if not cname.startswith("_") and inspect.isclass(cls) and cls.__module__ == mod.__name__
            for name, obj in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or isinstance(obj, kinds))
            and not any(hasattr(base, name) for base in cls.__mro__[1:])}


def test_every_public_method_is_read_outside_the_tests():
    files = sorted((ROOT / "src" / "todafrob").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    read = {node.attr for p in files for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute)}
    members = public_members()
    assert members, "no public members found"
    assert not sorted(m for m in members if m[1] not in read)


@pytest.mark.parametrize("ref", sorted(REFERENCE_IMPLEMENTATIONS))
def test_reference_implementations_exist_and_are_tested(ref):
    short, name = ref
    assert inspect.isfunction(getattr(MODULES[short], name, None)), ref
    tests = "".join(p.read_text() for p in sorted(Path(__file__).parent.glob("test_*.py"))
                    if p.name != Path(__file__).name)
    assert re.search(rf"\b\w+\.{name}\(", tests), ref



# The series of a point whose circle-grid values Point.on_grid caches.
GRID_SERIES = {"lam", "lbar", "w", "lam_p", "lbar_p", "w_p"}


def hand_grid_evals(path: Path) -> list[str]:
    """Calls grid_eval(<x>.<series>, ...) of a point series outside
    Point.on_grid, as file:line."""
    tree = ast.parse(path.read_text())
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "on_grid" for n in ast.walk(f)}
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "grid_eval"
            and node.args and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr in GRID_SERIES]


def test_point_series_reach_the_grid_only_through_on_grid():
    files = sorted((ROOT / "src" / "todafrob").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    assert not [hit for p in files for hit in hand_grid_evals(p)]


# Parameters with a default, positional and keyword-only, in src/todafrob.
# Lower this whenever a knob is deleted, so a deleted one cannot come back.
KEYWORD_DEFAULTS_CEILING = 46


def keyword_defaults(path: Path) -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_keyword_defaults_do_not_grow():
    """Every parameter with a default is a knob that a caller may set and
    that must then be tested; the count may fall but not rise.  Lower
    KEYWORD_DEFAULTS_CEILING whenever a knob is deleted."""
    count = sum(keyword_defaults(p) for p in sorted((ROOT / "src" / "todafrob").glob("*.py")))
    assert count <= KEYWORD_DEFAULTS_CEILING, count
