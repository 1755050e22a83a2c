"""Acceptance gate: the ten primary criteria at their stated sample counts,
at the sizes `todafrob verify` ships (verify.SIZES) unless a criterion
states a wider one.

Each test runs suites through verify.run_suite, so they are judged against
the tolerances declared in verify.SUITES, prints one pass/fail line with
the measured residuals, then asserts.
"""
from __future__ import annotations

import todafrob.verify as vf


def _emit(num: int, label: str, parts) -> None:
    ok = all(p.passed for p in parts)
    detail = "  ".join(
        f"{p.name}={p.max_residual:.3e}/{p.tolerance:.1e}" for p in parts
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    for p in parts:
        assert p.passed, p.line()


def test_criterion_01_gram_constancy():
    _emit(1, "Gram constancy at 20 points, N=24, |k|<=6",
          [vf.run_suite("gram", 42, points=20, n=24, kmax=6)])


def test_criterion_02_frobenius_axioms():
    _emit(2, "Frobenius axioms on 50 samples",
          [vf.run_suite("frobenius", 42, samples=50)])


def test_criterion_03_potential_consistency():
    _emit(3, "potential consistency", [
        vf.run_suite("potential", 42, points=5, triples=10),
        vf.run_suite("potential-fd", 42),
        vf.run_suite("quasihomogeneity", 42, points=4),
    ])


def test_criterion_04_multiplication_tables():
    _emit(4, "closed-form multiplication tables, |i|,|j|<=5",
          [vf.run_suite("tables", 0)])


def test_criterion_05_intersection_form():
    _emit(5, "intersection form on 30 samples",
          [vf.run_suite("intersection", 42, samples=30)])


def test_criterion_06_semisimplicity():
    _emit(6, "semisimple factorization and Euler evaluation", [
        vf.run_suite("semisimplicity", 42, samples=8),
        vf.run_suite("canonical", 42, points=4),
    ])


def test_criterion_07_chart_roundtrips():
    _emit(7, "flat chart round-trips", [vf.run_suite("charts", 42, points=4)])


def test_criterion_08_hierarchy():
    _emit(8, "hierarchy: pencil, recursion, conservation, commutators", [
        vf.run_suite("poisson", 42),
        vf.run_suite("hierarchy", 42),
        vf.run_suite("commutators", 42),
    ])


def test_criterion_09_riemann_transport():
    res = vf.run_suite("transport", 42)
    (note,) = res.notes
    assert note.startswith("printed n-divided velocity residual")
    print(f"    cross-check: {note}")
    _emit(9, "Riemann-invariant transport", [res])


def test_criterion_10_numerical_kernel():
    _emit(10, "RK4 order, residue adjointness, certificates", [
        vf.run_suite("rk4", 42),
        vf.run_suite("kernel-adjoint", 42, trials=60),
        vf.run_suite("certificates", 42, trials=12),
    ])
