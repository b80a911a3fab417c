"""Acceptance criteria, one test per criterion, every check exact.

Each test prints a single `[acceptance] C.. : PASS/FAIL` line (visible with
``pytest -s``) and then asserts.  Budgets are the stated minimums: 1000 pairs
for the composition laws, 500 for identity and isomorphism sampling, 200 for
the Veronese-incidence and transported-reflection checks, 100 little-Desargues
configurations per plane, 1000 trials of full-Desargues falsification.
"""

import time

from okuboplane.algebra import (
    IDENTITY,
    TAU,
    AlgebraKind,
    Vec8,
    check_identity,
    gram,
    matrix_to_vec,
    mul,
    norm,
    okubo_matrix_mul,
    basis_matrices,
    random_vec,
    structure_table,
    product_conversion_crosscheck,
    trial_rng,
    trivolution,
    trivolution_table_report,
)
from okuboplane.collineation import (
    OctReflection,
    PHI,
    PHI_INV,
    PPHI,
    compose,
    g2_triple_check,
    transported_reflection_closed_form,
)
from okuboplane.plane import PLANES, random_affine_point, random_point
from okuboplane.suites import (
    is_isometry,
    preserves_incidence,
    suite_all,
    suite_plane_axioms,
    suite_veronese,
    MOUFANG_FAILS,
    MOUFANG_HOLDS,
    SWAP_WITNESS,
)
from okuboplane import theorems

KINDS = (AlgebraKind.OKUBO, AlgebraKind.PARA_OCTONION, AlgebraKind.OCTONION)
I1 = Vec8.basis(1)


def _criterion(num: int, label: str, ok: bool) -> None:
    print(f"[acceptance] C{num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_c01_norm_composition_law():
    start = time.perf_counter()
    ok = True
    for kind in KINDS:
        for i in range(1000):
            rng = trial_rng(0, i)
            x, y = random_vec(rng), random_vec(rng)
            ok &= norm(mul(kind, x, y)) == norm(x) * norm(y)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _criterion(1, f"composition law, 3x1000 pairs in {elapsed:.2f}s", ok)


def test_c02_symmetric_composition_with_octonion_counterexample():
    ok = True
    for kind in (AlgebraKind.OKUBO, AlgebraKind.PARA_OCTONION):
        for i in range(1000):
            rng = trial_rng(1, i)
            x, y = random_vec(rng), random_vec(rng)
            ok &= mul(kind, mul(kind, x, y), x) == y.scale(norm(x))
    counterexample = not check_identity(
        AlgebraKind.OCTONION, "SymmetricComposition", I1, I1, I1
    )
    ok &= counterexample
    _criterion(2, "symmetric composition + octonion counterexample", ok)


def test_c03_moufang_and_flexibility():
    ok = MOUFANG_HOLDS.report(AlgebraKind.OCTONION, AlgebraKind.OCTONION, 500, 2).ok
    for kind in (AlgebraKind.OKUBO, AlgebraKind.PARA_OCTONION):
        report = MOUFANG_FAILS.report(kind, kind, 500, 2)
        ok &= report.ok
        found = {w["identity"] for w in report.witnesses}
        ok &= {"Moufang1", "Moufang2", "Moufang3"} <= found
    for kind in KINDS:
        for i in range(500):
            rng = trial_rng(2, i)
            x, y = random_vec(rng), random_vec(rng)
            ok &= check_identity(kind, "Flexible", x, y, y)
    _criterion(3, "Moufang holds(O)/fails(pO, Ok) + flexibility", ok)


def test_c04_structure_table_gram_conversions():
    mats = basis_matrices()
    table = structure_table(AlgebraKind.OKUBO)
    ok = all(
        table.products[i][j] == matrix_to_vec(okubo_matrix_mul(mats[i], mats[j]))
        for i in range(8)
        for j in range(8)
    )
    ok &= gram().is_positive_definite()
    for i in range(500):
        rng = trial_rng(3, i)
        ok &= product_conversion_crosscheck(random_vec(rng), random_vec(rng))
    _criterion(4, "table=oracle on 64 pairs, Gram minors, conversions x500", ok)


def test_c05_trivolution():
    ok = all(
        trivolution(trivolution(trivolution(Vec8.basis(k)))) == Vec8.basis(k)
        for k in range(8)
    )
    for i in range(500):
        rng = trial_rng(4, i)
        x, y = random_vec(rng), random_vec(rng)
        for kind in (AlgebraKind.OKUBO, AlgebraKind.OCTONION):
            ok &= trivolution(mul(kind, x, y)) == mul(kind, trivolution(x), trivolution(y))
    comparison = trivolution_table_report()
    ok &= "agrees" in comparison and "mismatches" in comparison
    ok &= not comparison["agrees"] and len(comparison["mismatches"]) == 5
    _criterion(5, "tau^3=id, tau automorphism x500, convention-table discrepancy reported", ok)


def test_c06_affine_and_projective_axioms():
    reports = suite_plane_axioms("all", 500, 0)
    ok = all(r.ok for r in reports)
    names = {r.name for r in reports}
    ok &= {"affine-axioms", "projective-join-meet-total", "quadrangle-no-three-collinear"} <= names
    _criterion(6, "plane axioms x500 per kind + quadrangle", ok)


def test_c07_veronese_correspondence():
    reports = suite_veronese("all", 200, 0)
    ok = all(r.ok for r in reports)
    _criterion(7, "Veronese conditions + beta incidence, 200 pairs per kind", ok)


def test_c08_isomorphisms_preserve_incidence_and_distance():
    ok = preserves_incidence(PHI, 500, 5).ok
    ok &= preserves_incidence(PPHI, 500, 5).ok
    ok &= is_isometry(PHI, 500, 5).ok
    ok &= is_isometry(PPHI, 500, 5).ok
    round_trip = compose(PHI, PHI_INV)
    plane = PLANES[AlgebraKind.OKUBO]
    for i in range(500):
        rng = trial_rng(5, i)
        p = random_point(rng)
        ok &= round_trip.apply_point(p) == p
    _criterion(8, "Phi/pPhi incidence both ways + exact isometry + Phi o Phi^-1 = id", ok)


def test_c09_little_desargues_and_full_desargues():
    ok = True
    for kind in KINDS:
        plane = PLANES[kind]
        for i in range(100):
            cfg = theorems.little_desargues_build(plane, seed=6_000_000 + i)
            ok &= theorems.little_desargues_verify(plane, cfg)
        witness = theorems.desargues_falsify(plane, seed=6, max_trials=1000)
        ok &= witness is not None
        if witness is not None:
            ok &= not plane.incident(witness.l1, witness.axis)
            ok &= not theorems.config_incidences(plane, witness)
    _criterion(9, "little Desargues 100x3 + full-Desargues witness per kind", ok)


def test_c10_swap_and_transported_reflection():
    swap_report = SWAP_WITNESS.report(AlgebraKind.OKUBO, AlgebraKind.OKUBO, 50, 7)
    ok = swap_report.ok and bool(swap_report.witnesses)
    composite = compose(PHI, OctReflection(), PHI_INV)
    for i in range(200):
        rng = trial_rng(7, i)
        p = random_affine_point(rng)
        ok &= transported_reflection_closed_form(p) == composite.apply_point(p)
    _criterion(10, "swap non-collineation witness + transported reflection x200", ok)


def test_c11_ptr_nonlinearity():
    s, x, lhs, rhs = theorems.ptr_nonlinearity_witness()
    ok = lhs != rhs
    ok &= lhs == theorems.ptr_theta(s, x, Vec8.zero())
    ok &= rhs == mul(AlgebraKind.OCTONION, s, x)
    _criterion(11, "PTR nonlinearity witness theta(s,x,0) != s.x", ok)


def test_c12_g2_triple_condition():
    ok = g2_triple_check(IDENTITY, IDENTITY, IDENTITY)
    ok &= g2_triple_check(TAU, TAU, TAU)
    ok &= not g2_triple_check(TAU, IDENTITY, IDENTITY)
    _criterion(12, "G2 triple: (id,id,id), (tau,tau,tau) pass; (tau,id,id) fails", ok)


def test_c13_full_suite_under_two_minutes():
    start = time.perf_counter()
    reports = suite_all("all", 500, 0)
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed < 120.0
    _criterion(13, f"all-suite ({len(reports)} reports) in {elapsed:.1f}s < 120s", ok)
