"""Little Desargues holds, full Desargues fails, and the ternary ring bends.

A Moufang plane satisfies the little Desargues theorem (perspective triangles
whose center lies on the axis close up) without satisfying the full theorem.
Both facts are checked here by exact construction: joins and meets only, no
rounding anywhere.  The second half shows why a non-alternative algebra can
still coordinatise a Moufang plane: the planar ternary ring read off the
Okubo plane with octonionic labels is not linear.

Run:  python demos/04_desargues_and_ptr.py
"""

from okuboplane import Vec8, mul, ptr_theta
from okuboplane.algebra import IDENTITY, TAU, AlgebraKind, E
from okuboplane.collineation import g2_triple_check
from okuboplane.plane import PLANES
from okuboplane.theorems import (
    config_incidences,
    desargues_falsify,
    little_desargues_build,
    little_desargues_verify,
    ptr_nonlinearity_witness,
)

print("== little Desargues: center on the axis ==")
for kind in AlgebraKind:
    plane = PLANES[kind]
    verified = 0
    for seed in range(20):
        cfg = little_desargues_build(plane, seed)
        assert not config_incidences(plane, cfg)
        verified += little_desargues_verify(plane, cfg)
    print(f"{kind.value:9s} 20 random configurations, l1 on the axis in all: {verified == 20}")

print()
print("== full Desargues: center off the axis ==")
for kind in AlgebraKind:
    plane = PLANES[kind]
    witness = desargues_falsify(plane, seed=0, max_trials=100)
    print(f"{kind.value:9s} counterexample found: {witness is not None}; "
          f"construction incidences intact: {not config_incidences(plane, witness)}")

print()
print("== the planar ternary ring of the Okubo plane ==")
s, x, lhs, rhs = ptr_nonlinearity_witness()
print(f"theta(s, x, 0) asks: which y puts (x, y) on the line [s, 0]?")
print(f"with s = {s}, x = {x}:")
print(f"  theta(s, x, 0)      = {lhs}   (Okubo product)")
print(f"  octonion label s.x  = {rhs}")
print(f"  theta is NOT linear over the octonion labels: {lhs != rhs}")
i1 = Vec8.basis(1)
print(f"unit slope acts as e*: theta(e, i1, 0) = {ptr_theta(E, i1, Vec8.zero())} != i1,")
print(f"while in the octonionic plane the unit slope fixes every x: e.i1 = "
      f"{mul(AlgebraKind.OCTONION, E, i1)}")

print()
print("== quadrangle stabilizer: the related-triple conditions ==")
print(f"(id,  id,  id ) satisfies B(s*x) = C(s)*A(x) with e fixed: "
      f"{g2_triple_check(IDENTITY, IDENTITY, IDENTITY)}")
print(f"(tau, tau, tau) satisfies it (tau is an Okubo automorphism):  "
      f"{g2_triple_check(TAU, TAU, TAU)}")
print(f"(tau, id,  id ) violates it on a basis pair:                  "
      f"{not g2_triple_check(TAU, IDENTITY, IDENTITY)}")
