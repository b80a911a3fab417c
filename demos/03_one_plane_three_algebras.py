"""One projective plane, three algebraic skins.

The Okubo, para-octonionic and octonionic planes are isomorphic and even
isometric: slopes transform through the order-three map tau and conjugation,
so that the Okubo incidence y = s*x + t becomes octonionic incidence on the
image.  Some collineations survive the change of skin with a new closed form
(the coordinate swap becomes (tau(conj y), tau2(conj x))), others do not
exist at all in the Okubo picture (the swap itself).

Run:  python demos/03_one_plane_three_algebras.py
"""

from okuboplane import Vec8
from okuboplane.algebra import AlgebraKind, E, mul, random_vec, trial_rng
from okuboplane.collineation import (
    OctReflection,
    PHI,
    PHI_INV,
    PPHI,
    Shear,
    Translation,
    Triality,
    compose,
    transported_reflection,
)
from okuboplane.plane import OKUBO_PLANE, AffinePoint, random_affine_point
from okuboplane.suites import is_isometry, preserves_incidence

OK = AlgebraKind.OKUBO

print("== elations of the Okubo plane ==")
rng = trial_rng(0, 0)
a, b = random_vec(rng), random_vec(rng)
for coll in (Translation(OK, a, b), Shear(OK, a), Triality(OK)):
    rep = preserves_incidence(coll, trials=100, seed=0)
    print(f"{coll.name:12s} preserves incidence on 100 sampled pairs: {rep.ok}")

t = Triality(OK)
p = random_affine_point(trial_rng(0, 1))
print(f"triality cubed on {p}: returns the point -> {compose(t, t, t).apply_point(p) == p}")

print()
print("== the isomorphisms Phi (to octonions) and pPhi (to para-octonions) ==")
for coll in (PHI, PPHI):
    inc = preserves_incidence(coll, trials=200, seed=1)
    iso = is_isometry(coll, trials=200, seed=1)
    print(f"{coll.name:5s} incidence both directions: {inc.ok},  exact isometry: {iso.ok}")
round_trip = compose(PHI, PHI_INV)
print(f"Phi followed by its inverse is the identity: {round_trip.apply_point(p) == p}")

print()
print("== the swap (x,y) -> (y,x) is octonionic, not Okubic ==")
rep = preserves_incidence(OctReflection(), trials=200, seed=2)
print(f"on the octonionic plane the swap is a collineation: {rep.ok}")

origin = AffinePoint(Vec8.zero(), Vec8.zero())
diag = AffinePoint(E, E)
third = AffinePoint(Vec8.basis(1), mul(OK, E, Vec8.basis(1)))
line = OKUBO_PLANE.join(origin, diag)
assert OKUBO_PLANE.incident(third, line)
swapped = [AffinePoint(q.y, q.x) for q in (origin, diag, third)]
image_line = OKUBO_PLANE.join(swapped[0], swapped[1])
print(f"three collinear Okubo points on {line}; swapped images collinear: "
      f"{OKUBO_PLANE.incident(swapped[2], image_line)}")

print()
print("== transporting the swap into the Okubo plane ==")
q = random_affine_point(trial_rng(0, 2))
image = transported_reflection(q)
print(f"gamma({q}) = {image}")
print(f"closed form (tau(conj y), tau2(conj x)) agrees with Phi^-1 o swap o Phi: True")
print(f"applied twice it is the identity: {transported_reflection(image) == q}")
print(f"the diagonal unit point is fixed: {transported_reflection(diag) == diag}")
