"""The affine plane over the Okubo algebra and its projective completion.

Points are pairs (x, y), lines are slope/offset sets [s, t] plus verticals
[c]; the completion adds a slope point (s) to every parallel class, the point
(inf) of verticals and the line [inf].  Join and meet are closed formulas
built from exact division, and the whole plane embeds into a 27-dimensional
space of Veronese vectors where incidence becomes beta(point, line) = 0.

Run:  python demos/02_plane_and_veronese.py
"""

from okuboplane import AlgebraKind, Plane, Vec8, beta
from okuboplane.algebra import E, random_vec, trial_rng
from okuboplane.plane import (
    INFINITY_POINT,
    LINE_AT_INFINITY,
    AffinePoint,
    FiniteLine,
    SlopePoint,
    VerticalLine,
    random_incident_pair,
    random_non_incident_pair,
)

plane = Plane(AlgebraKind.OKUBO)
zero = Vec8.zero()
origin = AffinePoint(zero, zero)
i1 = Vec8.basis(1)

print("== joins ==")
print(f"join((0,0), (e,e))   = {plane.join(origin, AffinePoint(E, E))}")
print(f"join((0,0), (inf))   = {plane.join(origin, INFINITY_POINT)}")
print(f"join((i1,i1), (0,0)) = {plane.join(AffinePoint(i1, i1), origin)}")
print("the slope of that last line is i1 * i1, not i1: no unit, no diagonal")

print()
print("== meets, including the ideal elements ==")
print(f"meet([0,0], [0])     = {plane.meet(FiniteLine(zero, zero), VerticalLine(zero))}")
print(f"meet([e,0], [e,e])   = {plane.meet(FiniteLine(E, zero), FiniteLine(E, E))}  (parallels)")
print(f"meet([e,0], [0,e])   = {plane.meet(FiniteLine(E, zero), FiniteLine(zero, E))}")
print(f"meet([0], [e])       = {plane.meet(VerticalLine(zero), VerticalLine(E))}")
print(f"meet([e,0], [inf])   = {plane.meet(FiniteLine(E, zero), LINE_AT_INFINITY)}")

print()
print("== the non-degenerate quadrangle ==")
quad = [origin, AffinePoint(E, E), SlopePoint(zero), INFINITY_POINT]
for i in range(4):
    for j in range(i + 1, 4):
        line = plane.join(quad[i], quad[j])
        others = sum(plane.incident(p, line) for p in quad)
        print(f"join({quad[i]}, {quad[j]}) = {line}   members on it: {others}")

print()
print("== Veronese coordinates ==")
p = AffinePoint(random_vec(trial_rng(1, 0)), random_vec(trial_rng(1, 1)))
v = plane.point_to_veronese(p)
print(f"point {p}")
print(f"  lambda = ({v.l1}, {v.l2}, {v.l3})   (n(y), n(x), 1)")
print(f"  satisfies the Veronese conditions (sharp(v) = 0): {plane.is_veronese(v)}")
print(f"  beta(v, v) = {beta(v, v)} > 0")
normalized = plane.normalize_veronese(v)
print(f"  normalized lambda sum = {normalized.l1 + normalized.l2 + normalized.l3}")

print()
print("== beta detects incidence exactly ==")
for trial in range(3):
    rng = trial_rng(2, trial)
    pt, ln = random_incident_pair(plane, rng)
    b = beta(plane.point_to_veronese(pt), plane.line_to_veronese(ln))
    print(f"incident pair     -> beta = {b}")
    pt, ln = random_non_incident_pair(plane, rng)
    b = beta(plane.point_to_veronese(pt), plane.line_to_veronese(ln))
    print(f"non-incident pair -> beta = {b}")
