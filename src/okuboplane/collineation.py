"""Closed-form collineations and the cross-plane isomorphisms.

Translations and shears are elations of a single plane; the triality map is a
cyclic shift of Veronese coordinates (meaningful on the Okubo and para planes,
whose Veronese conditions are themselves cyclic); the maps between planes
rewrite slopes through the trivolution and conjugation so that
``s * x = tau(conj(s)) . tau2(conj(x))`` turns incidence in one plane into
incidence in the other.

The coordinate swap (x, y) -> (y, x) is a collineation of the octonionic
plane (``OctReflection``) but not of the Okubo plane; its transport through
the isomorphism is the closed form (tau(conj(y)), tau2(conj(x))).
"""

from __future__ import annotations

from .algebra import (
    CONJ,
    TAU,
    TAU2,
    AlgebraKind,
    E,
    LinMap8,
    Vec8,
    mul,
    random_vec,
    solve_left,
    trial_rng,
)
from .plane import (
    INFINITY_POINT,
    LINE_AT_INFINITY,
    AffinePoint,
    FiniteLine,
    PjLine,
    PjPoint,
    Plane,
    PLANES,
    SlopePoint,
    VerticalLine,
    VeroneseVec,
    InfiniteElement,
    PostconditionViolation,
    random_incident_pair,
    random_affine_point,
)
from .report import TheoremReport, pass_report
from .scalar import Frozen


class KindMismatch(TypeError):
    """A collineation applied to an element of the wrong plane kind."""


class Collineation(Frozen):
    """Base: a plane map with fixed source and target kinds, both ``kind`` unless
    a subclass overrides them; it gives ``apply_point``, ``apply_line``, ``invert``."""

    __slots__ = ()
    kind: AlgebraKind

    @property
    def source(self) -> AlgebraKind:
        return self.kind

    @property
    def target(self) -> AlgebraKind:
        return self.kind

    @property
    def name(self) -> str:
        """The map's name in report names and demos."""
        return type(self).__name__

    @property
    def source_plane(self) -> Plane:
        return PLANES[self.source]

    @property
    def target_plane(self) -> Plane:
        return PLANES[self.target]


class Translation(Collineation):
    """(x, y) -> (x + a, y + b); fixes the line at infinity pointwise."""

    __slots__ = ("kind", "a", "b")

    def apply_point(self, p: PjPoint) -> PjPoint:
        if isinstance(p, AffinePoint):
            return AffinePoint(p.x + self.a, p.y + self.b)
        return p

    def apply_line(self, l: PjLine) -> PjLine:
        if isinstance(l, FiniteLine):
            return FiniteLine(l.s, l.t - mul(self.kind, l.s, self.a) + self.b)
        if isinstance(l, VerticalLine):
            return VerticalLine(l.c + self.a)
        return l

    def invert(self) -> Translation:
        return Translation(self.kind, -self.a, -self.b)


class Shear(Collineation):
    """(x, y) -> (x, y + a o x); axis [0], center the infinity point."""

    __slots__ = ("kind", "a")

    def apply_point(self, p: PjPoint) -> PjPoint:
        if isinstance(p, AffinePoint):
            return AffinePoint(p.x, p.y + mul(self.kind, self.a, p.x))
        if isinstance(p, SlopePoint):
            return SlopePoint(p.s + self.a)
        return p

    def apply_line(self, l: PjLine) -> PjLine:
        if isinstance(l, FiniteLine):
            return FiniteLine(l.s + self.a, l.t)
        return l

    def invert(self) -> Shear:
        return Shear(self.kind, -self.a)


class Triality(Collineation):
    """Cyclic shift of Veronese coordinates, read back on the affine chart.

    Defined on the Okubo and para planes, whose Veronese conditions are
    themselves invariant under the shift; the octonionic conditions are not.
    """

    __slots__ = ("kind", "inverse")

    def __init__(self, kind: AlgebraKind = AlgebraKind.OKUBO, inverse: bool = False) -> None:
        if kind is AlgebraKind.OCTONION:
            raise KindMismatch("triality shift is defined on the Okubo and para planes")
        super().__init__(kind, inverse)

    def _shift(self, v: VeroneseVec) -> VeroneseVec:
        return v.cyclic().cyclic() if self.inverse else v.cyclic()

    def apply_point(self, p: PjPoint) -> PjPoint:
        plane = self.source_plane
        return plane.point_from_veronese(self._shift(plane.point_to_veronese(p)))

    def apply_line(self, l: PjLine) -> PjLine:
        plane = self.source_plane
        return plane.line_from_veronese(self._shift(plane.line_to_veronese(l)))

    def invert(self) -> Triality:
        return Triality(self.kind, not self.inverse)


class ChartMap(Collineation):
    """A map between planes that keeps y and rewrites x by the linear map
    ``f``, slopes by ``g``: (x, y) -> (f(x), y), (s) -> (g(s)),
    [s, t] -> [g(s), t], [c] -> [f(c)].  The inverse map swaps the labels,
    the kinds and f with g."""

    __slots__ = ("label", "inverse_label", "source", "target", "f", "g")

    @property
    def name(self) -> str:
        return self.label

    def apply_point(self, p: PjPoint) -> PjPoint:
        if isinstance(p, AffinePoint):
            return AffinePoint(self.f.apply(p.x), p.y)
        if isinstance(p, SlopePoint):
            return SlopePoint(self.g.apply(p.s))
        return p

    def apply_line(self, l: PjLine) -> PjLine:
        if isinstance(l, FiniteLine):
            return FiniteLine(self.g.apply(l.s), l.t)
        if isinstance(l, VerticalLine):
            return VerticalLine(self.f.apply(l.c))
        return l

    def invert(self) -> ChartMap:
        return ChartMap(self.inverse_label, self.label, self.target, self.source, self.g, self.f)


_TAU_CONJ, _TAU2_CONJ = TAU @ CONJ, TAU2 @ CONJ
_OK, _PA, _OC = AlgebraKind.OKUBO, AlgebraKind.PARA_OCTONION, AlgebraKind.OCTONION
PHI = ChartMap("Phi", "PhiInv", _OK, _OC, _TAU2_CONJ, _TAU_CONJ)
"""Okubo plane -> octonionic plane: (x, y) -> (tau2(conj x), y)."""
PHI_INV = PHI.invert()
"""Octonionic plane -> Okubo plane: (x, y) -> (tau(conj x), y)."""
PPHI = ChartMap("PPhi", "PPhiInv", _OK, _PA, TAU2, TAU)
"""Okubo plane -> para-octonionic plane: (x, y) -> (tau2(x), y)."""
PPHI_INV = PPHI.invert()
"""Para-octonionic plane -> Okubo plane: (x, y) -> (tau(x), y)."""


class OctReflection(Collineation):
    """The octonionic swap (x, y) -> (y, x), extended projectively.

    On slopes it inverts: (s) -> (s^-1), (0) <-> (inf).  Line images follow
    from the point images; in particular the line at infinity is fixed
    set-wise and [0] goes to the x axis [0, 0].
    """

    __slots__ = ()
    kind = AlgebraKind.OCTONION

    def apply_point(self, p: PjPoint) -> PjPoint:
        if isinstance(p, AffinePoint):
            return AffinePoint(p.y, p.x)
        if isinstance(p, SlopePoint):
            if not p.s:
                return INFINITY_POINT
            return SlopePoint(solve_left(self.kind, p.s, E))  # s^-1
        return SlopePoint(Vec8.zero())

    def apply_line(self, l: PjLine) -> PjLine:
        if isinstance(l, FiniteLine):
            if not l.s:
                return VerticalLine(l.t)
            s_inv = solve_left(self.kind, l.s, E)
            return FiniteLine(s_inv, -mul(self.kind, s_inv, l.t))
        if isinstance(l, VerticalLine):
            return FiniteLine(Vec8.zero(), l.c)
        return LINE_AT_INFINITY

    def invert(self) -> OctReflection:
        return OctReflection()


class Composite(Collineation):
    """Left-to-right chain of collineations with matching kinds."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[Collineation, ...]) -> None:
        if not steps:
            raise ValueError("empty composite")
        for first, second in zip(steps, steps[1:]):
            if first.target is not second.source:
                raise KindMismatch(
                    f"cannot chain {first.target.value} -> {second.source.value}"
                )
        super().__init__(steps)

    @property
    def source(self) -> AlgebraKind:
        return self.steps[0].source

    @property
    def target(self) -> AlgebraKind:
        return self.steps[-1].target

    def apply_point(self, p: PjPoint) -> PjPoint:
        for step in self.steps:
            p = step.apply_point(p)
        return p

    def apply_line(self, l: PjLine) -> PjLine:
        for step in self.steps:
            l = step.apply_line(l)
        return l

    def invert(self) -> Composite:
        return Composite(tuple(step.invert() for step in reversed(self.steps)))


def compose(*colls: Collineation) -> Composite:
    """compose(c1, c2)(p) applies c1 first, then c2."""
    steps: list[Collineation] = []
    for c in colls:
        steps.extend(c.steps if isinstance(c, Composite) else (c,))
    return Composite(tuple(steps))


def preserves_incidence(c: Collineation, trials: int, seed: int) -> TheoremReport:
    """Sample incident pairs in the source plane, check images are incident in
    the target plane, and the converse through the inverse map."""
    src, dst = c.source_plane, c.target_plane
    inv = c.invert()

    def outcomes():
        for i in range(trials):
            rng = trial_rng(seed, i)
            p, l = random_incident_pair(src, rng)
            if not dst.incident(c.apply_point(p), c.apply_line(l)):
                yield {"direction": "forward", "point": p.to_json(), "line": l.to_json()}
            q, m = random_incident_pair(dst, rng)
            if not src.incident(inv.apply_point(q), inv.apply_line(m)):
                yield {"direction": "inverse", "point": q.to_json(), "line": m.to_json()}

    return pass_report(f"incidence-preservation:{c.name}", c.source, seed, trials, outcomes)


def is_isometry(c: Collineation, trials: int, seed: int) -> TheoremReport:
    """Exact equality of n(dx)^2 + n(dy)^2 before and after the map, on
    random affine pairs."""
    src, dst = c.source_plane, c.target_plane

    def outcomes():
        for i in range(trials):
            rng = trial_rng(seed, i)
            p, q = random_affine_point(rng), random_affine_point(rng)
            d_before = src.distance(p, q)
            pi, qi = c.apply_point(p), c.apply_point(q)
            if not (isinstance(pi, AffinePoint) and isinstance(qi, AffinePoint)):
                yield {"point": p.to_json(), "reason": "image not affine"}
            elif dst.distance(pi, qi) != d_before:
                yield {"p": p.to_json(), "q": q.to_json()}

    return pass_report(f"isometry:{c.name}", c.source, seed, trials, outcomes)


def transported_reflection(p: PjPoint) -> PjPoint:
    """The octonionic swap conjugated into the Okubo plane.

    For affine points the closed form (tau(conj y), tau2(conj x)) is computed
    alongside the composite Phi^-1 o swap o Phi and both must agree; infinite
    elements go through the composite only.
    """
    image = compose(PHI, OctReflection(), PHI_INV).apply_point(p)
    if isinstance(p, AffinePoint) and transported_reflection_closed_form(p) != image:
        raise PostconditionViolation(f"closed form and composite disagree at {p}")
    return image


def transported_reflection_closed_form(p: PjPoint) -> AffinePoint:
    """(x, y) -> (tau(conj y), tau2(conj x)); affine points only."""
    if not isinstance(p, AffinePoint):
        raise InfiniteElement("closed form is stated for affine points")
    return AffinePoint(_TAU_CONJ.apply(p.y), _TAU2_CONJ.apply(p.x))


def g2_triple_check(a: LinMap8, b: LinMap8, c: LinMap8, trials: int, seed: int) -> bool:
    """Related-triple conditions with respect to the Okubo product:
    B(s*x) = C(s)*A(x), B(e*x) = e*A(x), B(x*e) = C(x)*e, and the three maps
    fix e.  Sampled on random pairs; any exact violation returns False."""
    ok = AlgebraKind.OKUBO
    if a.apply(E) != E or b.apply(E) != E or c.apply(E) != E:
        return False
    for i in range(trials):
        rng = trial_rng(seed, i)
        x, s = random_vec(rng), random_vec(rng)
        if b.apply(mul(ok, s, x)) != mul(ok, c.apply(s), a.apply(x)):
            return False
        if b.apply(mul(ok, E, x)) != mul(ok, E, a.apply(x)):
            return False
        if b.apply(mul(ok, x, E)) != mul(ok, c.apply(x), E):
            return False
    return True
