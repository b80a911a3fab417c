"""Closed-form collineations and the cross-plane isomorphisms.

Translations and shears are elations of a single plane; the triality map is a
cyclic shift of Veronese coordinates (a collineation of the Okubo and para
planes only: there alone it commutes with the adjoint ``Plane.sharp``); the
maps between planes rewrite slopes through the trivolution and conjugation so
that ``s * x = tau(conj(s)) . tau2(conj(x))`` turns incidence in one plane
into incidence in the other.

The coordinate swap (x, y) -> (y, x) is a collineation of the octonionic
plane (``OctReflection``) but not of the Okubo plane; its transport through
the isomorphism is the closed form (tau(conj(y)), tau2(conj(x))).
"""

from __future__ import annotations

from typing import Iterable

from .algebra import (
    CONJ,
    TAU,
    TAU2,
    AlgebraKind,
    E,
    LinMap8,
    Vec8,
    mul,
    solve_left,
    structure_table,
)
from .plane import (
    INFINITY_POINT,
    AffinePoint,
    FiniteLine,
    InfinityPoint,
    PjElement,
    PjLine,
    PjPoint,
    Plane,
    PLANES,
    SlopePoint,
    VerticalLine,
    VeroneseVec,
    InfiniteElement,
    PostconditionViolation,
    WrongElement,
)
from .scalar import Frozen


class KindMismatch(TypeError):
    """A collineation applied to an element of the wrong plane kind."""


class Collineation(Frozen):
    """Base: a plane map with fixed source and target kinds, both ``kind`` unless
    a subclass overrides them; a subclass with fields declares their types in
    ``_field_types``, kinds as ``AlgebraKind``, so a foreign field raises
    ``TypeError`` when the map is built.  A subclass gives ``invert`` and one
    ``_image`` over all six point and line types (returning the elements it
    fixes); the base applies it to a point or a line and rejects the other
    family."""

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

    def apply_point(self, p: PjPoint) -> PjPoint:
        if not isinstance(p, PjPoint):
            raise WrongElement(f"apply_point takes a point, not {p}")
        return self._image(p)

    def apply_line(self, l: PjLine) -> PjLine:
        if not isinstance(l, PjLine):
            raise WrongElement(f"apply_line takes a line, not {l}")
        return self._image(l)


class Translation(Collineation):
    """(x, y) -> (x + a, y + b); fixes the line at infinity pointwise."""

    __slots__ = ("kind", "a", "b")
    _field_types = (AlgebraKind, Vec8, Vec8)

    def _image(self, v: PjElement) -> PjElement:
        if isinstance(v, AffinePoint):
            return AffinePoint(v.x + self.a, v.y + self.b)
        if isinstance(v, FiniteLine):
            return FiniteLine(v.s, v.t - mul(self.kind, v.s, self.a) + self.b)
        if isinstance(v, VerticalLine):
            return VerticalLine(v.c + self.a)
        return v

    def invert(self) -> Translation:
        return Translation(self.kind, -self.a, -self.b)


class Shear(Collineation):
    """(x, y) -> (x, y + a o x); axis [0], center the infinity point."""

    __slots__ = ("kind", "a")
    _field_types = (AlgebraKind, Vec8)

    def _image(self, v: PjElement) -> PjElement:
        if isinstance(v, AffinePoint):
            return AffinePoint(v.x, v.y + mul(self.kind, self.a, v.x))
        if isinstance(v, SlopePoint):
            return SlopePoint(v.s + self.a)
        if isinstance(v, FiniteLine):
            return FiniteLine(v.s + self.a, v.t)
        return v

    def invert(self) -> Shear:
        return Shear(self.kind, -self.a)


class Triality(Collineation):
    """Cyclic shift of Veronese coordinates, read back on the affine chart.

    Defined on the Okubo and para planes, where ``Plane.sharp(v.cyclic())`` is
    ``sharp(v).cyclic()`` for every v; the octonionic adjoint breaks this at
    v = (e, e, i1; 0, 0, 0), so octonions raise ``KindMismatch``; ``inverse``
    is a bool (``TypeError`` otherwise).
    """

    __slots__ = ("kind", "inverse")
    _field_types = (AlgebraKind, bool)

    def __init__(self, kind: AlgebraKind = AlgebraKind.OKUBO, inverse: bool = False) -> None:
        if kind is AlgebraKind.OCTONION:
            raise KindMismatch("triality shift is defined on the Okubo and para planes")
        super().__init__(kind, inverse)

    def _shift(self, v: VeroneseVec) -> VeroneseVec:
        return v.cyclic().cyclic() if self.inverse else v.cyclic()

    def _image(self, v: PjElement) -> PjElement:
        plane = self.source_plane
        if isinstance(v, PjPoint):
            return plane.point_from_veronese(self._shift(plane.point_to_veronese(v)))
        return plane.line_from_veronese(self._shift(plane.line_to_veronese(v)))

    def invert(self) -> Triality:
        return Triality(self.kind, not self.inverse)


class ChartMap(Collineation):
    """A map between planes that keeps y and rewrites x by the linear map
    ``f``, slopes by ``g``: (x, y) -> (f(x), y), (s) -> (g(s)),
    [s, t] -> [g(s), t], [c] -> [f(c)].  The inverse map swaps the labels,
    the kinds and f with g."""

    __slots__ = ("label", "inverse_label", "source", "target", "f", "g")
    _field_types = (str, str, AlgebraKind, AlgebraKind, LinMap8, LinMap8)

    @property
    def name(self) -> str:
        return self.label

    def _image(self, v: PjElement) -> PjElement:
        if isinstance(v, AffinePoint):
            return AffinePoint(self.f.apply(v.x), v.y)
        if isinstance(v, SlopePoint):
            return SlopePoint(self.g.apply(v.s))
        if isinstance(v, FiniteLine):
            return FiniteLine(self.g.apply(v.s), v.t)
        if isinstance(v, VerticalLine):
            return VerticalLine(self.f.apply(v.c))
        return v

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

    def _image(self, v: PjElement) -> PjElement:
        if isinstance(v, AffinePoint):
            return AffinePoint(v.y, v.x)
        if isinstance(v, SlopePoint):
            if not v.s:
                return INFINITY_POINT
            return SlopePoint(solve_left(self.kind, v.s, E))  # s^-1
        if isinstance(v, InfinityPoint):
            return SlopePoint(Vec8.zero())
        if isinstance(v, FiniteLine):
            if not v.s:
                return VerticalLine(v.t)
            s_inv = solve_left(self.kind, v.s, E)
            return FiniteLine(s_inv, -mul(self.kind, s_inv, v.t))
        if isinstance(v, VerticalLine):
            return FiniteLine(Vec8.zero(), v.c)
        return v

    def invert(self) -> OctReflection:
        return OctReflection()


class Composite(Collineation):
    """Left-to-right chain of collineations with matching kinds; a step may
    itself be a composite.  ``steps`` is stored as a tuple, so the chain
    compares and hashes the same whatever iterable gave it."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Collineation]) -> None:
        steps = tuple(steps)
        if not steps:
            raise ValueError("empty composite")
        for step in steps:
            if not isinstance(step, Collineation):
                raise TypeError(f"a composite's steps are collineations, not {step!r}")
        for first, second in zip(steps, steps[1:]):
            if first.target is not second.source:
                raise KindMismatch(f"cannot chain {first.target.value} -> {second.source.value}")
        super().__init__(steps)

    @property
    def source(self) -> AlgebraKind:
        return self.steps[0].source

    @property
    def target(self) -> AlgebraKind:
        return self.steps[-1].target

    def _image(self, v: PjElement) -> PjElement:
        for step in self.steps:
            v = step._image(v)
        return v

    def invert(self) -> Composite:
        return Composite(step.invert() for step in reversed(self.steps))


def compose(*colls: Collineation) -> Composite:
    """compose(c1, c2)(p) applies c1 first, then c2."""
    return Composite(colls)


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


def g2_triple_check(a: LinMap8, b: LinMap8, c: LinMap8) -> bool:
    """Related-triple condition with respect to the Okubo product: the three
    maps fix e and B(s*x) = C(s)*A(x) for all s and x.  Both sides are
    bilinear, so the 64 basis pairs decide it exactly; at s = e and at x = e
    it gives B(e*x) = e*A(x) and B(x*e) = C(x)*e."""
    if a.images[0] != E or b.images[0] != E or c.images[0] != E:
        return False
    ok = AlgebraKind.OKUBO
    products = structure_table(ok).products
    return all(b.apply(products[i][j]) == mul(ok, cs, ax)
               for i, cs in enumerate(c.images) for j, ax in enumerate(a.images))
