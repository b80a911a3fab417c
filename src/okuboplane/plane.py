"""Affine plane over any of the three algebras, its projective completion,
and the Veronese model used to verify it.

Points (``PjPoint``) and lines (``PjLine``) are two families of tagged types
over the affine chart, mirroring the case analyses that define join and meet;
the 27-dimensional Veronese vectors are a verification layer (``beta``
vanishes exactly on incident point/line images, the adjoint ``Plane.sharp`` on
their multiples) and, on the symmetric kinds, whose ``sharp`` alone commutes
with the cyclic shift, the coordinates in which triality is that shift.

The kinds differ only in how a product is divided out, through the quotient
maps ``L`` and ``R`` of :mod:`.algebra` (a o L(a, b) = n(a) b = R(a, b) o a).
They give the slope through two points, the meet of two lines, the third slot
of a point image ``R(x, y)``, the first slot of a line image ``L(s, t)`` and
the outer slots of ``sharp``; for the octonions these carry the conjugations,
the unique placement under which point images, line data and
``beta``-incidence are mutually consistent (checked exactly in the tests).
"""

from __future__ import annotations

import random

from .algebra import (
    AlgebraKind,
    Vec8,
    draw,
    left_quotient,
    mul,
    norm,
    polar,
    random_vec,
    right_quotient,
    solve_left,
    solve_right,
)
from .scalar import QS_ONE, QS_ZERO, Frozen, QSqrt3


class EqualPoints(ValueError):
    """join() of a point with itself."""


class EqualLines(ValueError):
    """meet() of a line with itself."""


class InfiniteElement(ValueError):
    """An operation restricted to affine elements received an infinite one."""


class NotVeronese(ValueError):
    """A vector violating the Veronese conditions where they are required."""


class PostconditionViolation(ArithmeticError):
    """A closed formula returned an element failing its defining incidences
    (an arithmetic bug); raised explicitly so that ``python -O`` keeps it."""


class WrongElement(TypeError):
    """A line where a point is required, or a point where a line is."""


class PjElement(Frozen):
    """A point or line of the projective plane, whose fields are ``Vec8``
    coordinates (``TypeError`` otherwise).  A concrete type declares its
    JSON tag ``_tag`` and, when they differ from its fields, the JSON keys
    ``_keys``; each family keeps the tag table ``_types`` and encloses the
    text form (the fields, or ``inf`` when there are none) in ``_brackets``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._field_types = (Vec8,) * len(cls._fields)
        if "_tag" in cls.__dict__:
            cls._keys = cls.__dict__.get("_keys", cls._fields)
            cls._types[cls._tag] = cls

    def to_json(self) -> dict:
        return {"t": self._tag, **{k: v.to_json() for k, v in zip(self._keys, self._values(self))}}

    def __str__(self) -> str:
        inner = ", ".join(map(str, self._values(self))) or "inf"
        return f"{self._brackets[0]}{inner}{self._brackets[1]}"

    @classmethod
    def from_json(cls, data: object) -> PjElement:
        """Inverse of ``to_json``: ``ValueError`` unless ``data`` is a dict with
        a tag ``t`` of this family and exactly the other keys that tag needs."""
        tag = data.get("t") if isinstance(data, dict) else None
        found = cls._types.get(tag) if isinstance(tag, str) else None
        if found is None or data.keys() != {"t", *found._keys}:
            raise ValueError(f"expected a dict whose 't' is one of {sorted(cls._types)}, with"
                             f" exactly the keys that tag needs, not {data!r}")
        return found(*(Vec8.from_json(data[k]) for k in found._keys))


class PjPoint(PjElement):
    __slots__ = ()
    _types, _brackets = {}, "()"


class PjLine(PjElement):
    __slots__ = ()
    _types, _brackets = {}, "[]"


class AffinePoint(PjPoint):
    __slots__ = ("x", "y")
    _tag = "affine"


class SlopePoint(PjPoint):
    """The point at infinity shared by all lines of slope s."""

    __slots__ = ("s",)
    _tag = "slope"


class InfinityPoint(PjPoint):
    """The point at infinity of vertical lines and of the line at infinity."""

    __slots__ = ()
    _tag = "infinity"


class FiniteLine(PjLine):
    """[s, t] = all points (x, s o x + t)."""

    __slots__ = ("s", "t")
    _tag, _keys = "line", ("slope", "offset")


class VerticalLine(PjLine):
    """[c] = {c} x algebra."""

    __slots__ = ("c",)
    _tag = "vertical"


class LineAtInfinity(PjLine):
    __slots__ = ()
    _tag = "line-at-infinity"


INFINITY_POINT = InfinityPoint()
LINE_AT_INFINITY = LineAtInfinity()
point_from_json = PjPoint.from_json
line_from_json = PjLine.from_json


class VeroneseVec(Frozen):
    """A vector (x1, x2, x3; l1, l2, l3) of the 27-dimensional model space;
    ``TypeError`` unless x1-x3 are ``Vec8`` and l1-l3 are ``QSqrt3``."""

    __slots__ = ("x1", "x2", "x3", "l1", "l2", "l3")
    _field_types = (Vec8, Vec8, Vec8, QSqrt3, QSqrt3, QSqrt3)

    def scale(self, s: QSqrt3) -> VeroneseVec:
        return VeroneseVec(
            self.x1.scale(s), self.x2.scale(s), self.x3.scale(s),
            self.l1 * s, self.l2 * s, self.l3 * s,
        )

    def cyclic(self) -> VeroneseVec:
        """(x1,x2,x3; l1,l2,l3) -> (x2,x3,x1; l2,l3,l1)."""
        return VeroneseVec(self.x2, self.x3, self.x1, self.l2, self.l3, self.l1)

    def __bool__(self) -> bool:
        return bool(self.x1) or bool(self.x2) or bool(self.x3) or bool(self.l1) or bool(self.l2) or bool(self.l3)


def beta(v: VeroneseVec, w: VeroneseVec) -> QSqrt3:
    """Symmetric bilinear form: sum of slot polarisations plus lambda products."""
    return (
        polar(v.x1, w.x1) + polar(v.x2, w.x2) + polar(v.x3, w.x3)
        + v.l1 * w.l1 + v.l2 * w.l2 + v.l3 * w.l3
    )


class Plane(Frozen):
    """One of the three planes; the kind, an ``AlgebraKind`` (``TypeError``
    otherwise), selects product, slope/meet formulas and the Veronese variant."""

    __slots__ = ("kind",)
    _field_types = (AlgebraKind,)

    def mul(self, x: Vec8, y: Vec8) -> Vec8:
        return mul(self.kind, x, y)

    # -- incidence ---------------------------------------------------------

    def incident(self, p: PjPoint, l: PjLine) -> bool:
        if not (isinstance(p, PjPoint) and isinstance(l, PjLine)):
            raise WrongElement(f"incident takes a point and a line, not {p} and {l}")
        if isinstance(p, AffinePoint):
            if isinstance(l, FiniteLine):
                return p.y == self.mul(l.s, p.x) + l.t
            if isinstance(l, VerticalLine):
                return p.x == l.c
            return False
        if isinstance(p, SlopePoint):
            if isinstance(l, FiniteLine):
                return p.s == l.s
            return isinstance(l, LineAtInfinity)
        # infinity point
        return isinstance(l, (VerticalLine, LineAtInfinity))

    # -- join / meet -------------------------------------------------------

    def join(self, p: PjPoint, q: PjPoint) -> PjLine:
        """The unique line through two distinct points, verified on exit at
        the point the formula does not pass through by construction.

        ``_join`` builds its line through the affine point it is given first,
        t = p.y - s o p.x, so that point lies on it by exact arithmetic
        ((p.y - m) + m = p.y).  The other point is checked: through two affine
        points that tests the slope ``solve_right`` returned; in every other
        case it compares slopes or x only."""
        if p == q:
            raise EqualPoints(f"join of equal points {p}")
        out = self._join(p, q)
        if not self.incident(q if isinstance(p, AffinePoint) else p, out):
            raise PostconditionViolation(f"join of {p} and {q} gave {out}")
        return out

    def _join(self, p: PjPoint, q: PjPoint) -> PjLine:
        if isinstance(p, AffinePoint) and isinstance(q, AffinePoint):
            if p.x == q.x:
                return VerticalLine(p.x)
            s = solve_right(self.kind, p.x - q.x, p.y - q.y)
            return FiniteLine(s, p.y - self.mul(s, p.x))
        if isinstance(q, AffinePoint):
            p, q = q, p
        if isinstance(p, AffinePoint):
            if isinstance(q, SlopePoint):
                return FiniteLine(q.s, p.y - self.mul(q.s, p.x))
            return VerticalLine(p.x)
        return LINE_AT_INFINITY

    def meet(self, l: PjLine, m: PjLine) -> PjPoint:
        """The unique common point of two distinct lines, verified on exit on
        the line the formula does not put it on by construction.

        ``_meet`` builds its point on the finite line it is given first,
        y = l.s o x + l.t, so that line holds it by exact arithmetic.  The
        other line is checked: for two finite lines that tests the x
        ``solve_left`` returned; in every other case it compares slopes or x
        only."""
        if l == m:
            raise EqualLines(f"meet of equal lines {l}")
        out = self._meet(l, m)
        if not self.incident(out, m if isinstance(l, FiniteLine) else l):
            raise PostconditionViolation(f"meet of {l} and {m} gave {out}")
        return out

    def _meet(self, l: PjLine, m: PjLine) -> PjPoint:
        if isinstance(l, FiniteLine) and isinstance(m, FiniteLine):
            if l.s == m.s:
                return SlopePoint(l.s)
            x = solve_left(self.kind, l.s - m.s, m.t - l.t)
            return AffinePoint(x, self.mul(l.s, x) + l.t)
        if isinstance(m, FiniteLine):
            l, m = m, l
        if isinstance(l, FiniteLine):
            if isinstance(m, VerticalLine):
                return AffinePoint(m.c, self.mul(l.s, m.c) + l.t)
            return SlopePoint(l.s)
        return INFINITY_POINT

    def parallel_through(self, l: PjLine, p: AffinePoint) -> PjLine:
        """The unique affine line through the affine point p parallel to l: p joined to
        l's point at infinity.  ``InfiniteElement`` when l or p is at infinity."""
        if l == LINE_AT_INFINITY:
            raise InfiniteElement("no affine parallel to the line at infinity")
        if isinstance(p, (SlopePoint, InfinityPoint)):
            raise InfiniteElement(f"no affine line through the point at infinity {p}")
        return self.join(p, self.meet(l, LINE_AT_INFINITY))

    # -- Veronese correspondence -------------------------------------------

    def point_to_veronese(self, p: PjPoint) -> VeroneseVec:
        if isinstance(p, AffinePoint):
            z = right_quotient(self.kind, p.x, p.y)
            return VeroneseVec(p.x, p.y, z, norm(p.y), norm(p.x), QS_ONE)
        if isinstance(p, SlopePoint):
            return VeroneseVec(Vec8.zero(), Vec8.zero(), p.s, norm(p.s), QS_ONE, QS_ZERO)
        if not isinstance(p, PjPoint):
            raise WrongElement(f"point_to_veronese takes a point, not {p}")
        return VeroneseVec(Vec8.zero(), Vec8.zero(), Vec8.zero(), QS_ONE, QS_ZERO, QS_ZERO)

    def line_to_veronese(self, l: PjLine) -> VeroneseVec:
        if isinstance(l, FiniteLine):
            w1 = left_quotient(self.kind, l.s, l.t)
            return VeroneseVec(w1, -l.t, -l.s, QS_ONE, norm(l.s), norm(l.t))
        if isinstance(l, VerticalLine):
            return VeroneseVec(-l.c, Vec8.zero(), Vec8.zero(), QS_ZERO, QS_ONE, norm(l.c))
        if not isinstance(l, PjLine):
            raise WrongElement(f"line_to_veronese takes a line, not {l}")
        return VeroneseVec(Vec8.zero(), Vec8.zero(), Vec8.zero(), QS_ZERO, QS_ZERO, QS_ONE)

    def point_from_veronese(self, v: VeroneseVec) -> PjPoint:
        """Decode a nonzero Veronese vector back to a projective point."""
        if v.l3:
            inv = v.l3.inv()
            return AffinePoint(v.x1.scale(inv), v.x2.scale(inv))
        if v.l2:
            return SlopePoint(v.x3.scale(v.l2.inv()))
        if v.l1:
            return INFINITY_POINT
        raise NotVeronese("vector does not represent a point")

    def line_from_veronese(self, w: VeroneseVec) -> PjLine:
        """Decode a nonzero Veronese line datum back to a projective line."""
        if w.l1:
            inv = w.l1.inv()
            return FiniteLine((-w.x3).scale(inv), (-w.x2).scale(inv))
        if w.l2:
            return VerticalLine((-w.x1).scale(w.l2.inv()))
        if w.l3:
            return LINE_AT_INFINITY
        raise NotVeronese("vector does not represent a line")

    def sharp(self, v: VeroneseVec) -> VeroneseVec:
        """The quadratic adjoint v^# = (L(x3, x2) - l1 x1, x3 o x1 - l2 x2,
        R(x1, x2) - l3 x3; l2 l3 - n(x1), l3 l1 - n(x2), l1 l2 - n(x3)).
        It vanishes exactly on zero and the point and line images up to scale."""
        return VeroneseVec(
            left_quotient(self.kind, v.x3, v.x2) - v.x1.scale(v.l1),
            self.mul(v.x3, v.x1) - v.x2.scale(v.l2),
            right_quotient(self.kind, v.x1, v.x2) - v.x3.scale(v.l3),
            v.l2 * v.l3 - norm(v.x1), v.l3 * v.l1 - norm(v.x2), v.l1 * v.l2 - norm(v.x3),
        )

    def is_veronese(self, v: VeroneseVec) -> bool:
        """The six kind-specific Veronese conditions: ``sharp(v)`` vanishes."""
        return not self.sharp(v)

    def normalize_veronese(self, v: VeroneseVec) -> VeroneseVec:
        """``v`` scaled to l1 + l2 + l3 = 1; ``NotVeronese`` for zero or ``sharp(v)`` != 0.
        The sum is never 0, as n is positive definite: ``sharp(v)`` = 0 gives l2 l3 = n(x1),
        l3 l1 = n(x2) and l1 l2 = n(x3), so l3 (l1 + l2 + l3) = n(x1) + n(x2) + l3^2 > 0 if
        l3 != 0, and if l3 = 0 then x1 = x2 = 0 and l1 l2 = n(x3) >= 0 with (l1, l2) != 0."""
        if not v:
            raise NotVeronese("cannot normalise the zero vector")
        if not self.is_veronese(v):
            raise NotVeronese("vector violates the Veronese conditions")
        return v.scale((v.l1 + v.l2 + v.l3).inv())

    def distance(self, p: PjPoint, q: PjPoint) -> QSqrt3:
        """Affine-chart n(dx)^2 + n(dy)^2, kept by every translation: not the elliptic metric."""
        if not isinstance(p, AffinePoint) or not isinstance(q, AffinePoint):
            raise InfiniteElement("distance is defined for affine points only")
        nx = norm(p.x - q.x)
        ny = norm(p.y - q.y)
        return nx * nx + ny * ny


PLANES = {kind: Plane(kind) for kind in AlgebraKind}
OCTONION_PLANE, PARA_PLANE, OKUBO_PLANE = PLANES.values()  # AlgebraKind's order


# -- randomized sampling helpers (shared by suites and tests) ---------------

def random_affine_point(rng: random.Random) -> AffinePoint:
    return AffinePoint(random_vec(rng), random_vec(rng))


def random_point(rng: random.Random) -> PjPoint:
    r = rng.random()
    if r < 0.85:
        return random_affine_point(rng)
    if r < 0.97:
        return SlopePoint(random_vec(rng))
    return INFINITY_POINT


def random_line(rng: random.Random) -> PjLine:
    r = rng.random()
    if r < 0.80:
        return FiniteLine(random_vec(rng), random_vec(rng))
    if r < 0.96:
        return VerticalLine(random_vec(rng))
    return LINE_AT_INFINITY


def random_affine_point_on(plane: Plane, l: PjLine, rng: random.Random) -> AffinePoint:
    """An affine point of the finite or vertical line ``l``."""
    if isinstance(l, FiniteLine):
        x = random_vec(rng)
        return AffinePoint(x, plane.mul(l.s, x) + l.t)
    return AffinePoint(l.c, random_vec(rng))


def random_point_on(plane: Plane, l: PjLine, rng: random.Random) -> PjPoint:
    if isinstance(l, LineAtInfinity):
        return INFINITY_POINT if rng.random() < 0.1 else SlopePoint(random_vec(rng))
    if rng.random() < 0.05:
        return SlopePoint(l.s) if isinstance(l, FiniteLine) else INFINITY_POINT
    return random_affine_point_on(plane, l, rng)


def random_incident_pair(plane: Plane, rng: random.Random) -> tuple[PjPoint, PjLine]:
    l = random_line(rng)
    return random_point_on(plane, l, rng), l


def random_non_incident_pair(plane: Plane, rng: random.Random) -> tuple[PjPoint, PjLine]:
    return draw(rng, lambda r: (random_point(r), random_line(r)), lambda pl: plane.incident(*pl))
