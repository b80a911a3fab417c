"""End-to-end incidence-theorem harness.

Little Desargues configurations are built by the eight-step procedure (pick
axis and center, grow two perspective triangles through joins and meets) and
verified by checking that the last intersection point lands on the axis; the
same construction with the center off the axis searches for an exact
counterexample to the full Desargues theorem.  A built configuration carries
the seven sides its build joined (a o, b o, c o, a b, a c, c b and c' b'), and
the checks read them there, so each side is joined once; only a' b' and a' c',
which the build never makes, are joined by the checks.  The planar ternary
ring of the Okubo plane, and the basis pair showing it is not linear, close
the module.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .algebra import BASIS, Vec8, draw, random_vec, trial_rng
from .plane import (
    EqualLines,
    EqualPoints,
    FiniteLine,
    OCTONION_PLANE,
    OKUBO_PLANE,
    PjLine,
    PjPoint,
    Plane,
    line_from_json,
    point_from_json,
    random_affine_point,
    random_affine_point_on,
)
from .scalar import Frozen


class DegenerateConfig(ValueError):
    """A configuration collapsed (coincident points or lines) during verify."""


class DesarguesConfig(Frozen):
    """Two triangles a b c and a' b' c' perspective from ``center``, with the
    side intersections l2, l3 already placed on ``axis`` by construction
    and, optionally, the deciding intersection l1.  ``axis`` is a ``PjLine``
    and every other field a ``PjPoint`` (``TypeError`` otherwise).

    A built configuration also carries the sides its build joined, with the
    kind of their plane, in the derived slot ``_lines``; it is not a field, so
    equality, hash, JSON and pickle ignore it, and any other configuration
    carries ``None``."""

    __slots__ = ("center", "axis", "a", "b", "c", "a1", "b1", "c1", "l2", "l3", "l1", "_lines")
    _fields = __slots__[:-1]  # _lines is derived: the sides the build joined
    _optional = ("l1",)
    _field_types = (PjPoint, PjLine) + (PjPoint,) * 8 + ((PjPoint, type(None)),)

    def __init__(self, *args: object, **kwargs: object) -> None:
        Frozen.__init__(self, *args, **kwargs)
        object.__setattr__(self, "_lines", None)

    def to_json(self) -> dict:
        values = zip(self._fields, self._values(self))
        return {name: v.to_json() for name, v in values if v is not None}

    @staticmethod
    def from_json(data: dict) -> DesarguesConfig:
        """Inverse of to_json; ``axis`` is the one line, l1 may be absent.
        Any other missing key, or an unknown one, raises ``ValueError``."""
        names = set(DesarguesConfig._fields)
        if not (isinstance(data, dict) and names - {"l1"} <= data.keys() <= names):
            got = sorted(data) if isinstance(data, dict) else data
            raise ValueError(f"expected the keys {sorted(names)}, l1 optional, not {got!r}")
        return DesarguesConfig(**{
            name: (line_from_json if name == "axis" else point_from_json)(value)
            for name, value in data.items()
        })


def _carrying(cfg: DesarguesConfig, lines: tuple) -> DesarguesConfig:
    """``cfg`` with ``lines``, a pair (kind, {(p, q): the line p q}), in ``_lines``."""
    object.__setattr__(cfg, "_lines", lines)
    return cfg


def _side(plane: Plane, cfg: DesarguesConfig, p: str, q: str) -> PjLine:
    """The line through the points of ``cfg`` named ``p`` and ``q``: the one the
    build joined, when ``cfg`` carries the lines of this plane, else a new join."""
    carried = cfg._lines
    if carried is not None and carried[0] is plane.kind and (p, q) in carried[1]:
        return carried[1][p, q]
    return plane.join(getattr(cfg, p), getattr(cfg, q))


def _build_config(plane: Plane, seed: int, center_on_axis: bool) -> DesarguesConfig:
    """The configuration drawn from ``trial_rng(seed, 0)``, never redrawn.  With o the center,
    the draws put a, b, c and a' off the axis, a != o, a' on a o and not a or o, b off a o, and
    c off a o, b o and a b.  In a projective plane that excludes every coincidence.  For v = b, c,
    with l = (a v) meet axis and v' = (l a') meet (v o): l != a'; l a' != v o, else a' = o;
    v' != v, else l a' = a v and a' = a; v' != o, else l is on a o and l = a.  So a', b' and c'
    are distinct, on a o, b o and c o, and c b != c' b', else c' = c.  An ``EqualPoints`` or
    ``EqualLines`` raised here, or by c b meet c' b', means a broken plane; it propagates."""
    rng = trial_rng(seed, 0)
    axis = FiniteLine(random_vec(rng), random_vec(rng))
    if center_on_axis:
        center: PjPoint = random_affine_point_on(plane, axis, rng)
    else:
        center = draw(rng, random_affine_point, lambda p: plane.incident(p, axis))

    a = draw(rng, random_affine_point, lambda p: plane.incident(p, axis) or p == center)
    line_ap = plane.join(a, center)
    a1 = draw(
        rng,
        lambda r: random_affine_point_on(plane, line_ap, r),
        lambda p: p == a or p == center or plane.incident(p, axis),
    )

    def vertex(off: tuple) -> tuple:
        """v off the lines ``off``, v', l = (a v) meet axis, and the lines a v and v o."""
        v = draw(rng, random_affine_point, lambda p: any(plane.incident(p, m) for m in off))
        side = plane.join(a, v)
        l = plane.meet(side, axis)
        ray = plane.join(v, center)
        return v, plane.meet(plane.join(l, a1), ray), l, side, ray

    b, b1, l3, line_ab, line_bp = vertex((axis, line_ap))
    c, c1, l2, line_ac, line_cp = vertex((axis, line_ap, line_bp, line_ab))

    lines = {("a", "center"): line_ap, ("b", "center"): line_bp, ("c", "center"): line_cp,
             ("a", "b"): line_ab, ("a", "c"): line_ac, ("c", "b"): plane.join(c, b),
             ("c1", "b1"): plane.join(c1, b1)}
    cfg = DesarguesConfig(center, axis, a, b, c, a1, b1, c1, l2, l3)
    return _carrying(cfg, (plane.kind, lines))


def little_desargues_build(plane: Plane, seed: int) -> DesarguesConfig:
    """A random perspective configuration whose center lies on the axis."""
    return _build_config(plane, seed, center_on_axis=True)


def desargues_l1(plane: Plane, cfg: DesarguesConfig) -> PjPoint:
    """The intersection of side cb with side c'b'."""
    try:
        return plane.meet(_side(plane, cfg, "c", "b"), _side(plane, cfg, "c1", "b1"))
    except (EqualPoints, EqualLines) as exc:
        raise DegenerateConfig(str(exc)) from exc


def little_desargues_verify(plane: Plane, cfg: DesarguesConfig) -> bool:
    """True iff l1 = (cb) meet (c'b') is incident to the axis."""
    return plane.incident(desargues_l1(plane, cfg), cfg.axis)


def config_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th Desargues configuration."""
    return seed * 1_000_003 + index


def desargues_falsify(plane: Plane, seed: int, max_trials: int) -> Optional[DesarguesConfig]:
    """Search for a perspective configuration with the center off the axis
    whose conclusion fails; returns it with l1 filled, or None on budget
    exhaustion (a witness is normally found within a few trials).
    ``ValueError`` when ``max_trials < 1``: an empty search proves nothing."""
    if max_trials < 1:
        raise ValueError(f"desargues_falsify needs at least one trial, not {max_trials}")
    for trial in range(max_trials):
        cfg = _build_config(plane, config_seed(seed, trial), center_on_axis=False)
        # one call per configuration tested; it meets the sides cb and c'b' the build joined
        l1 = desargues_l1(plane, cfg)
        if not plane.incident(l1, cfg.axis):
            return _carrying(DesarguesConfig(*cfg._values(cfg)[:-1], l1), cfg._lines)
    return None


def config_incidences(plane: Plane, cfg: DesarguesConfig) -> list[str]:
    """Names of violated construction incidences (empty for a sound config).
    Each side is the build's line when ``cfg`` carries the lines of ``plane``;
    a'b' and a'c', which the build never joins, are always joined here."""
    on = plane.incident

    def j(p: str, q: str) -> PjLine:
        return _side(plane, cfg, p, q)

    checks = {
        "a1 on join(a, center)": on(cfg.a1, j("a", "center")),
        "b1 on join(b, center)": on(cfg.b1, j("b", "center")),
        "c1 on join(c, center)": on(cfg.c1, j("c", "center")),
        "l3 on axis": on(cfg.l3, cfg.axis),
        "l3 on join(a, b)": on(cfg.l3, j("a", "b")),
        "l3 on join(a1, b1)": on(cfg.l3, j("a1", "b1")),
        "l2 on axis": on(cfg.l2, cfg.axis),
        "l2 on join(a, c)": on(cfg.l2, j("a", "c")),
        "l2 on join(a1, c1)": on(cfg.l2, j("a1", "c1")),
    }
    return [name for name, ok in checks.items() if not ok]


# -- planar ternary ring over the Okubo plane -------------------------------

def ptr_theta(s: Vec8, x: Vec8, t: Vec8) -> Vec8:
    """theta(s, x, t): the unique y with (x, y) on [s, t] in the Okubo plane.

    Coordinatisation relabels the basis identically (e <-> 1, ik <-> ik), so
    the operation is s*x + t with the Okubo product.
    """
    return OKUBO_PLANE.mul(s, x) + t


def ptr_product(s: Vec8, x: Vec8) -> Vec8:
    """Associated product s x := theta(s, x, 0)."""
    return ptr_theta(s, x, Vec8.zero())


def ptr_nonlinearity_witness() -> Optional[tuple[Vec8, Vec8, Vec8, Vec8]]:
    """Basis pair (s, x) with theta(s, x, 0) != s . x (octonion product);
    returns (s, x, lhs, rhs), or None if the products agree on the basis."""
    for s, x in product(BASIS, repeat=2):
        lhs, rhs = ptr_product(s, x), OCTONION_PLANE.mul(s, x)
        if lhs != rhs:
            return s, x, lhs, rhs
    return None
