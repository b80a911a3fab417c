"""End-to-end incidence-theorem harness.

Little Desargues configurations are built by the eight-step procedure (pick
axis and center, grow two perspective triangles through joins and meets) and
verified by checking that the last intersection point lands on the axis; the
same construction with the center off the axis searches for an exact
counterexample to the full Desargues theorem.  The planar ternary ring of the
Okubo plane, and the basis pair showing it is not linear, close the module.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Optional

from .algebra import BASIS, Vec8, random_vec, trial_rng
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


class DegenerateAfterRetries(RuntimeError):
    """Random draws stayed degenerate past the retry budget."""


_RETRIES = 64


class DesarguesConfig(Frozen):
    """Two triangles a b c and a' b' c' perspective from ``center``, with the
    side intersections l2, l3 already placed on ``axis`` by construction
    and, optionally, the deciding intersection l1."""

    __slots__ = ("center", "axis", "a", "b", "c", "a1", "b1", "c1", "l2", "l3", "l1")
    _optional = ("l1",)

    def to_json(self) -> dict:
        values = zip(self.__slots__, self._values(self))
        return {name: v.to_json() for name, v in values if v is not None}

    @staticmethod
    def from_json(data: dict) -> DesarguesConfig:
        """Inverse of to_json; ``axis`` is the one line, l1 may be absent.
        Any other missing key, or an unknown one, raises ``ValueError``."""
        names = set(DesarguesConfig.__slots__)
        if not (isinstance(data, dict) and names - {"l1"} <= data.keys() <= names):
            got = sorted(data) if isinstance(data, dict) else data
            raise ValueError(f"expected the keys {sorted(names)}, l1 optional, not {got!r}")
        return DesarguesConfig(**{
            name: (line_from_json if name == "axis" else point_from_json)(value)
            for name, value in data.items()
        })


def _draw(rng: random.Random, reject, make) -> PjPoint:
    for _ in range(_RETRIES):
        p = make(rng)
        if not reject(p):
            return p
    raise DegenerateAfterRetries("point draws stayed degenerate; widen the generator range")


def _build_config(plane: Plane, seed: int, center_on_axis: bool) -> DesarguesConfig:
    for attempt in range(_RETRIES):
        rng = trial_rng(seed, attempt)
        try:
            return _try_build(plane, rng, center_on_axis)
        except (EqualPoints, EqualLines, _Retry):
            continue
    raise DegenerateAfterRetries("no non-degenerate configuration within the retry budget")


class _Retry(Exception):
    """Internal: restart the whole configuration draw."""


def _try_build(plane: Plane, rng: random.Random, center_on_axis: bool) -> DesarguesConfig:
    axis = FiniteLine(random_vec(rng), random_vec(rng))
    if center_on_axis:
        center: PjPoint = random_affine_point_on(plane, axis, rng)
    else:
        center = _draw(rng, lambda p: plane.incident(p, axis), random_affine_point)

    a = _draw(rng, lambda p: plane.incident(p, axis) or p == center, random_affine_point)
    line_ap = plane.join(a, center)
    a1 = _draw(
        rng,
        lambda p: p == a or p == center or plane.incident(p, axis),
        lambda r: random_affine_point_on(plane, line_ap, r),
    )

    b = _draw(
        rng, lambda p: plane.incident(p, axis) or plane.incident(p, line_ap), random_affine_point
    )
    line_ab = plane.join(a, b)
    l3 = plane.meet(line_ab, axis)
    line_bp = plane.join(b, center)
    line_l3a1 = plane.join(l3, a1)
    if line_l3a1 == line_bp:
        raise _Retry
    b1 = plane.meet(line_l3a1, line_bp)
    if b1 == b or b1 == center or b1 == a1:
        raise _Retry

    c = _draw(
        rng,
        lambda p: (
            plane.incident(p, axis)
            or plane.incident(p, line_ap)
            or plane.incident(p, line_bp)
            or plane.incident(p, line_ab)
        ),
        random_affine_point,
    )
    line_ac = plane.join(a, c)
    l2 = plane.meet(line_ac, axis)
    line_cp = plane.join(c, center)
    line_l2a1 = plane.join(l2, a1)
    if line_l2a1 == line_cp:
        raise _Retry
    c1 = plane.meet(line_l2a1, line_cp)
    if c1 == c or c1 == center or c1 == b1 or c1 == a1:
        raise _Retry

    if plane.join(c, b) == plane.join(c1, b1):
        raise _Retry
    return DesarguesConfig(center, axis, a, b, c, a1, b1, c1, l2, l3)


def little_desargues_build(plane: Plane, seed: int) -> DesarguesConfig:
    """A random perspective configuration whose center lies on the axis."""
    return _build_config(plane, seed, center_on_axis=True)


def desargues_l1(plane: Plane, cfg: DesarguesConfig) -> PjPoint:
    """The intersection of side cb with side c'b'."""
    try:
        return plane.meet(plane.join(cfg.c, cfg.b), plane.join(cfg.c1, cfg.b1))
    except (EqualPoints, EqualLines) as exc:
        raise DegenerateConfig(str(exc)) from exc


def little_desargues_verify(plane: Plane, cfg: DesarguesConfig) -> bool:
    """True iff l1 = (cb) meet (c'b') is incident to the axis."""
    return plane.incident(desargues_l1(plane, cfg), cfg.axis)


def _subseed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def desargues_falsify(plane: Plane, seed: int, max_trials: int) -> Optional[DesarguesConfig]:
    """Search for a perspective configuration with the center off the axis
    whose conclusion fails; returns it with l1 filled, or None on budget
    exhaustion (a witness is normally found within a few trials).
    ``ValueError`` when ``max_trials < 1``: an empty search proves nothing."""
    if max_trials < 1:
        raise ValueError(f"desargues_falsify needs at least one trial, not {max_trials}")
    for trial in range(max_trials):
        cfg = _build_config(plane, _subseed(seed, trial), center_on_axis=False)
        try:
            l1 = desargues_l1(plane, cfg)
        except DegenerateConfig:
            continue
        if not plane.incident(l1, cfg.axis):
            return DesarguesConfig(*cfg._values(cfg)[:-1], l1)
    return None


def config_incidences(plane: Plane, cfg: DesarguesConfig) -> list[str]:
    """Names of violated construction incidences (empty for a sound config)."""
    on = plane.incident
    j = plane.join
    checks = {
        "a1 on join(a, center)": on(cfg.a1, j(cfg.a, cfg.center)),
        "b1 on join(b, center)": on(cfg.b1, j(cfg.b, cfg.center)),
        "c1 on join(c, center)": on(cfg.c1, j(cfg.c, cfg.center)),
        "l3 on axis": on(cfg.l3, cfg.axis),
        "l3 on join(a, b)": on(cfg.l3, j(cfg.a, cfg.b)),
        "l3 on join(a1, b1)": on(cfg.l3, j(cfg.a1, cfg.b1)),
        "l2 on axis": on(cfg.l2, cfg.axis),
        "l2 on join(a, c)": on(cfg.l2, j(cfg.a, cfg.c)),
        "l2 on join(a1, c1)": on(cfg.l2, j(cfg.a1, cfg.c1)),
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
