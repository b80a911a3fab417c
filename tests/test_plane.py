import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import okuboplane

from okuboplane.algebra import (
    AlgebraKind, DegenerateAfterRetries, E, Vec8, draw, mul, norm, trial_rng, random_scalar,
    random_vec, solve_left, solve_right,
)
from okuboplane.plane import (
    INFINITY_POINT,
    LINE_AT_INFINITY,
    OCTONION_PLANE,
    OKUBO_PLANE,
    PARA_PLANE,
    PLANES,
    AffinePoint,
    EqualLines,
    EqualPoints,
    FiniteLine,
    InfiniteElement,
    NotVeronese,
    Plane,
    PostconditionViolation,
    SlopePoint,
    VerticalLine,
    VeroneseVec,
    WrongElement,
    beta,
    line_from_json,
    point_from_json,
    random_affine_point,
    random_incident_pair,
    random_line,
    random_non_incident_pair,
    random_point,
)
from okuboplane.scalar import QS_ONE, QS_ZERO, QSqrt3

ZERO = Vec8.zero()
I1 = Vec8.basis(1)
ORIGIN = AffinePoint(ZERO, ZERO)


def q(a, b=0):
    return QSqrt3(Fraction(a), Fraction(b))


# -- join ---------------------------------------------------------------------

def test_join_origin_with_diagonal_unit():
    l = OKUBO_PLANE.join(ORIGIN, AffinePoint(E, E))
    assert l == FiniteLine(E, ZERO)


def test_join_origin_with_infinity_is_y_axis():
    assert OKUBO_PLANE.join(ORIGIN, INFINITY_POINT) == VerticalLine(ZERO)


def test_join_diagonal_i1_through_origin():
    l = OKUBO_PLANE.join(AffinePoint(I1, I1), ORIGIN)
    assert l == FiniteLine(mul(AlgebraKind.OKUBO, I1, I1), ZERO)


def test_join_postcondition_raises_named_exception(monkeypatch):
    monkeypatch.setattr(Plane, "_join", lambda self, p, q: LINE_AT_INFINITY)
    with pytest.raises(PostconditionViolation):
        OKUBO_PLANE.join(ORIGIN, AffinePoint(E, E))


def test_meet_postcondition_raises_named_exception(monkeypatch):
    monkeypatch.setattr(Plane, "_meet", lambda self, l, m: INFINITY_POINT)
    with pytest.raises(PostconditionViolation):
        OKUBO_PLANE.meet(FiniteLine(ZERO, ZERO), FiniteLine(E, ZERO))


def test_postconditions_survive_python_optimize():
    code = (
        "from okuboplane.algebra import E, Vec8\n"
        "from okuboplane.plane import LINE_AT_INFINITY, OKUBO_PLANE, AffinePoint, Plane,"
        " PostconditionViolation\n"
        "Plane._join = lambda self, p, q: LINE_AT_INFINITY\n"
        "origin = AffinePoint(Vec8.zero(), Vec8.zero())\n"
        "try:\n"
        "    OKUBO_PLANE.join(origin, AffinePoint(E, E))\n"
        "except PostconditionViolation:\n"
        "    print('debug', __debug__, 'raised')\n"
    )
    src = str(Path(okuboplane.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["debug", "False", "raised"]


def test_meet_postcondition_survives_python_optimize():
    code = (
        "from okuboplane.algebra import E, Vec8\n"
        "from okuboplane.plane import INFINITY_POINT, OKUBO_PLANE, FiniteLine, Plane,"
        " PostconditionViolation\n"
        "Plane._meet = lambda self, l, m: INFINITY_POINT\n"
        "zero = Vec8.zero()\n"
        "try:\n"
        "    OKUBO_PLANE.meet(FiniteLine(zero, zero), FiniteLine(E, zero))\n"
        "except PostconditionViolation:\n"
        "    print('debug', __debug__, 'raised')\n"
    )
    src = str(Path(okuboplane.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["debug", "False", "raised"]


# join and meet check only the incidence their formula does not give by construction:
# a wrong quotient must still be caught, and would not be if the formula were rebuilt
# through the checked element

@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda k: k.value)
def test_join_catches_a_wrong_slope_from_solve_right(monkeypatch, kind):
    monkeypatch.setattr(okuboplane.plane, "solve_right",
                        lambda kind, a, b: solve_right(kind, a, b) + E)
    with pytest.raises(PostconditionViolation):
        PLANES[kind].join(ORIGIN, AffinePoint(E, I1))
    with pytest.raises(PostconditionViolation):
        PLANES[kind].join(AffinePoint(E, I1), ORIGIN)


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda k: k.value)
def test_meet_catches_a_wrong_point_from_solve_left(monkeypatch, kind):
    monkeypatch.setattr(okuboplane.plane, "solve_left",
                        lambda kind, a, b: solve_left(kind, a, b) + E)
    l, m = FiniteLine(ZERO, ZERO), FiniteLine(E, I1)
    with pytest.raises(PostconditionViolation):
        PLANES[kind].meet(l, m)
    with pytest.raises(PostconditionViolation):
        PLANES[kind].meet(m, l)


def test_join_equal_points_raises():
    with pytest.raises(EqualPoints):
        OKUBO_PLANE.join(ORIGIN, ORIGIN)
    with pytest.raises(EqualPoints):
        OKUBO_PLANE.join(INFINITY_POINT, INFINITY_POINT)


def test_join_slope_cases():
    p = AffinePoint(E, I1)
    s = Vec8.basis(2)
    l = OKUBO_PLANE.join(p, SlopePoint(s))
    assert isinstance(l, FiniteLine) and l.s == s
    assert OKUBO_PLANE.incident(p, l)
    assert OKUBO_PLANE.join(SlopePoint(s), SlopePoint(Vec8.basis(3))) == LINE_AT_INFINITY
    assert OKUBO_PLANE.join(SlopePoint(s), INFINITY_POINT) == LINE_AT_INFINITY


# -- meet ---------------------------------------------------------------------

def test_meet_axes_at_origin():
    x_axis = FiniteLine(ZERO, ZERO)
    y_axis = VerticalLine(ZERO)
    assert OKUBO_PLANE.meet(x_axis, y_axis) == ORIGIN


def test_meet_parallel_lines_at_slope_point():
    assert OKUBO_PLANE.meet(FiniteLine(E, ZERO), FiniteLine(E, E)) == SlopePoint(E)


def test_meet_example_distinct_slopes():
    p = OKUBO_PLANE.meet(FiniteLine(E, ZERO), FiniteLine(ZERO, E))
    assert p == AffinePoint(E, E)


def test_meet_vertical_and_infinity_cases():
    assert OKUBO_PLANE.meet(VerticalLine(ZERO), VerticalLine(E)) == INFINITY_POINT
    assert OKUBO_PLANE.meet(FiniteLine(E, I1), LINE_AT_INFINITY) == SlopePoint(E)
    assert OKUBO_PLANE.meet(VerticalLine(I1), LINE_AT_INFINITY) == INFINITY_POINT


def test_meet_equal_lines_raises():
    with pytest.raises(EqualLines):
        OKUBO_PLANE.meet(FiniteLine(E, E), FiniteLine(E, E))
    with pytest.raises(EqualLines):
        OKUBO_PLANE.meet(LINE_AT_INFINITY, LINE_AT_INFINITY)


# -- incidence -------------------------------------------------------------------

def test_incidence_examples():
    assert OKUBO_PLANE.incident(AffinePoint(E, E), FiniteLine(E, ZERO))
    assert not OKUBO_PLANE.incident(AffinePoint(I1, I1), FiniteLine(E, ZERO))
    assert OKUBO_PLANE.incident(INFINITY_POINT, LINE_AT_INFINITY)
    assert OKUBO_PLANE.incident(SlopePoint(I1), LINE_AT_INFINITY)
    assert OKUBO_PLANE.incident(INFINITY_POINT, VerticalLine(I1))
    assert not OKUBO_PLANE.incident(SlopePoint(I1), VerticalLine(I1))


# -- affine and projective axioms ------------------------------------------------

@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_affine_axioms_random(kind):
    plane = PLANES[kind]
    for i in range(25):
        rng = trial_rng(20, i)
        p, r = random_affine_point(rng), random_affine_point(rng)
        if p != r:
            l = plane.join(p, r)
            assert plane.incident(p, l) and plane.incident(r, l)
        l1 = FiniteLine(random_vec(rng), random_vec(rng))
        l2 = FiniteLine(random_vec(rng), random_vec(rng))
        if l1.s != l2.s:
            x = plane.meet(l1, l2)
            assert plane.incident(x, l1) and plane.incident(x, l2)
        outside = random_affine_point(rng)
        if not plane.incident(outside, l1):
            par = plane.parallel_through(l1, outside)
            assert plane.incident(outside, par)
            assert isinstance(plane.meet(l1, par), SlopePoint)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_projective_joins_meets_total(kind):
    plane = PLANES[kind]
    for i in range(25):
        rng = trial_rng(21, i)
        p, r = random_point(rng), random_point(rng)
        if p != r:
            l = plane.join(p, r)
            assert plane.incident(p, l) and plane.incident(r, l)
        l1, l2 = random_line(rng), random_line(rng)
        if l1 != l2:
            x = plane.meet(l1, l2)
            assert plane.incident(x, l1) and plane.incident(x, l2)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_quadrangle_no_three_collinear(kind):
    plane = PLANES[kind]
    quad = [ORIGIN, AffinePoint(E, E), SlopePoint(ZERO), INFINITY_POINT]
    lines = [plane.join(quad[i], quad[j]) for i in range(4) for j in range(i + 1, 4)]
    expected = {
        FiniteLine(E, ZERO),
        FiniteLine(ZERO, ZERO),
        VerticalLine(ZERO),
        FiniteLine(ZERO, E),
        VerticalLine(E),
        LINE_AT_INFINITY,
    }
    assert set(lines) == expected
    for l in lines:
        assert sum(plane.incident(p, l) for p in quad) == 2


def test_okubo_diagonal_points_not_collinear():
    line = OKUBO_PLANE.join(ORIGIN, AffinePoint(E, E))
    assert not OKUBO_PLANE.incident(AffinePoint(I1, I1), line)


def test_octonion_diagonal_points_collinear():
    line = FiniteLine(E, ZERO)
    for i in range(10):
        rng = trial_rng(22, i)
        x = random_vec(rng)
        assert OCTONION_PLANE.incident(AffinePoint(x, x), line)


# -- veronese ---------------------------------------------------------------------

def test_correspondence_fixed_rows():
    v = OKUBO_PLANE.point_to_veronese(ORIGIN)
    assert v == VeroneseVec(ZERO, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ONE)
    v = OKUBO_PLANE.point_to_veronese(INFINITY_POINT)
    assert v == VeroneseVec(ZERO, ZERO, ZERO, QS_ONE, QS_ZERO, QS_ZERO)
    w = OKUBO_PLANE.line_to_veronese(LINE_AT_INFINITY)
    assert w == VeroneseVec(ZERO, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ONE)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_images_are_veronese(kind):
    plane = PLANES[kind]
    for i in range(30):
        rng = trial_rng(23, i)
        assert plane.is_veronese(plane.point_to_veronese(random_point(rng)))
        assert plane.is_veronese(plane.line_to_veronese(random_line(rng)))


def test_non_veronese_vector_detected():
    bad = VeroneseVec(E, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ONE)
    assert not OKUBO_PLANE.is_veronese(bad)  # n(x1) = 1 != l2*l3 = 0


def test_zero_vector_is_veronese():
    zero = VeroneseVec(ZERO, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ZERO)
    for plane in PLANES.values():
        assert plane.is_veronese(zero)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_beta_vanishes_exactly_on_incident_pairs(kind):
    plane = PLANES[kind]
    for i in range(40):
        rng = trial_rng(24, i)
        p, l = random_incident_pair(plane, rng)
        assert not beta(plane.point_to_veronese(p), plane.line_to_veronese(l))
        p2, l2 = random_non_incident_pair(plane, rng)
        assert beta(plane.point_to_veronese(p2), plane.line_to_veronese(l2))


def test_random_non_incident_pair_fails_loudly_when_every_pair_is_incident(monkeypatch):
    monkeypatch.setattr(Plane, "incident", lambda self, p, l: True)
    with pytest.raises(DegenerateAfterRetries):
        random_non_incident_pair(OKUBO_PLANE, trial_rng(0, 0))


def test_beta_examples():
    origin_img = OKUBO_PLANE.point_to_veronese(ORIGIN)
    inf_line_img = OKUBO_PLANE.line_to_veronese(LINE_AT_INFINITY)
    inf_point_img = OKUBO_PLANE.point_to_veronese(INFINITY_POINT)
    assert beta(origin_img, inf_line_img) == QS_ONE
    assert beta(inf_point_img, inf_line_img) == QS_ZERO


def test_beta_diagonal_is_twice_the_norms_plus_lambda_squares():
    for i in range(15):
        rng = trial_rng(25, i)
        v = OKUBO_PLANE.point_to_veronese(random_point(rng))
        norms = norm(v.x1) + norm(v.x2) + norm(v.x3)
        assert beta(v, v) == norms + norms + v.l1 * v.l1 + v.l2 * v.l2 + v.l3 * v.l3


def test_beta_diagonal_examples():
    zero = VeroneseVec(ZERO, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ZERO)
    assert beta(zero, zero) == QS_ZERO
    origin_img = OKUBO_PLANE.point_to_veronese(ORIGIN)
    assert beta(origin_img, origin_img) == QS_ONE
    for i in range(15):
        rng = trial_rng(26, i)
        v = OKUBO_PLANE.point_to_veronese(random_point(rng))
        assert beta(v, v).sign() > 0


# -- the quadratic adjoint ----------------------------------------------------------

_LAMBDA_ZERO = (QS_ZERO, QS_ZERO, QS_ZERO)
_R_I1_I1 = {  # R(i1, i1): i1.conj(i1) = n(i1) e, then i1*i1 in the two symmetric products
    AlgebraKind.OCTONION: E,
    AlgebraKind.PARA_OCTONION: -E,
    AlgebraKind.OKUBO: E.scale(q(2)) - Vec8.basis(4).scale(q(0, 1)),
}


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_sharp_examples(kind):
    plane = PLANES[kind]
    v = VeroneseVec(E, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ONE)
    assert plane.sharp(v) == VeroneseVec(ZERO, ZERO, ZERO, -QS_ONE, QS_ZERO, QS_ZERO)
    s = plane.sharp(VeroneseVec(I1, I1, ZERO, *_LAMBDA_ZERO))
    assert (s.l1, s.l2, s.l3) == (-QS_ONE, -QS_ONE, QS_ZERO)
    assert s.x3 == _R_I1_I1[kind]


def test_octonion_sharp_is_not_cyclic_at_the_witness():
    v = VeroneseVec(E, E, I1, *_LAMBDA_ZERO)
    assert OCTONION_PLANE.sharp(v.cyclic()) != OCTONION_PLANE.sharp(v).cyclic()
    for plane in (OKUBO_PLANE, PARA_PLANE):
        assert plane.sharp(v.cyclic()) == plane.sharp(v).cyclic()


@pytest.mark.parametrize("kind, failures", [(AlgebraKind.OCTONION, 288),
                                            (AlgebraKind.PARA_OCTONION, 0),
                                            (AlgebraKind.OKUBO, 0)])
def test_sharp_is_cyclic_on_basis_triples_exactly_for_symmetric_kinds(kind, failures):
    plane = PLANES[kind]
    basis = [Vec8.basis(i) for i in range(8)]
    count = 0
    for a in basis:
        for b in basis:
            for c in basis:
                v = VeroneseVec(a, b, c, *_LAMBDA_ZERO)
                count += plane.sharp(v.cyclic()) != plane.sharp(v).cyclic()
    assert count == failures


def test_normalize_examples():
    img = OKUBO_PLANE.point_to_veronese(ORIGIN)
    doubled = img.scale(q(2))
    assert OKUBO_PLANE.normalize_veronese(doubled) == img

    inf_img = OKUBO_PLANE.point_to_veronese(INFINITY_POINT)
    assert OKUBO_PLANE.normalize_veronese(inf_img) == inf_img

    v = VeroneseVec(ZERO, ZERO, E.scale(q(2)), q(4), QS_ONE, QS_ZERO)
    normalized = OKUBO_PLANE.normalize_veronese(v)
    assert normalized == VeroneseVec(
        ZERO, ZERO, E.scale(q(Fraction(2, 5))),
        q(Fraction(4, 5)), q(Fraction(1, 5)), QS_ZERO,
    )
    assert OKUBO_PLANE.is_veronese(v) and OKUBO_PLANE.is_veronese(normalized)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_every_scaled_image_normalizes_to_lambda_sum_one(kind):
    # the lambda-sum of a non-zero v with sharp(v) = 0 never vanishes, whatever its sign
    plane, signs = PLANES[kind], set()
    for i in range(40):
        rng = trial_rng(23, i)
        c = draw(rng, random_scalar, lambda s: not s)
        signs.add(c.sign())
        for v in (plane.point_to_veronese(random_point(rng)),
                  plane.line_to_veronese(random_line(rng))):
            w = plane.normalize_veronese(v.scale(c))
            assert w.l1 + w.l2 + w.l3 == QS_ONE
            assert plane.normalize_veronese(v) == w and plane.is_veronese(w)
    assert signs == {-1, 1}


def test_the_zero_vector_decodes_to_no_point_and_no_line():
    zero = VeroneseVec(ZERO, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ZERO)
    with pytest.raises(NotVeronese, match="a point"):
        OKUBO_PLANE.point_from_veronese(zero)
    with pytest.raises(NotVeronese, match="a line"):
        OKUBO_PLANE.line_from_veronese(zero)


def test_normalize_rejects_invalid():
    zero = VeroneseVec(ZERO, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ZERO)
    with pytest.raises(NotVeronese):
        OKUBO_PLANE.normalize_veronese(zero)
    bad = VeroneseVec(E, ZERO, ZERO, QS_ZERO, QS_ZERO, QS_ONE)
    with pytest.raises(NotVeronese):
        OKUBO_PLANE.normalize_veronese(bad)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_veronese_decode_round_trip(kind):
    plane = PLANES[kind]
    for i in range(20):
        rng = trial_rng(27, i)
        p = random_point(rng)
        assert plane.point_from_veronese(plane.point_to_veronese(p)) == p
        l = random_line(rng)
        assert plane.line_from_veronese(plane.line_to_veronese(l)) == l


# -- distance ----------------------------------------------------------------------

def test_distance_examples():
    assert OKUBO_PLANE.distance(ORIGIN, AffinePoint(E, ZERO)) == QS_ONE
    p = AffinePoint(I1, E)
    assert OKUBO_PLANE.distance(p, p) == QS_ZERO
    assert OKUBO_PLANE.distance(ORIGIN, AffinePoint(I1, I1)) == q(2)


def test_distance_rejects_infinite_elements():
    with pytest.raises(InfiniteElement):
        OKUBO_PLANE.distance(ORIGIN, INFINITY_POINT)
    with pytest.raises(InfiniteElement):
        OKUBO_PLANE.distance(SlopePoint(E), ORIGIN)


# -- serialization -------------------------------------------------------------------

def test_point_line_json_roundtrip():
    for i in range(15):
        rng = trial_rng(28, i)
        p = random_point(rng)
        assert point_from_json(p.to_json()) == p
        l = random_line(rng)
        assert line_from_json(l.to_json()) == l


# x = e + (-1/2 + 2 sqrt3) i3, written out in both forms
_X = E + Vec8.basis(3).scale(q(Fraction(-1, 2), 2))
_XS = "(1)*e + (-1/2 + 2*sqrt3)*i3"
_XJ = ["1", "0", "0", "-1/2 + 2*sqrt3", "0", "0", "0", "0"]
_I1J = ["0", "1"] + ["0"] * 6


@pytest.mark.parametrize(
    "element, text, data",
    [
        (AffinePoint(_X, I1), f"({_XS}, (1)*i1)", {"t": "affine", "x": _XJ, "y": _I1J}),
        (SlopePoint(_X), f"({_XS})", {"t": "slope", "s": _XJ}),
        (INFINITY_POINT, "(inf)", {"t": "infinity"}),
        (FiniteLine(I1, _X), f"[(1)*i1, {_XS}]", {"t": "line", "slope": _I1J, "offset": _XJ}),
        (VerticalLine(_X), f"[{_XS}]", {"t": "vertical", "c": _XJ}),
        (LINE_AT_INFINITY, "[inf]", {"t": "line-at-infinity"}),
    ],
    ids=["affine", "slope", "infinity", "line", "vertical", "line-at-infinity"],
)
def test_text_and_json_forms_are_pinned(element, text, data):
    assert str(element) == text
    assert list(element.to_json().items()) == list(data.items())  # key order included
    read = point_from_json if data["t"] in ("affine", "slope", "infinity") else line_from_json
    assert read(data) == element


@pytest.mark.parametrize(
    "call",
    [
        lambda: OKUBO_PLANE.join(FiniteLine(E, ZERO), VerticalLine(E)),
        lambda: OKUBO_PLANE.incident(LINE_AT_INFINITY, LINE_AT_INFINITY),
        lambda: OKUBO_PLANE.point_to_veronese(VerticalLine(E)),
        lambda: OKUBO_PLANE.meet(ORIGIN, AffinePoint(E, E)),
        lambda: OKUBO_PLANE.line_to_veronese(SlopePoint(E)),
        lambda: OKUBO_PLANE.incident(FiniteLine(E, ZERO), ORIGIN),
    ],
    ids=["join-lines", "incident-lines", "point-veronese-of-line", "meet-points",
         "line-veronese-of-point", "incident-swapped"],
)
def test_a_line_for_a_point_or_a_point_for_a_line_raises(call):
    with pytest.raises(WrongElement):
        call()


def test_parallel_through_is_the_join_with_the_point_at_infinity():
    p, s, t = AffinePoint(E, I1), E + I1, I1
    expected = FiniteLine(s, I1 - OKUBO_PLANE.mul(s, E))
    assert OKUBO_PLANE.parallel_through(FiniteLine(s, t), p) == expected
    assert OKUBO_PLANE.parallel_through(VerticalLine(t), p) == VerticalLine(E)
    # the postconditions of meet and join reject a point for l and a line for p
    with pytest.raises(WrongElement):
        OKUBO_PLANE.parallel_through(AffinePoint(E, E), AffinePoint(E, E))
    with pytest.raises(WrongElement):
        OKUBO_PLANE.parallel_through(FiniteLine(E, E), FiniteLine(E, E))
    with pytest.raises(InfiniteElement):
        OKUBO_PLANE.parallel_through(LINE_AT_INFINITY, p)


@pytest.mark.parametrize("l", [FiniteLine(E, I1), VerticalLine(E)], ids=["finite", "vertical"])
@pytest.mark.parametrize("p", [SlopePoint(Vec8.basis(2)), SlopePoint(E), INFINITY_POINT],
                         ids=["slope-i2", "slope-e", "infinity"])
def test_parallel_through_a_point_at_infinity_raises(l, p):
    # no affine line passes through a point at infinity
    with pytest.raises(InfiniteElement):
        OKUBO_PLANE.parallel_through(l, p)


_AFFINE = {"t": "affine", "x": ["0"] * 8, "y": ["1"] + ["0"] * 7}


@pytest.mark.parametrize(
    "data",
    [{}, [], "affine", None, {"t": ["affine"]}, {"t": "affine", "x": ["0"] * 8},
     {**_AFFINE, "junk": 0}, {"t": "slope", "x": ["0"] * 8}, {"t": "infinity", "s": None},
     {"t": "line-at-infinity"}],
    ids=["empty", "list", "string", "none", "list-tag", "missing-y", "extra-key", "wrong-key",
         "infinity-extra", "line-tag"],
)
def test_point_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        point_from_json(data)


@pytest.mark.parametrize(
    "data",
    [{}, [], {"t": "vertical"}, {"t": "vertical", "c": ["0"] * 8, "s": ["0"] * 8},
     {"t": "line", "slope": ["0"] * 8}, {"t": "line-at-infinity", "junk": 0}, _AFFINE],
    ids=["empty", "list", "missing-c", "extra-key", "missing-offset", "infinity-extra",
         "point-tag"],
)
def test_line_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        line_from_json(data)


def test_para_plane_uses_para_product():
    # (x, y) lies on [s, t] in the para plane iff y = conj(s).conj(x) + t
    rng = trial_rng(30, 0)
    s, x, t = random_vec(rng), random_vec(rng), random_vec(rng)
    y = PARA_PLANE.mul(s, x) + t
    assert PARA_PLANE.incident(AffinePoint(x, y), FiniteLine(s, t))
    assert y == mul(AlgebraKind.PARA_OCTONION, s, x) + t
