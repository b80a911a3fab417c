import sys

import pytest

from okuboplane.algebra import (
    BASIS,
    CONJ,
    IDENTITY,
    TAU,
    TAU2,
    AlgebraKind,
    E,
    LinMap8,
    Vec8,
    conjugate_oct,
    mul,
    norm,
    random_vec,
    trial_rng,
    trivolution,
    trivolution_sq,
)
from okuboplane.collineation import (
    ChartMap,
    Collineation,
    Composite,
    KindMismatch,
    OctReflection,
    PHI,
    PHI_INV,
    PPHI,
    PPHI_INV,
    Shear,
    Translation,
    Triality,
    compose,
    g2_triple_check,
    transported_reflection,
    transported_reflection_closed_form,
)
from okuboplane.plane import (
    INFINITY_POINT,
    LINE_AT_INFINITY,
    OKUBO_PLANE,
    PLANES,
    AffinePoint,
    FiniteLine,
    InfiniteElement,
    SlopePoint,
    VerticalLine,
    WrongElement,
    random_affine_point,
    random_line,
    random_point,
)
from okuboplane.suites import is_isometry, preserves_incidence
OK = AlgebraKind.OKUBO
OC = AlgebraKind.OCTONION
PA = AlgebraKind.PARA_OCTONION
ZERO = Vec8.zero()
ORIGIN = AffinePoint(ZERO, ZERO)
I1 = Vec8.basis(1)


def _ab(seed=0):
    rng = trial_rng(seed, 777)
    return random_vec(rng), random_vec(rng)


# -- translations and shears ---------------------------------------------------

def test_translation_moves_origin():
    a, b = _ab()
    assert Translation(OK, a, b).apply_point(ORIGIN) == AffinePoint(a, b)


def test_translation_fixes_line_at_infinity_pointwise():
    a, b = _ab()
    tr = Translation(OK, a, b)
    for i in range(10):
        s = random_vec(trial_rng(1, i))
        assert tr.apply_point(SlopePoint(s)) == SlopePoint(s)
    assert tr.apply_point(INFINITY_POINT) == INFINITY_POINT
    assert tr.apply_line(LINE_AT_INFINITY) == LINE_AT_INFINITY


def test_translation_line_images():
    a, b = _ab()
    tr = Translation(OK, a, b)
    s, t, c = random_vec(trial_rng(2, 0)), random_vec(trial_rng(2, 1)), random_vec(trial_rng(2, 2))
    assert tr.apply_line(FiniteLine(s, t)) == FiniteLine(s, t - mul(OK, s, a) + b)
    assert tr.apply_line(VerticalLine(c)) == VerticalLine(c + a)


def test_shear_fixes_axis_and_verticals():
    a, _ = _ab()
    sh = Shear(OK, a)
    for i in range(10):
        t = random_vec(trial_rng(3, i))
        assert sh.apply_point(AffinePoint(ZERO, t)) == AffinePoint(ZERO, t)
        assert sh.apply_line(VerticalLine(t)) == VerticalLine(t)
    assert sh.apply_point(INFINITY_POINT) == INFINITY_POINT


def test_shear_point_and_line_images():
    a, _ = _ab()
    sh = Shear(OK, a)
    x, y, s = (random_vec(trial_rng(4, i)) for i in range(3))
    assert sh.apply_point(AffinePoint(x, y)) == AffinePoint(x, y + mul(OK, a, x))
    assert sh.apply_point(SlopePoint(s)) == SlopePoint(s + a)
    assert sh.apply_line(FiniteLine(s, y)) == FiniteLine(s + a, y)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_elations_preserve_incidence(kind):
    a, b = _ab()
    assert preserves_incidence(Translation(kind, a, b), 40, 5).ok
    assert preserves_incidence(Shear(kind, a), 40, 5).ok


# -- triality --------------------------------------------------------------------

def test_triality_displayed_rows():
    t = Triality(OK)
    assert t.apply_point(INFINITY_POINT) == ORIGIN
    assert t.apply_point(SlopePoint(ZERO)) == INFINITY_POINT
    x = random_vec(trial_rng(6, 0))
    assert t.apply_point(AffinePoint(x, ZERO)) == SlopePoint(x)
    y = random_vec(trial_rng(6, 1))
    if y:
        ny_inv = norm(y).inv()
        expected = AffinePoint(y.scale(ny_inv), mul(OK, x, y).scale(ny_inv))
        assert t.apply_point(AffinePoint(x, y)) == expected
    s = random_vec(trial_rng(6, 2))
    if s:
        assert t.apply_point(SlopePoint(s)) == AffinePoint(ZERO, s.scale(norm(s).inv()))


def test_triality_line_rows():
    t = Triality(OK)
    assert t.apply_line(LINE_AT_INFINITY) == VerticalLine(ZERO)
    assert t.apply_line(VerticalLine(ZERO)) == FiniteLine(ZERO, ZERO)
    assert t.apply_line(FiniteLine(ZERO, ZERO)) == LINE_AT_INFINITY


@pytest.mark.parametrize("kind", [OK, PA])
def test_triality_order_three_and_incidence(kind):
    t = Triality(kind)
    plane = PLANES[kind]
    cube = compose(t, t, t)
    for i in range(20):
        rng = trial_rng(7, i)
        p = random_point(rng)
        assert cube.apply_point(p) == p
        l = random_line(rng)
        assert cube.apply_line(l) == l
    assert preserves_incidence(t, 40, 7).ok
    inv = t.invert()
    p = random_point(trial_rng(7, 99))
    assert inv.apply_point(t.apply_point(p)) == p


def test_triality_rejects_octonion_plane():
    with pytest.raises(KindMismatch):
        Triality(OC)


# -- cross-plane isomorphisms ------------------------------------------------------

def test_phi_displayed_rows():
    phi = PHI
    x, y, s, t, c = (random_vec(trial_rng(8, i)) for i in range(5))
    assert phi.apply_point(AffinePoint(x, y)) == AffinePoint(trivolution_sq(conjugate_oct(x)), y)
    assert phi.apply_point(SlopePoint(s)) == SlopePoint(trivolution(conjugate_oct(s)))
    assert phi.apply_point(INFINITY_POINT) == INFINITY_POINT
    assert phi.apply_line(FiniteLine(s, t)) == FiniteLine(trivolution(conjugate_oct(s)), t)
    assert phi.apply_line(VerticalLine(c)) == VerticalLine(trivolution_sq(conjugate_oct(c)))
    assert phi.apply_line(LINE_AT_INFINITY) == LINE_AT_INFINITY


def test_pphi_displayed_rows():
    pphi = PPHI
    x, y, s, t, c = (random_vec(trial_rng(9, i)) for i in range(5))
    assert pphi.apply_point(AffinePoint(x, y)) == AffinePoint(trivolution_sq(x), y)
    assert pphi.apply_point(SlopePoint(s)) == SlopePoint(trivolution(s))
    assert pphi.apply_line(FiniteLine(s, t)) == FiniteLine(trivolution(s), t)
    assert pphi.apply_line(VerticalLine(c)) == VerticalLine(trivolution_sq(c))


@pytest.mark.parametrize("coll", [PHI, PPHI, PHI_INV, PPHI_INV])
def test_isomorphisms_preserve_incidence_both_ways(coll):
    assert preserves_incidence(coll, 60, 10).ok


@pytest.mark.parametrize("coll", [PHI, PPHI])
def test_isomorphisms_are_isometries(coll):
    assert is_isometry(coll, 40, 11).ok


def test_translation_is_isometry():
    a, b = _ab()
    assert is_isometry(Translation(OK, a, b), 30, 12).ok


def test_shear_is_generally_not_isometry():
    report = is_isometry(Shear(OK, E), 30, 13)
    assert not report.ok  # shears stretch second coordinates


@pytest.mark.parametrize("check", [preserves_incidence, is_isometry])
def test_a_report_needs_at_least_one_trial(check):
    # zero trials would give a passing report that checked nothing
    with pytest.raises(ValueError, match="0 trials"):
        check(PHI, 0, 0)
    assert check(PHI, 1, 0).trials == 1


def test_translation_with_a_string_kind_raises():
    a, b = _ab()
    s, t = (random_vec(trial_rng(4, i)) for i in range(2))
    with pytest.raises(TypeError, match="AlgebraKind"):
        Translation("okubo", a, b).apply_line(FiniteLine(s, t))


def test_incidence_preservation_fails_for_a_wrong_target_plane():
    bad = ChartMap("Bad", "BadInv", OK, OC, TAU2, TAU)  # PPHI's maps, octonionic target
    report = preserves_incidence(bad, 20, 0)
    assert (report.name, report.kind, report.trials) == ("incidence-preservation:Bad", "okubo", 20)
    # a trial records its first broken direction only
    assert not report.ok and len(report.failures) <= 20
    assert {f["direction"] for f in report.failures} == {"forward", "inverse"}


def test_phi_inverse_round_trips():
    round_trip = compose(PHI, PHI_INV)
    p_round = compose(PPHI, PPHI_INV)
    for i in range(25):
        rng = trial_rng(14, i)
        p = random_point(rng)
        assert round_trip.apply_point(p) == p
        assert p_round.apply_point(p) == p
        l = random_line(rng)
        assert round_trip.apply_line(l) == l
        assert p_round.apply_line(l) == l


def test_compose_order_and_inverse_contract():
    a, b = _ab()
    t = Translation(OK, a, b)
    s = Shear(OK, a)
    chained = compose(t, s)
    for i in range(15):
        rng = trial_rng(15, i)
        p = random_point(rng)
        assert chained.apply_point(p) == s.apply_point(t.apply_point(p))
        undo = compose(chained, chained.invert())
        assert undo.apply_point(p) == p


def test_composite_kind_validation():
    with pytest.raises(KindMismatch):
        compose(PHI, PPHI)  # octonion target cannot feed an okubo source
    with pytest.raises(ValueError):
        Composite(())
    chained = compose(PHI, OctReflection(), PHI_INV)
    assert chained.source is OK and chained.target is OK
    # the ends of a composite across planes: its first source and last target
    mixed = compose(Shear(OK, I1), PHI, OctReflection())
    assert (mixed.source, mixed.target) == (OK, OC)
    assert (mixed.invert().source, mixed.invert().target) == (OC, OK)


@pytest.mark.parametrize(
    "c, kind",
    [(Translation(PA, E, I1), PA), (Shear(OC, I1), OC), (Triality(PA), PA),
     (Triality(OK, True), OK), (OctReflection(), OC)],
    ids=["translation", "shear", "triality-para", "triality-okubo", "oct-reflection"],
)
def test_maps_of_one_plane_take_source_and_target_from_kind(c, kind):
    assert c.kind is c.source is c.target is kind
    assert c.source_plane is c.target_plane is PLANES[kind]
    assert c.invert().source is c.invert().target is kind


WRONG_FAMILY_MAPS = {
    "translation": Translation(OK, E, E),
    "shear": Shear(OK, E),
    "triality": Triality(OK),
    "phi": PHI,
    "oct-reflection": OctReflection(),
    "phi-then-inverse": compose(PHI, PHI_INV),
}
SWAPPED = [
    ("apply_point", FiniteLine(E, E)), ("apply_point", VerticalLine(E)),
    ("apply_point", LINE_AT_INFINITY), ("apply_line", AffinePoint(E, E)),
    ("apply_line", SlopePoint(E)), ("apply_line", INFINITY_POINT),
]


@pytest.mark.parametrize(
    "method, element", SWAPPED, ids=[f"{m}-{type(v).__name__}" for m, v in SWAPPED]
)
@pytest.mark.parametrize("name", WRONG_FAMILY_MAPS)
def test_apply_rejects_an_element_of_the_other_family(name, method, element):
    with pytest.raises(WrongElement):
        getattr(WRONG_FAMILY_MAPS[name], method)(element)


def test_only_the_base_applies_a_map():
    # each map states one image ladder; the base checks the family around it
    for cls in (Translation, Shear, Triality, ChartMap, OctReflection, Composite):
        assert "_image" in vars(cls)
        assert "apply_point" not in vars(cls) and "apply_line" not in vars(cls)
    assert "apply_point" in vars(Collineation) and "apply_line" in vars(Collineation)


# -- octonion reflection -------------------------------------------------------------

def test_reflection_rows():
    rho = OctReflection()
    x, y = (random_vec(trial_rng(16, i)) for i in range(2))
    assert rho.apply_point(AffinePoint(x, y)) == AffinePoint(y, x)
    assert rho.apply_point(SlopePoint(ZERO)) == INFINITY_POINT
    assert rho.apply_point(INFINITY_POINT) == SlopePoint(ZERO)
    s = E + I1
    s_inv = conjugate_oct(s).scale(norm(s).inv())
    assert rho.apply_point(SlopePoint(s)) == SlopePoint(s_inv)
    t = random_vec(trial_rng(16, 2))
    assert rho.apply_line(FiniteLine(ZERO, t)) == VerticalLine(t)
    assert rho.apply_line(VerticalLine(t)) == FiniteLine(ZERO, t)
    assert rho.apply_line(FiniteLine(s, t)) == FiniteLine(s_inv, -mul(OC, s_inv, t))
    assert rho.apply_line(LINE_AT_INFINITY) == LINE_AT_INFINITY


def test_reflection_is_involution_and_collineation():
    rho = OctReflection()
    twice = compose(rho, rho)
    for i in range(20):
        rng = trial_rng(17, i)
        p = random_point(rng)
        assert twice.apply_point(p) == p
    assert preserves_incidence(rho, 50, 17).ok


def test_swap_is_not_an_okubo_collineation():
    line = OKUBO_PLANE.join(ORIGIN, AffinePoint(E, E))
    third = AffinePoint(I1, mul(OK, E, I1))
    assert OKUBO_PLANE.incident(third, line)
    swapped = [AffinePoint(p.y, p.x) for p in (ORIGIN, AffinePoint(E, E), third)]
    image_line = OKUBO_PLANE.join(swapped[0], swapped[1])
    assert not OKUBO_PLANE.incident(swapped[2], image_line)


# -- transported reflection -----------------------------------------------------------

def test_transported_reflection_fixes_diagonal_unit():
    assert transported_reflection(AffinePoint(E, E)) == AffinePoint(E, E)


def test_transported_reflection_closed_form_agrees_with_composite():
    composite = compose(PHI, OctReflection(), PHI_INV)
    for i in range(25):
        rng = trial_rng(18, i)
        p = random_affine_point(rng)
        image = transported_reflection(p)
        assert image == composite.apply_point(p)
        assert image == AffinePoint(
            trivolution(conjugate_oct(p.y)), trivolution_sq(conjugate_oct(p.x))
        )
        assert transported_reflection(image) == p


def test_transported_reflection_postcondition_raises(monkeypatch):
    import okuboplane.collineation as collineation

    monkeypatch.setattr(collineation, "transported_reflection_closed_form", lambda p: p)
    with pytest.raises(collineation.PostconditionViolation):
        transported_reflection(AffinePoint(E, I1))
    # the collineations suite reports the mismatch as a failure
    from okuboplane.suites import TRANSPORTED_REFLECTION

    report = TRANSPORTED_REFLECTION.report(OK, OK, 3, 0)
    assert [f["error"] for f in report.failures] == ["PostconditionViolation"]
    assert report.failures[0]["detail"].startswith("closed form and composite disagree")


def test_transported_reflection_closed_form_rejects_infinite():
    with pytest.raises(InfiniteElement):
        transported_reflection_closed_form(INFINITY_POINT)
    # the composite path still covers infinite elements
    assert transported_reflection(INFINITY_POINT) == SlopePoint(ZERO)


# -- linear maps and the related-triple condition ---------------------------------------

def test_linmap_identity_and_tau():
    v = random_vec(trial_rng(19, 0))
    assert IDENTITY.apply(v) == v
    assert TAU.apply(v) == trivolution(v)
    assert LinMap8(tuple(Vec8.basis(k) for k in range(8))) == IDENTITY


def test_g2_triple_examples():
    assert g2_triple_check(IDENTITY, IDENTITY, IDENTITY)
    assert g2_triple_check(TAU, TAU, TAU)
    assert not g2_triple_check(TAU, IDENTITY, IDENTITY)


def test_g2_triple_requires_fixing_e():
    # a map sending e elsewhere fails immediately
    shifted = LinMap8(tuple(Vec8.basis((k + 1) % 8) for k in range(8)))
    assert not g2_triple_check(shifted, IDENTITY, IDENTITY)
    # (-id, id, -id) satisfies B(s*x) = C(s)*A(x) on every pair but moves e
    minus = LinMap8(tuple(-v for v in BASIS))
    assert not _failing_basis_pairs(minus, IDENTITY, minus)
    assert not g2_triple_check(minus, IDENTITY, minus)


def _failing_basis_pairs(a, b, c):
    """The basis pairs (i, j) with B(s*x) != C(s)*A(x) at s = basis_i, x =
    basis_j, from products formed here rather than read from the table."""
    return [(i, j) for i, s in enumerate(BASIS) for j, x in enumerate(BASIS)
            if b.apply(mul(OK, s, x)) != mul(OK, c.apply(s), a.apply(x))]


@pytest.mark.parametrize(("maps", "failing"), [
    ((TAU2,) * 3, 0), ((CONJ,) * 3, 46), ((TAU, TAU2, TAU), 32), ((TAU, IDENTITY, IDENTITY), 32),
], ids=["tau2", "conj", "tau-tau2-tau", "tau-id-id"])
def test_g2_triple_check_decides_on_the_basis(maps, failing):
    # every map here fixes e, so the verdict is the basis pairs' alone
    assert all(m.apply(E) == E for m in maps)
    assert len(_failing_basis_pairs(*maps)) == failing
    assert g2_triple_check(*maps) is (failing == 0)


def test_g2_triple_check_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("g2_triple_check drew a random value")

    # rebound under every name an okuboplane module gives them
    for fn in (trial_rng, random_vec):
        for name, module in list(sys.modules.items()):
            if name == "okuboplane" or name.startswith("okuboplane."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, refuse)
    assert g2_triple_check(TAU, TAU, TAU)
    assert not g2_triple_check(CONJ, CONJ, CONJ)


@pytest.mark.parametrize("chart", [PHI, PPHI], ids=["phi", "pphi"])
def test_chart_maps_invert_exactly(chart):
    inverse = chart.invert()
    assert inverse.f @ chart.f == IDENTITY and chart.f @ inverse.f == IDENTITY
    assert inverse.g @ chart.g == IDENTITY and chart.g @ inverse.g == IDENTITY


@pytest.mark.parametrize(
    "chart, inverse, names, kinds",
    [(PHI, PHI_INV, ("Phi", "PhiInv"), (OK, OC)),
     (PPHI, PPHI_INV, ("PPhi", "PPhiInv"), (OK, PA))],
    ids=["phi", "pphi"],
)
def test_chart_map_inverse_is_its_named_partner(chart, inverse, names, kinds):
    assert chart.invert() == inverse and inverse.invert() == chart
    assert (chart.invert().name, inverse.invert().name) == names[::-1]
    # a chart map's kinds are its own fields, not a shared ``kind``
    assert (chart.source, chart.target) == kinds and not hasattr(chart, "kind")
    assert (chart.source_plane, chart.target_plane) == (PLANES[kinds[0]], PLANES[kinds[1]])
    assert (inverse.source, inverse.target) == (chart.target, chart.source)
