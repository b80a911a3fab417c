import copy
import hashlib
import json
import pickle
import sys
from collections import Counter
from fractions import Fraction

import pytest

from okuboplane.algebra import AlgebraKind, E, Vec8, mul, trial_rng, random_vec
from okuboplane.plane import (
    OCTONION_PLANE,
    OKUBO_PLANE,
    PLANES,
    AffinePoint,
    FiniteLine,
    Plane,
    random_affine_point_on,
)
from okuboplane.scalar import QSqrt3
from okuboplane.suites import (
    DIAGONAL_COLLINEAR,
    DIAGONAL_NOT_COLLINEAR,
    MOUFANG_FAILS,
    MOUFANG_HOLDS,
    PTR_ROWS,
    suite_desargues,
)
from okuboplane import theorems
from okuboplane.theorems import (
    DegenerateConfig,
    DesarguesConfig,
    config_incidences,
    desargues_falsify,
    desargues_l1,
    little_desargues_build,
    little_desargues_verify,
    ptr_nonlinearity_witness,
    ptr_product,
    ptr_theta,
)

OK = AlgebraKind.OKUBO
ZERO = Vec8.zero()
I1 = Vec8.basis(1)


def q(a, b=0):
    return QSqrt3(Fraction(a), Fraction(b))


# -- little Desargues ------------------------------------------------------------

@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_builder_postconditions(kind):
    plane = PLANES[kind]
    cfg = little_desargues_build(plane, seed=1)
    assert plane.incident(cfg.center, cfg.axis)
    assert plane.incident(cfg.a1, plane.join(cfg.a, cfg.center))
    assert plane.incident(cfg.l3, cfg.axis)
    assert not config_incidences(plane, cfg)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_little_desargues_holds(kind):
    plane = PLANES[kind]
    for seed in range(12):
        cfg = little_desargues_build(plane, seed)
        assert little_desargues_verify(plane, cfg)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_full_desargues_fails_with_witness(kind):
    plane = PLANES[kind]
    witness = desargues_falsify(plane, seed=0, max_trials=50)
    assert witness is not None
    assert not plane.incident(witness.center, witness.axis)
    # all construction incidences hold; only the conclusion breaks
    assert not config_incidences(plane, witness)
    assert witness.l1 is not None
    assert not plane.incident(witness.l1, witness.axis)


def _digest(configs):
    blob = json.dumps([c.to_json() for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# An expect-pass report carries no configuration, so these digests are the only
# record of what the little-desargues and desargues-falsify rows construct.
BUILDS = {
    AlgebraKind.OCTONION: "a10f6e4a04a26757e8a9697896a9eb6cc12d90c59845a9df656c94c53621cf00",
    AlgebraKind.PARA_OCTONION: "29b59881882aec157f26b5e6702ff5e5ae8c230e79a9e534edd48bbbd327246d",
    AlgebraKind.OKUBO: "16efb50c8acc0aa581935e03ae1b722c517a7a5085dcd2fe8c8e12e6e11f7e68",
}
WITNESSES = {
    AlgebraKind.OCTONION: "c6a341b8a731a2dc9705222bdc21c273f44efecfc646cdaccf9b14f8d7b8f7a1",
    AlgebraKind.PARA_OCTONION: "ef9efeabb77c9a82707cea355e3b8436f8fbc3c5df3e1fb67691157b50cf1526",
    AlgebraKind.OKUBO: "6602cadf61743aa579432165bd63f39c9c8bf7155f916546322ff79fb7d5e474",
}


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_builder_configurations_are_pinned(kind):
    plane = PLANES[kind]
    assert _digest(little_desargues_build(plane, s) for s in range(20)) == BUILDS[kind]
    assert _digest(desargues_falsify(plane, s, 10) for s in range(5)) == WITNESSES[kind]


@pytest.mark.parametrize("method, error", [
    ("join", theorems.EqualPoints("a join of equal points")),
    ("meet", theorems.EqualLines("a meet of equal lines")),
])
def test_a_coincidence_in_a_build_propagates_after_one_draw(monkeypatch, method, error):
    # the geometry rules out every coincidence, so a build never redraws past one
    calls = []

    def recording(*args):
        calls.append(args)
        return trial_rng(*args)

    def broken(self, *args):
        raise error

    monkeypatch.setattr(theorems, "trial_rng", recording)
    monkeypatch.setattr(Plane, method, broken)
    with pytest.raises(type(error), match=str(error)):
        little_desargues_build(OKUBO_PLANE, seed=4)
    assert calls == [(4, 0)]
    calls.clear()
    with pytest.raises(type(error), match=str(error)):
        desargues_falsify(OKUBO_PLANE, seed=4, max_trials=10)
    assert calls == [(theorems.config_seed(4, 0), 0)]


@pytest.mark.parametrize("max_trials", [0, -1])
def test_desargues_falsify_refuses_an_empty_budget(max_trials):
    # with no trial the search would return None, as if no witness existed
    with pytest.raises(ValueError, match="at least one trial"):
        desargues_falsify(OKUBO_PLANE, seed=0, max_trials=max_trials)


def test_witness_replays_from_serialized_form():
    plane = OKUBO_PLANE
    witness = desargues_falsify(plane, seed=3, max_trials=50)
    replayed = DesarguesConfig.from_json(witness.to_json())
    assert replayed == witness
    l1 = desargues_l1(plane, replayed)
    assert l1 == witness.l1
    assert not plane.incident(l1, replayed.axis)


@pytest.mark.parametrize("rename", [("l1", "L1"), ("axis", "Axis"), ("a", None)],
                         ids=["typo-l1", "typo-axis", "missing-a"])
def test_witness_replay_rejects_wrong_keys(rename):
    data = desargues_falsify(OKUBO_PLANE, seed=3, max_trials=50).to_json()
    old, new = rename
    value = data.pop(old)
    if new is not None:
        data[new] = value
    with pytest.raises(ValueError, match="expected the keys"):
        DesarguesConfig.from_json(data)


def test_degenerate_config_detected():
    # two triangles squashed onto one line: cb and c'b' coincide
    plane = OKUBO_PLANE
    line = FiniteLine(E, ZERO)
    pts = []
    for i in range(6):
        x = Vec8.basis(i + 1)
        pts.append(AffinePoint(x, plane.mul(line.s, x)))
    cfg = DesarguesConfig(
        center=pts[0], axis=line,
        a=pts[1], b=pts[2], c=pts[3],
        a1=pts[1], b1=pts[2], c1=pts[3],
        l2=pts[4], l3=pts[5],
    )
    with pytest.raises(DegenerateConfig):
        desargues_l1(plane, cfg)


def test_builds_are_seed_deterministic():
    a = little_desargues_build(OKUBO_PLANE, seed=5)
    b = little_desargues_build(OKUBO_PLANE, seed=5)
    assert a == b


# -- the sides a configuration carries ------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_no_side_is_joined_twice(monkeypatch, seed):
    joins, join = [], Plane.join

    def recording(self, p, q):
        joins.append((self.kind, p, q))
        return join(self, p, q)

    monkeypatch.setattr(Plane, "join", recording)
    suite_desargues("all", 1, seed)
    repeated = sum(n - 1 for n in Counter(joins).values())
    assert joins and not repeated, f"{repeated} of {len(joins)} joins repeat an earlier one"


@pytest.mark.parametrize("seed", range(3))
def test_no_incidence_is_tested_twice(monkeypatch, seed):
    calls, incident = [], Plane.incident

    def recording(self, p, l):
        calls.append((self.kind, p, l))
        return incident(self, p, l)

    monkeypatch.setattr(Plane, "incident", recording)
    suite_desargues("all", 1, seed)
    repeated = sum(n - 1 for n in Counter(calls).values())
    assert calls and not repeated, f"{repeated} of {len(calls)} incidence tests repeat an earlier one"


def _count_everywhere(monkeypatch, fn, counts, falsifying):
    """Rebinds ``fn`` under every name an okuboplane module gives it, as the
    benchmark's span tracer does, to a shim that counts its calls, and those
    made while ``desargues_falsify`` runs."""
    def shim(*args, **kwargs):
        counts[fn.__name__] += 1
        counts[fn.__name__, "falsify"] += bool(falsifying)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "okuboplane" or name.startswith("okuboplane."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, shim)


@pytest.mark.parametrize("seed", range(3))
def test_tracer_seams_see_one_call_per_configuration(monkeypatch, seed):
    counts, falsifying, trials = Counter(), [], 3
    for fn in (little_desargues_build, config_incidences, little_desargues_verify,
               desargues_l1):
        _count_everywhere(monkeypatch, fn, counts, falsifying)
    falsify, build = theorems.desargues_falsify, theorems._build_config

    def falsify_shim(*args):
        falsifying.append(True)
        try:
            return falsify(*args)
        finally:
            falsifying.pop()

    def build_shim(plane, seed, center_on_axis):
        counts["tested by falsify"] += not center_on_axis
        return build(plane, seed, center_on_axis)

    monkeypatch.setattr(theorems, "desargues_falsify", falsify_shim)
    monkeypatch.setattr(theorems, "_build_config", build_shim)
    suite_desargues("all", trials, seed)
    little = trials * len(AlgebraKind)
    assert counts["little_desargues_build"] == little
    assert counts["config_incidences"] == little
    assert counts["little_desargues_verify"] == little
    assert counts["tested by falsify"] >= len(AlgebraKind)
    assert counts["desargues_l1", "falsify"] == counts["tested by falsify"]
    # outside the search, l1 is met once per little configuration, by its verify
    assert counts["desargues_l1"] - counts["desargues_l1", "falsify"] == little


def _checked(plane, cfg):
    """What the checks say of ``cfg`` in ``plane``: its broken incidences, then
    l1 or the degeneracy that stops it."""
    try:
        l1 = desargues_l1(plane, cfg)
    except DegenerateConfig as exc:
        l1 = str(exc)
    return config_incidences(plane, cfg), l1


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_carried_lines_change_no_result_and_no_value(kind):
    plane = PLANES[kind]
    for seed in range(6):
        witness = desargues_falsify(plane, seed, 10)
        assert witness is not None
        for cfg in (little_desargues_build(plane, seed), witness):
            carried, lines = cfg._lines
            assert carried is kind and len(lines) == 7
            for (p, q), line in lines.items():
                assert line == plane.join(getattr(cfg, p), getattr(cfg, q))
            replayed = DesarguesConfig.from_json(cfg.to_json())
            assert replayed._lines is None
            assert replayed == cfg and hash(replayed) == hash(cfg)
            for copied in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
                assert copied == cfg and copied._lines is None
            assert not config_incidences(plane, cfg)
            assert cfg.l1 in (None, desargues_l1(plane, cfg))
            for other in PLANES.values():  # lines of another plane are never read
                assert _checked(other, cfg) == _checked(other, replayed)


def _nine(plane, cfg):
    """The (point, line) of each construction incidence, lines joined anew, in check order."""
    def j(p, q):
        return plane.join(getattr(cfg, p), getattr(cfg, q))

    return [(cfg.a1, j("a", "center")), (cfg.b1, j("b", "center")), (cfg.c1, j("c", "center")),
            (cfg.l3, cfg.axis), (cfg.l3, j("a", "b")), (cfg.l3, j("a1", "b1")),
            (cfg.l2, cfg.axis), (cfg.l2, j("a", "c")), (cfg.l2, j("a1", "c1"))]


def _tested(monkeypatch, plane, cfg):
    """What ``config_incidences`` says of ``cfg``, and which construction incidences it tested."""
    nine, calls, incident = _nine(plane, cfg), [], Plane.incident

    def recording(self, p, l):
        calls.append((p, l))
        return incident(self, p, l)

    with monkeypatch.context() as m:
        m.setattr(Plane, "incident", recording)
        broken = config_incidences(plane, cfg)
    return broken, [call for call in calls if call in nine]


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_only_a_replayed_configuration_is_tested_on_all_nine_incidences(monkeypatch, kind):
    plane = PLANES[kind]
    for seed in range(6):
        for cfg in (little_desargues_build(plane, seed), desargues_falsify(plane, seed, 10)):
            nine = _nine(plane, cfg)
            # built: only l3 on a' b' and l2 on a' c', which no build step settles
            assert _tested(monkeypatch, plane, cfg) == ([], [nine[5], nine[8]])
            replayed = DesarguesConfig.from_json(cfg.to_json())
            assert _tested(monkeypatch, plane, replayed) == ([], nine)


def test_a_replayed_configuration_names_the_incidence_it_breaks():
    plane = OKUBO_PLANE
    cfg = little_desargues_build(plane, 0)
    # b' moved along l3 a', so that a' b' stays l3 a' and only b' on b o breaks
    moved = random_affine_point_on(plane, plane.join(cfg.l3, cfg.a1), trial_rng(1, 0))
    replayed = DesarguesConfig.from_json({**cfg.to_json(), "b1": moved.to_json()})
    assert config_incidences(plane, replayed) == ["b1 on join(b, center)"]


def test_a_carried_configuration_names_the_incidence_it_breaks():
    plane = OKUBO_PLANE
    cfg = little_desargues_build(plane, 0)
    # l3 moved along the axis, off a b and a' b'
    moved = random_affine_point_on(plane, cfg.axis, trial_rng(1, 0))
    values = {**dict(zip(cfg._fields, cfg._values(cfg))), "l3": moved}
    carried = theorems._carrying(DesarguesConfig(**values), cfg._lines)
    assert config_incidences(plane, carried) == ["l3 on join(a1, b1)"]
    # the same points with no lines carried: a b is joined and tested as well
    assert config_incidences(plane, DesarguesConfig(**values)) == [
        "l3 on join(a, b)", "l3 on join(a1, b1)"]


# -- planar ternary ring -----------------------------------------------------------

def test_theta_examples():
    assert ptr_theta(E, E, ZERO) == E
    assert ptr_theta(E, I1, ZERO) == mul(OK, E, I1)
    rng = trial_rng(40, 0)
    x, t = random_vec(rng), random_vec(rng)
    assert ptr_theta(ZERO, x, t) == t


def test_theta_is_the_incidence_operation():
    rng = trial_rng(41, 0)
    s, x, t = random_vec(rng), random_vec(rng), random_vec(rng)
    y = ptr_theta(s, x, t)
    assert OKUBO_PLANE.incident(AffinePoint(x, y), FiniteLine(s, t))


def test_nonlinearity_witness():
    s, x, lhs, rhs = ptr_nonlinearity_witness()
    assert (s, x) == (E, I1)
    assert lhs == ptr_theta(s, x, ZERO)
    assert rhs == mul(AlgebraKind.OCTONION, s, x)
    assert lhs != rhs


def test_octonion_linearity_check_can_fail():
    row = next(r for r in PTR_ROWS if r.name == "ptr-octonion-plane-linear")
    assert row.report(AlgebraKind.OCTONION, OCTONION_PLANE, 10, 0).ok
    # the Okubo plane's ternary ring is s*x + t, not s.x + t
    report = row.report(OK, OKUBO_PLANE, 10, 0)
    assert report.failures
    assert {f["case"] for f in report.failures} == {"linear-form"}


def test_unit_slope_is_okubo_action_not_identity():
    assert ptr_product(E, I1) != I1
    assert ptr_product(E, I1) == mul(OK, E, I1)
    # in the octonionic plane the same slope acts as the identity
    assert mul(AlgebraKind.OCTONION, E, I1) == I1


# -- separation witnesses -------------------------------------------------------------

def test_collinearity_witness_okubo():
    report = DIAGONAL_NOT_COLLINEAR.report(OK, OKUBO_PLANE, 20, 0)
    assert report.ok and report.mode == "expect-witness"
    assert report.witnesses
    w = report.witnesses[0]
    x = Vec8.from_json(w["x"])
    y = Vec8.from_json(w["y"])
    assert (x, y) == (E, I1)  # first trial probes the canonical pair


def test_collinearity_witness_octonion():
    report = DIAGONAL_COLLINEAR.report(AlgebraKind.OCTONION, OCTONION_PLANE, 20, 0)
    assert report.ok and report.mode == "expect-pass"
    assert not report.failures


def test_collinearity_witness_para():
    kind = AlgebraKind.PARA_OCTONION
    report = DIAGONAL_NOT_COLLINEAR.report(kind, PLANES[kind], 20, 0)
    assert report.ok and report.witnesses


@pytest.mark.parametrize("kind", [OK, AlgebraKind.PARA_OCTONION])
def test_moufang_witnesses_found(kind):
    report = MOUFANG_FAILS.report(kind, kind, 20, 0)
    assert report.ok
    names = {w["identity"] for w in report.witnesses}
    assert names == {"Moufang1", "Moufang2", "Moufang3", "AlternativeLeft", "AlternativeRight"}
    # every witness re-verifies from its serialized form
    from okuboplane.algebra import check_identity

    for w in report.witnesses:
        x = Vec8.from_json(w["x"])
        y = Vec8.from_json(w["y"])
        z = Vec8.from_json(w["z"])
        assert not check_identity(kind, w["identity"], x, y, z)


def test_moufang_holds_for_octonions():
    report = MOUFANG_HOLDS.report(AlgebraKind.OCTONION, AlgebraKind.OCTONION, 30, 0)
    assert report.ok and report.mode == "expect-pass" and not report.failures
