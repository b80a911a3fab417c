"""Named verification suites, one list of reports per CLI command.

A suite is a table of the rows of :mod:`.report`.  A ``Check`` row samples
``check(arg, rng)`` on the derived rng of each trial, where ``arg`` is the
kind or its plane; a ``Scan`` row's generator yields its outcomes itself; a
``Build`` row makes its report whole.  Reports come kinds-outer, rows inner,
one for each row that lists the kind.

Expected-fail statements (Moufang laws in the symmetric algebras, the full
Desargues theorem, PTR linearity, the coordinate swap) succeed by *finding*
an exact witness; a missing witness within budget is a suite failure, so the
exit-status contract stays monotone.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable

from . import theorems
from .algebra import (
    BASIS,
    IDENTITY,
    TAU,
    AlgebraKind,
    E,
    Vec8,
    check_identity,
    conjugate_oct,
    gram,
    identity_holds,
    memo_mul,
    mul,
    norm,
    okubo_basis_products,
    product_conversion_crosscheck,
    random_nonzero_vec,
    random_vec,
    solve_left,
    solve_right,
    structure_table,
    trial_rng,
    trivolution,
    trivolution_basis_images,
    trivolution_sq,
    trivolution_table_report,
)
from .collineation import (
    PHI,
    PHI_INV,
    PPHI,
    PPHI_INV,
    Collineation,
    OctReflection,
    Shear,
    Translation,
    Triality,
    compose,
    g2_triple_check,
    transported_reflection,
)
from .plane import (
    AffinePoint,
    FiniteLine,
    INFINITY_POINT,
    PLANES,
    SlopePoint,
    VerticalLine,
    beta,
    random_affine_point,
    random_affine_point_on,
    random_incident_pair,
    random_line,
    random_non_incident_pair,
    random_point,
)
from .report import Build, Check, Scan, TheoremReport
from .scalar import QS_ONE

OK, PA, OC = AlgebraKind.OKUBO, AlgebraKind.PARA_OCTONION, AlgebraKind.OCTONION
ALL = (OK, PA, OC)
SYMMETRIC = (OK, PA)


def resolve_kinds(kind: str) -> list[AlgebraKind]:
    if kind == "all":
        return list(ALL)
    return [AlgebraKind(kind)]


def _upto(cap: int) -> Callable[[int], int]:
    return lambda trials: min(trials, cap)


def _suite(rows, arg=lambda kind: kind, kinds=resolve_kinds):
    """A suite command over ``rows``: kinds outer, rows inner, one report per
    row that lists the kind."""

    def run(kind: str, trials: int, seed: int) -> list[TheoremReport]:
        return [
            row.report(k, arg(k), trials, seed)
            for k in kinds(kind) for row in rows if k in row.kinds
        ]

    return run


# -- identities (arg: the kind) -----------------------------------------------

def _law(name: str, arity: int = 2):
    """Check of the named identity at random x, y (and z; else z = y)."""

    def check(kind, rng):
        xs = [random_vec(rng) for _ in range(arity)]
        x, y, z = xs if arity == 3 else (*xs, xs[1])
        if not check_identity(kind, name, x, y, z):
            return dict(zip("xyz", (v.to_json() for v in xs)))
        return None

    return check


def _symmetric_composition_fails(kind, n, seed):
    for x, y in product(BASIS, repeat=2):
        if not check_identity(kind, "SymmetricComposition", x, y, y):
            yield {"x": x.to_json(), "y": y.to_json()}


MOUFANG_LAWS = ("Moufang1", "Moufang2", "Moufang3", "AlternativeLeft", "AlternativeRight")


def _broken_law(name, x, y, z):
    return {"identity": name, "x": x.to_json(), "y": y.to_json(), "z": z.to_json()}


def _moufang_holds(kind, rng):
    """The five laws at one random triple, through one memo (21 products)."""
    x, y, z = random_vec(rng), random_vec(rng), random_vec(rng)
    m = memo_mul(kind)
    name = next((n for n in MOUFANG_LAWS if not identity_holds(m, n, x, y, z)), None)
    return None if name is None else _broken_law(name, x, y, z)


def _moufang_fails(kind, trials, seed):
    """A basis witness for each law: the one report with several witnesses.
    The five scans share one memo."""
    m = memo_mul(kind)
    found = {
        name: next((t for t in product(BASIS, repeat=3)
                    if not identity_holds(m, name, *t)), None)
        for name in MOUFANG_LAWS
    }
    return TheoremReport(
        name="moufang-identities-fail", kind=kind.value, seed=seed, trials=trials,
        mode="expect-witness",
        failures=[{"reason": f"no witness found: {n}"} for n, t in found.items() if t is None],
        witnesses=[_broken_law(n, *t) for n, t in found.items() if t is not None],
    )


MOUFANG_HOLDS = Check("moufang-identities-hold", (OC,), _moufang_holds)
MOUFANG_FAILS = Build(SYMMETRIC, _moufang_fails)


def _division(kind, rng):
    a = random_nonzero_vec(rng)
    b = random_vec(rng)
    if mul(kind, a, solve_left(kind, a, b)) != b:
        return {"side": "left", "a": a.to_json(), "b": b.to_json()}
    if mul(kind, solve_right(kind, a, b), a) != b:
        return {"side": "right", "a": a.to_json(), "b": b.to_json()}
    return None


def _positive_norm(kind, rng):
    x = random_nonzero_vec(rng)
    if norm(x).sign() <= 0:
        return {"x": x.to_json()}
    return None


def _octonion_unit(kind, rng):
    v = random_vec(rng)
    if mul(kind, E, v) != v or mul(kind, v, E) != v:
        return {"v": v.to_json(), "law": "unit"}
    if mul(kind, v, conjugate_oct(v)) != E.scale(norm(v)):
        return {"v": v.to_json(), "law": "x.conj(x) = n(x) e"}
    return None


def _para_unit_conjugates(kind, rng):
    v = random_vec(rng)
    cv = conjugate_oct(v)
    if mul(kind, E, v) != cv or mul(kind, v, E) != cv:
        return {"v": v.to_json()}
    return None


def _idempotent_actions(kind, rng):
    v = random_vec(rng)
    # no unit: e is only idempotent; left/right e-actions invert each other
    if mul(kind, E, E) != E:
        return {"law": "e*e = e"}
    if mul(kind, mul(kind, E, v), E) != v:
        return {"v": v.to_json(), "law": "(e*v)*e = v"}
    return None


def _structure_oracle(kind, n, seed):
    """Each basis product read through the integer columns that ``mul`` reads,
    against the matrix model's products."""
    grid, rows = okubo_basis_products(), structure_table(kind).rows
    for i, j in product(range(8), repeat=2):
        if rows[i].apply(BASIS[j]) != grid[i][j]:
            yield {"i": i, "j": j}


def _gram_minors(kind, n, seed):
    for index, minor in enumerate(gram().leading_minors()):
        if minor.sign() <= 0:
            yield {"minor": index + 1, "value": str(minor)}


def _product_conversions(kind, rng):
    x, y = random_vec(rng), random_vec(rng)
    if not product_conversion_crosscheck(x, y):
        return {"x": x.to_json(), "y": y.to_json()}
    return None


def _trivolution_order(kind, n, seed):
    for k, v in enumerate(BASIS):
        if trivolution(trivolution(trivolution(v))) != v:
            yield {"basis": k}
        if trivolution_sq(v) != trivolution(trivolution(v)):
            yield {"basis": k, "law": "tau2 = tau o tau"}


def _trivolution_automorphism(kind, rng):
    x, y = random_vec(rng), random_vec(rng)
    tx, ty = trivolution(x), trivolution(y)
    if trivolution(mul(kind, x, y)) != mul(kind, tx, ty):
        return {"product": "okubo", "x": x.to_json(), "y": y.to_json()}
    if trivolution(mul(OC, x, y)) != mul(OC, tx, ty):
        return {"product": "octonion", "x": x.to_json(), "y": y.to_json()}
    return None


def _trivolution_table(kind, trials, seed):
    # documents the discrepancy with the conventional table: it cannot fail
    return TheoremReport(
        name="trivolution-convention-table-comparison", kind=kind.value, seed=seed,
        trials=8, mode="expect-pass", witnesses=[trivolution_table_report()],
    )


IDENTITY_ROWS = (
    Check("norm-composition", ALL, _law("Composition")),
    Check("symmetric-composition", SYMMETRIC, _law("SymmetricComposition")),
    Scan("symmetric-composition-fails", (OC,), _symmetric_composition_fails,
         missing="octonion counterexample to (x.y).x = n(x) y"),
    Check("flexibility", ALL, _law("Flexible")),
    MOUFANG_HOLDS,
    MOUFANG_FAILS,
    Check("division-solutions", ALL, _division),
    Check("norm-positive-definite", ALL, _positive_norm),
    Check("norm-associativity", SYMMETRIC, _law("NormAssociative", 3)),
    Check("unit-and-conjugation", (OC,), _octonion_unit),
    Check("para-unit-conjugates", (PA,), _para_unit_conjugates),
    Check("idempotent-actions", (OK,), _idempotent_actions),
    Scan("structure-table-vs-matrix-oracle", (OK,), _structure_oracle, lambda _: 64),
    Scan("gram-positive-definite-minors", (OK,), _gram_minors, lambda _: 8),
    Check("product-conversion-identities", (OK,), _product_conversions),
    Scan("trivolution-order-three", (OK,), _trivolution_order, lambda _: 8),
    Check("trivolution-automorphism", (OK,), _trivolution_automorphism),
    Build((OK,), _trivolution_table),
)
suite_identities = _suite(IDENTITY_ROWS)


# -- plane axioms (arg: the plane) ----------------------------------------------

def _affine_axioms(plane, rng):
    # join and meet verify their own incidences
    p, q = random_affine_point(rng), random_affine_point(rng)
    if p != q:
        plane.join(p, q)
    l1 = FiniteLine(random_vec(rng), random_vec(rng))
    l2 = FiniteLine(random_vec(rng), random_vec(rng))
    if l1.s != l2.s:
        plane.meet(l1, l2)
    m = FiniteLine(random_vec(rng), random_vec(rng))
    p = random_affine_point(rng)
    if not plane.incident(p, m):
        par = plane.parallel_through(m, p)
        if not plane.incident(p, par):
            return {"case": "parallel-through", "p": p.to_json()}
        if not isinstance(plane.meet(m, par), SlopePoint):
            return {"case": "parallel-disjoint", "p": p.to_json()}
        sample = AffinePoint(random_vec(rng), Vec8.zero())
        on_m = AffinePoint(sample.x, plane.mul(m.s, sample.x) + m.t)
        if plane.incident(on_m, par):
            return {"case": "parallel-shares-point", "x": sample.x.to_json()}
    return None


def _projective_totality(plane, rng):
    p, q = random_point(rng), random_point(rng)
    if p != q:
        plane.join(p, q)
    l1, l2 = random_line(rng), random_line(rng)
    if l1 != l2:
        plane.meet(l1, l2)
    return None


ORIGIN = AffinePoint(Vec8.zero(), Vec8.zero())


def _quadrangle(plane, n, seed):
    quad = (ORIGIN, AffinePoint(E, E), SlopePoint(Vec8.zero()), INFINITY_POINT)
    lines = [plane.join(p, q) for p, q in combinations(quad, 2)]
    for l in lines:
        members = [p for p in quad if plane.incident(p, l)]
        if len(members) > 2:
            yield {"line": l.to_json(), "on_line": len(members)}


def _diagonal_collinear(plane, rng):
    """Octonions: (x, x) lies on [e, 0], the line through (0, 0) and (e, e)."""
    x = random_vec(rng)
    if not plane.incident(AffinePoint(x, x), FiniteLine(E, Vec8.zero())):
        return {"x": x.to_json()}
    return None


def _diagonal_not_collinear(plane, n, seed):
    """Symmetric products: (y, y) off the line through (0, 0) and (x, x); the
    first trial probes (x, y) = (e, i1)."""
    for i in range(n):
        rng = trial_rng(seed, i)
        x = random_vec(rng) if i else E
        y = random_vec(rng) if i else Vec8.basis(1)
        px, py = AffinePoint(x, x), AffinePoint(y, y)
        if px == ORIGIN or py == ORIGIN or px == py:
            continue
        line = plane.join(ORIGIN, px)
        if not plane.incident(py, line):
            yield {"x": x.to_json(), "y": y.to_json(), "line": line.to_json()}


DIAGONAL_COLLINEAR = Check(
    "diagonal-points-collinear", (OC,), _diagonal_collinear, lambda trials: max(trials, 10)
)
DIAGONAL_NOT_COLLINEAR = Scan(
    "diagonal-points-not-collinear", SYMMETRIC, _diagonal_not_collinear,
    lambda trials: max(trials, 10), "no non-collinear diagonal triple found",
)

PLANE_AXIOM_ROWS = (
    Check("affine-axioms", ALL, _affine_axioms),
    Check("projective-join-meet-total", ALL, _projective_totality),
    Scan("quadrangle-no-three-collinear", ALL, _quadrangle, lambda _: 6),
    DIAGONAL_COLLINEAR,
    DIAGONAL_NOT_COLLINEAR,
)
suite_plane_axioms = _suite(PLANE_AXIOM_ROWS, PLANES.__getitem__)


# -- veronese (arg: the plane) ----------------------------------------------------

def _veronese_images(plane, rng):
    p = random_point(rng)
    if not plane.is_veronese(plane.point_to_veronese(p)):
        return {"point": p.to_json()}
    l = random_line(rng)
    if not plane.is_veronese(plane.line_to_veronese(l)):
        return {"line": l.to_json()}
    return None


def _beta_incidence(plane, rng):
    p, l = random_incident_pair(plane, rng)
    if beta(plane.point_to_veronese(p), plane.line_to_veronese(l)):
        return {"case": "incident-nonzero", "point": p.to_json(), "line": l.to_json()}
    q, m = random_non_incident_pair(plane, rng)
    if not beta(plane.point_to_veronese(q), plane.line_to_veronese(m)):
        return {"case": "non-incident-zero", "point": q.to_json(), "line": m.to_json()}
    return None


def _normalization(plane, rng):
    p = random_point(rng)
    w = plane.normalize_veronese(plane.point_to_veronese(p))
    if w.l1 + w.l2 + w.l3 != QS_ONE:
        return {"case": "sum-not-one", "point": p.to_json()}
    if not plane.is_veronese(w):
        return {"case": "left-veronese-set", "point": p.to_json()}
    return None


VERONESE_ROWS = (
    Check("veronese-images-satisfy-conditions", ALL, _veronese_images),
    Check("beta-detects-incidence", ALL, _beta_incidence),
    Check("veronese-normalization", ALL, _normalization),
)
suite_veronese = _suite(VERONESE_ROWS, PLANES.__getitem__)


# -- collineations (arg: the kind) --------------------------------------------------

def _keeps_incidence(maps: tuple[Collineation, Collineation], rng) -> dict | None:
    """An incident pair whose images are not incident: forward, then inverse."""
    for direction, c in zip(("forward", "inverse"), maps):
        p, l = random_incident_pair(c.source_plane, rng)
        if not c.target_plane.incident(c.apply_point(p), c.apply_line(l)):
            return {"direction": direction, "point": p.to_json(), "line": l.to_json()}
    return None


def preserves_incidence(c: Collineation, trials: int, seed: int) -> TheoremReport:
    """Random incident pairs stay incident under the map and under its inverse."""
    row = Check(f"incidence-preservation:{c.name}", (c.source,), _keeps_incidence)
    return row.report(c.source, (c, c.invert()), trials, seed)


def _incidence(kinds, make) -> Build:
    """Row: ``make(kind)`` preserves incidence both ways."""
    return Build(kinds, lambda kind, trials, seed: preserves_incidence(make(kind), trials, seed))


def _fixes(make):
    """Check that ``make(kind)`` fixes a random point and a random line."""

    def check(kind, rng):
        coll = make(kind)
        p = random_point(rng)
        if coll.apply_point(p) != p:
            return {"point": p.to_json()}
        l = random_line(rng)
        if coll.apply_line(l) != l:
            return {"line": l.to_json()}
        return None

    return check


def _fixed_elements(kind, rng):
    a, b = random_vec(rng), random_vec(rng)
    tr = Translation(kind, a, b)
    s = SlopePoint(random_vec(rng))
    if tr.apply_point(s) != s or tr.apply_point(INFINITY_POINT) != INFINITY_POINT:
        return {"case": "translation-axis", "a": a.to_json(), "b": b.to_json()}
    sh = Shear(kind, a)
    axis_point = AffinePoint(Vec8.zero(), random_vec(rng))
    if sh.apply_point(axis_point) != axis_point:
        return {"case": "shear-axis", "a": a.to_json()}
    vertical = VerticalLine(random_vec(rng))
    if sh.apply_line(vertical) != vertical:
        return {"case": "shear-vertical-invariant", "a": a.to_json()}
    return None


def _swap_breaks_collinearity(kind, rng):
    plane = PLANES[kind]
    l = FiniteLine(random_nonzero_vec(rng), random_vec(rng))
    pts = [random_affine_point_on(plane, l, rng) for _ in range(3)]
    swapped = [AffinePoint(p.y, p.x) for p in pts]
    if len({p.x for p in pts}) < 3 or len(set(swapped)) < 3:
        return None
    if plane.incident(swapped[2], plane.join(swapped[0], swapped[1])):
        return None
    return {
        "line": l.to_json(),
        "points": [p.to_json() for p in pts],
        "swapped": [p.to_json() for p in swapped],
    }


SWAP_WITNESS = Check(
    "coordinate-swap-not-collineation", (OK,), _swap_breaks_collinearity,
    lambda trials: max(trials, 10), "collinear triple with non-collinear swapped images",
)


def _transported_reflection(kind, rng):
    p = random_affine_point(rng)
    # each call checks the closed form against Phi^-1 o swap o Phi
    if transported_reflection(transported_reflection(p)) != p:
        return {"point": p.to_json(), "case": "not-involution"}
    return None


TRANSPORTED_REFLECTION = Check("transported-reflection-closed-form", (OK,), _transported_reflection)


def _translation(seed: int) -> tuple[Vec8, Vec8]:
    """The suites' translation (a, b), from stream -1, which no trial reaches."""
    rng = trial_rng(seed, -1)
    return random_vec(rng), random_vec(rng)


def suite_collineations(kind: str, trials: int, seed: int) -> list[TheoremReport]:
    a, b = _translation(seed)
    rows = (
        _incidence(ALL, lambda k: Translation(k, a, b)),
        _incidence(ALL, lambda k: Shear(k, a)),
        Check("elation-fixed-elements", ALL, _fixed_elements),
        Check("translation-inverse-composes-to-identity", ALL,
              _fixes(lambda k: compose(Translation(k, a, b), Translation(k, -a, -b))), _upto(100)),
        _incidence(SYMMETRIC, Triality),
        Check("triality-cubed-is-identity", SYMMETRIC,
              _fixes(lambda k: compose(Triality(k), Triality(k), Triality(k))), _upto(100)),
        _incidence((OK,), lambda k: PHI),
        _incidence((OK,), lambda k: PPHI),
        Check("phi-then-inverse-is-identity", (OK,),
              _fixes(lambda k: compose(PHI, PHI_INV)), _upto(500)),
        Check("pphi-then-inverse-is-identity", (OK,),
              _fixes(lambda k: compose(PPHI, PPHI_INV)), _upto(500)),
        SWAP_WITNESS,
        TRANSPORTED_REFLECTION,
        _incidence((OC,), lambda k: OctReflection()),
        Check("octonion-reflection-involution", (OC,),
              _fixes(lambda k: compose(OctReflection(), OctReflection())), _upto(100)),
    )
    return _suite(rows)(kind, trials, seed)


def _keeps_distance(c: Collineation, rng) -> dict | None:
    """An affine pair whose n(dx)^2 + n(dy)^2 changes under the map."""
    p, q = random_affine_point(rng), random_affine_point(rng)
    pi, qi = c.apply_point(p), c.apply_point(q)
    if not (isinstance(pi, AffinePoint) and isinstance(qi, AffinePoint)):
        return {"point": p.to_json(), "reason": "image not affine"}
    if c.target_plane.distance(pi, qi) != c.source_plane.distance(p, q):
        return {"p": p.to_json(), "q": q.to_json()}
    return None


def is_isometry(c: Collineation, trials: int, seed: int) -> TheoremReport:
    """Exact equality of ``Plane.distance`` (affine chart, not elliptic) on random affine pairs."""
    row = Check(f"isometry:{c.name}", (c.source,), _keeps_distance)
    return row.report(c.source, c, trials, seed)


def suite_isometry(kind: str, trials: int, seed: int) -> list[TheoremReport]:
    """Maps outer, unlike the other suites: every translation comes first."""
    kinds = resolve_kinds(kind)
    a, b = _translation(seed)
    maps = [Translation(k, a, b) for k in kinds]
    maps += [c for c in (PHI, PPHI, PHI_INV, PPHI_INV) if c.source in kinds]
    return [is_isometry(c, trials, seed) for c in maps]


# -- desargues (arg: the plane) -------------------------------------------------------

LITTLE_DESARGUES_CONFIGS = 100
FULL_DESARGUES_BUDGET = 1000


def _little_desargues(plane, n, seed):
    """n built configurations whose last intersection must land on the axis:
    each is 11 exact joins and 5 meets (9 and 4 to build it, 2 joins for its
    incidences and 1 meet for l1) and, when no draw is rejected, 27 incidence
    tests (8 in the draws and 13 in the postconditions of the build, 2 checks
    and 2 join postconditions for its incidences, 2 for l1 and its verdict)."""
    for i in range(n):
        cfg = theorems.little_desargues_build(plane, theorems.config_seed(seed, i))
        bad = theorems.config_incidences(plane, cfg)
        if bad:
            yield {"config": cfg.to_json(), "broken": bad}
        elif not theorems.little_desargues_verify(plane, cfg):
            yield {"config": cfg.to_json(), "broken": ["l1 off axis"]}


def _full_desargues_fails(plane, n, seed):
    """A full-Desargues counterexample, with the center off the axis."""
    witness = theorems.desargues_falsify(plane, seed, n)
    if witness is not None:
        yield {"config": witness.to_json()}


DESARGUES_ROWS = (
    Scan("little-desargues", ALL, _little_desargues, _upto(LITTLE_DESARGUES_CONFIGS)),
    Scan("full-desargues-fails", ALL, _full_desargues_fails,
         lambda trials: min(max(trials, 10), FULL_DESARGUES_BUDGET),
         "perspective configuration with l1 off the axis"),
)
suite_desargues = _suite(DESARGUES_ROWS, PLANES.__getitem__)


# -- ptr (arg: the plane) ----------------------------------------------------------

def _ptr_nonlinearity(plane, n, seed):
    found = theorems.ptr_nonlinearity_witness()
    if found is not None:
        s, x, lhs, rhs = found
        yield {
            "s": s.to_json(), "x": x.to_json(),
            "theta": lhs.to_json(), "octonion_product": rhs.to_json(),
        }


def _ptr_unit_slope(plane, n, seed):
    for x in BASIS:
        theta = theorems.ptr_product(E, x)
        if theta != x:
            yield {"x": x.to_json(), "theta": theta.to_json()}


def _ptr_zero_slope(plane, rng):
    x, t = random_vec(rng), random_vec(rng)
    if theorems.ptr_theta(Vec8.zero(), x, t) != t:
        return {"x": x.to_json(), "t": t.to_json()}
    return None


def _ptr_octonion_linear(plane, rng):
    """The ternary ring read off ``plane`` is s.x + t with the octonion
    product, and e is its unit slope; true exactly on the octonionic plane."""
    s, x, t = random_vec(rng), random_vec(rng), random_vec(rng)
    if mul(OC, E, x) + t != x + t:
        return {"case": "unit-slope", "x": x.to_json()}
    if plane.meet(FiniteLine(s, t), VerticalLine(x)).y != mul(OC, s, x) + t:
        return {"case": "linear-form"}
    return None


PTR_ROWS = (
    Scan("ptr-nonlinearity", (OK,), _ptr_nonlinearity, lambda _: 64,
         "basis pair with theta(s, x, 0) != s.x"),
    Scan("ptr-unit-slope-is-not-identity", (OK,), _ptr_unit_slope, lambda _: 8,
         "basis x with theta(e, x, 0) != x"),
    Check("ptr-zero-slope-gives-offset", (OK,), _ptr_zero_slope),
    Check("ptr-octonion-plane-linear", (OC,), _ptr_octonion_linear),
)
suite_ptr = _suite(PTR_ROWS, PLANES.__getitem__)


# -- g2 (the Okubo product, whatever --kind says) -------------------------------------

def _g2_accepts(maps):
    """Scan: g2_triple_check accepts the triple ``maps``."""

    def scan(kind, n, seed):
        if not g2_triple_check(*maps):
            yield {"reason": "triple condition violated"}

    return scan


def _g2_mixed_sample(kind, rng):
    x, s = random_vec(rng), random_vec(rng)
    # (A, B, C) = (tau, id, id): B(s*x) = s*x against C(s)*A(x) = s*tau(x)
    if mul(kind, s, x) != mul(kind, s, TAU.apply(x)):
        return {"s": s.to_json(), "x": x.to_json()}
    return None


G2_MIXED_SAMPLES = Check("g2-triple-mixed-fails", (OK,), _g2_mixed_sample,
                         missing="sample violating B(s*x) = C(s)*A(x) for (tau, id, id)")


def _g2_mixed_fails(kind, trials, seed):
    """The sampled witness, and a failure if g2_triple_check accepts the triple."""
    report = G2_MIXED_SAMPLES.report(kind, kind, trials, seed)
    if g2_triple_check(TAU, IDENTITY, IDENTITY):
        report.failures.append({"reason": "g2_triple_check accepted (tau, id, id)"})
    return report


G2_ROWS = (
    Scan("g2-triple-identity", (OK,), _g2_accepts((IDENTITY,) * 3)),
    Scan("g2-triple-trivolution", (OK,), _g2_accepts((TAU,) * 3)),
    Build((OK,), _g2_mixed_fails),
)
suite_g2 = _suite(G2_ROWS, kinds=lambda kind: [OK])


# -- aggregation ----------------------------------------------------------------

SUITES = {
    "identities": suite_identities,
    "plane-axioms": suite_plane_axioms,
    "veronese": suite_veronese,
    "collineations": suite_collineations,
    "isometry": suite_isometry,
    "desargues": suite_desargues,
    "ptr": suite_ptr,
    "g2": suite_g2,
}


def suite_all(kind: str, trials: int, seed: int) -> list[TheoremReport]:
    return [r for suite in SUITES.values() for r in suite(kind, trials, seed)]


def dump_tables() -> dict:
    """Structure tables, Gram matrix and trivolution data as exact strings."""
    return {
        "structure_tables": {
            kind.value: structure_table(kind).to_json() for kind in AlgebraKind
        },
        "gram": gram().to_json(),
        "trivolution": {
            "basis_images": [v.to_json() for v in trivolution_basis_images()],
            "convention_table_comparison": trivolution_table_report(),
        },
    }
