"""Hypothesis properties of the exact scalars, the matrix model, the
three products on ``Vec8`` and the points, lines and collineations built
on them.

Values are drawn mixed and of large height (components up to ~2^96 over
denominators up to ~2^80), with exact zeros, integral (denominator 1),
pure-rational, pure-sqrt3, pure-real and pure-imaginary cases, unlike the
tiny values that ``algebra.random_scalar`` draws for the reports.  The
matrix model's integer entries are checked against a dense ``Fraction``
reference that expands products over the monomials sqrt3^m i^n.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from okuboplane.algebra import (  # noqa: E402
    CONJ,
    TAU,
    TAU2,
    AlgebraKind,
    E,
    HermMat3,
    LinMap8,
    Vec8,
    _matmul,
    entry_mul,
    gram,
    matrix_polar,
    matrix_to_vec,
    mul,
    norm,
    okubo_matrix_mul,
    polar,
    product_conversion_crosscheck,
    solve_left,
    solve_right,
    structure_table,
    vec_to_matrix,
)
from okuboplane.collineation import (  # noqa: E402
    PHI,
    PHI_INV,
    PPHI,
    PPHI_INV,
    OctReflection,
    Shear,
    Translation,
    Triality,
    compose,
)
from okuboplane.plane import (  # noqa: E402
    INFINITY_POINT,
    LINE_AT_INFINITY,
    PLANES,
    AffinePoint,
    FiniteLine,
    SlopePoint,
    VerticalLine,
    VeroneseVec,
    beta,
    line_from_json,
    point_from_json,
)
from okuboplane.scalar import (  # noqa: E402
    QS_HALF,
    QS_ONE,
    QS_ZERO,
    SQRT3,
    QSqrt3,
    _add,
    _raw,
    parse,
    render,
)
from okuboplane.theorems import desargues_falsify  # noqa: E402

_NUMERATORS = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**96), 2**96))
_DENOMINATORS = st.one_of(st.just(1), st.integers(1, 6), st.integers(1, 2**80))
rationals = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)

scalars = st.one_of(
    st.just(QS_ZERO),
    st.builds(QSqrt3, _NUMERATORS, _NUMERATORS),  # denominator 1: the fast path
    st.builds(QSqrt3, rationals),
    st.builds(lambda b: QSqrt3(0, b), rationals),
    st.builds(QSqrt3, rationals, rationals),
)
nonzero_scalars = scalars.filter(bool)

# integer entries (a, b, c, d) = a + b*sqrt3 + i*(c + d*sqrt3) of the matrix model
_Z4 = (0, 0, 0, 0)
entries = st.one_of(
    st.just(_Z4),
    st.tuples(_NUMERATORS, _NUMERATORS, st.just(0), st.just(0)),  # real
    st.tuples(st.just(0), st.just(0), _NUMERATORS, _NUMERATORS),  # imaginary
    st.tuples(_NUMERATORS, _NUMERATORS, _NUMERATORS, _NUMERATORS),
)

# mostly zero entries, as in the basis matrices, over a denominator of either sign
_GRIDS = st.lists(st.one_of(st.just(_Z4), st.just(_Z4), entries), min_size=9, max_size=9)
_SIGNED_DENOMINATORS = st.one_of(_DENOMINATORS, _DENOMINATORS.map(lambda d: -d))
matrices = st.builds(HermMat3, _SIGNED_DENOMINATORS, _GRIDS)


# -- Q(sqrt 3) ----------------------------------------------------------------

@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + QS_ZERO == x and x * QS_ONE == x
    assert x + (-x) == QS_ZERO and x - y == x + (-y)


@given(nonzero_scalars, scalars)
def test_scalar_inverse_and_division(x, y):
    assert x * x.inv() == QS_ONE
    assert x.inv().inv() == x
    assert (y / x) * x == y


# -- every producer returns the canonical triple --------------------------------

def _canonical_parts(x: QSqrt3) -> tuple[Fraction, Fraction]:
    """(a, b) of x, after checking that x is stored as d > 0, gcd(p, q, d) == 1."""
    assert type(x.p) is int and type(x.q) is int and type(x.d) is int
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    return Fraction(x.p, x.d), Fraction(x.q, x.d)


@given(scalars, scalars)
def test_scalar_operations_are_canonical_component_formulas(x, y):
    (a1, b1), (a2, b2) = _canonical_parts(x), _canonical_parts(y)
    assert _canonical_parts(x + y) == (a1 + a2, b1 + b2)
    assert _canonical_parts(x - y) == (a1 - a2, b1 - b2)
    assert _canonical_parts(x * y) == (a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2)
    assert _canonical_parts(-x) == (-a1, -b1)


@example(SQRT3)  # raw denominator a^2 - 3 b^2 = -3
@example(QSqrt3(1, 1))  # -2
@example(QSqrt3(2, 1))  # 1
@example(QSqrt3(-5, 3))  # -2, with a negative rational part
@given(nonzero_scalars)
def test_scalar_inverse_is_canonical_component_formula(x):
    a, b = _canonical_parts(x)
    n = a * a - 3 * b * b
    assert _canonical_parts(x.inv()) == (a / n, -b / n)


@given(_NUMERATORS, st.one_of(_DENOMINATORS, _DENOMINATORS.map(lambda d: -d)), st.booleans())
def test_of_is_canonical_component_formula(num, den, sqrt3):
    f = Fraction(num, den)
    assert _canonical_parts(QSqrt3.of(num, den, sqrt3=sqrt3)) == ((0, f) if sqrt3 else (f, 0))


@example(Fraction(1, 2), Fraction(1, 2))  # p, q, d = 2, 2, 4 before reduction
@given(rationals, rationals)
def test_scalar_constructor_stores_the_canonical_triple(a, b):
    assert _canonical_parts(QSqrt3(a, b)) == (a, b)


@example(QSqrt3.of(1, 3), 5, 7, 3, 1)  # equal denominators: numerators added
@example(QSqrt3.of(1, 4), 1, 2, 4, 1)  # added numerators (2, 2, 4) reduce
@example(QSqrt3.of(1, 2), -1, 0, 2, 3)  # 1/2 + (-3)/6 cancels to (0, 0, 1)
@example(QS_ZERO, 2, 2, 4, 1)  # an unreduced triple, against the denominator 1
@given(scalars, _NUMERATORS, _NUMERATORS, _DENOMINATORS, st.integers(1, 2**40))
def test_add_sums_two_triples_canonically(x, p, q, d, g):
    # the kernel's sum, for positive denominators given either way round
    a, b = x.a + Fraction(p, d), x.b + Fraction(q, d)
    for triple in (_add(x.p, x.q, x.d, g * p, g * q, g * d),
                   _add(g * p, g * q, g * d, x.p, x.q, x.d)):
        assert _canonical_parts(_raw(*triple)) == (a, b)


@given(rationals, rationals)
def test_scalar_components_round_trip(a, b):
    x = QSqrt3(a, b)
    assert (x.a, x.b) == (a, b)
    assert QSqrt3(x.a, x.b) == x


def _sign(f: Fraction) -> int:
    return (f > 0) - (f < 0)


@given(scalars)
def test_scalar_sign_matches_exact_square_comparison(x):
    a, b = x.a, x.b
    if _sign(a) * _sign(b) >= 0:
        expected = _sign(a) or _sign(b)
    else:
        # a and sqrt3*b have opposite signs: the one of larger size wins,
        # and a^2 = 3 b^2 has no rational solution besides zero
        expected = _sign(a) if a * a > 3 * b * b else _sign(b)
    assert x.sign() == expected
    assert (-x).sign() == -expected


@given(scalars, scalars)
def test_scalar_sign_is_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@given(scalars)
def test_scalar_parse_render_round_trip(x):
    assert parse(render(x)) == x


@example("2/4")
@example("-1/3 + 2*sqrt3")
@given(st.one_of(st.text(alphabet="0123456789/+-* sqrt"), scalars.map(render)))
def test_scalar_parse_accepts_exactly_what_render_writes(text):
    try:
        value = parse(text)
    except ValueError:
        return
    assert render(value) == text


def _fraction_render(x: QSqrt3) -> str:
    """The text form written from the Fractions ``x.a`` and ``x.b``: the reference."""
    a, b = x.a, x.b
    if not b:
        return str(a)
    bs = "sqrt3" if b == 1 else ("-sqrt3" if b == -1 else f"{b}*sqrt3")
    if not a:
        return bs
    return f"{a} - {bs.lstrip('-')}" if b < 0 else f"{a} + {bs}"


_HUGE = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))


@given(st.one_of(scalars, st.builds(QSqrt3, _HUGE, _HUGE), st.builds(lambda b: QSqrt3(0, b), _HUGE)))
def test_render_writes_the_fraction_text(x):
    assert render(x) == _fraction_render(x)


def test_render_writes_the_fraction_text_of_every_witness_coordinate():
    for plane in PLANES.values():
        for seed in range(6):
            witness = desargues_falsify(plane, seed, 10)
            for element in witness._values(witness):
                for v in element._values(element):
                    for x in v.c:
                        assert render(x) == _fraction_render(x)


# -- Z[sqrt3, i] entries and integer matrices against dense Fractions ----------

_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))  # sqrt3^m i^n for a, b, c, d


def _poly_mul(u, v):
    """u*v expanded over the monomials, reduced by sqrt3^2 = 3 and i^2 = -1."""
    out = [Fraction(0)] * 4
    for (m1, n1), x in zip(_MONOMIALS, u):
        for (m2, n2), y in zip(_MONOMIALS, v):
            m, n = m1 + m2, n1 + n2
            coeff = x * y * (3 if m == 2 else 1) * (-1 if n == 2 else 1)
            out[_MONOMIALS.index((m % 2, n % 2))] += coeff
    return tuple(out)


def _dense(den, grid):
    """The nine entries of ``grid / den`` as Fraction quadruples."""
    return [tuple(Fraction(n, den) for n in u) for u in grid]


def _dense_matmul(x, y):
    return [
        tuple(
            sum(parts, Fraction(0))
            for parts in zip(*(_poly_mul(x[3 * i + k], y[3 * k + j]) for k in range(3)))
        )
        for i in range(3)
        for j in range(3)
    ]


@given(entries, entries)
def test_complex_ring_operations_match_component_formulas(u, v):
    assert entry_mul(u, v) == _poly_mul(u, v)
    assert entry_mul(u, v) == entry_mul(v, u)


@given(entries, _NUMERATORS, _NUMERATORS)
def test_complex_scale_matches_component_formula(u, p, q):
    a, b, c, d = u
    expected = (a * p + 3 * b * q, a * q + b * p, c * p + 3 * d * q, c * q + d * p)
    assert entry_mul(u, (p, q, 0, 0)) == expected


@given(_SIGNED_DENOMINATORS, _GRIDS)
def test_matrix_is_canonical_and_exact(den, grid):
    m = HermMat3(den, grid)
    assert m.den > 0 and math.gcd(m.den, *(n for u in m.entries for n in u)) == 1
    assert _dense(m.den, m.entries) == _dense(den, grid)


@given(matrices, matrices)
def test_matmul_equals_dense_sum(x, y):
    product = _dense(x.den * y.den, _matmul(x.entries, y.entries))
    assert product == _dense_matmul(_dense(x.den, x.entries), _dense(y.den, y.entries))


# -- Vec8: the three products compose and divide --------------------------------

# mixed vectors: every coordinate is zero or a mixed, large-height scalar
vectors = st.lists(st.one_of(st.just(QS_ZERO), scalars), min_size=8, max_size=8).map(Vec8)
nonzero_vectors = vectors.filter(bool)

# mixed coordinates of both signs over denominators d != 1, of heights up to 2^200
_TALL = st.integers(-(2**200), 2**200)
tall_scalars = st.builds(lambda p, q, d: QSqrt3(Fraction(p, d), Fraction(q, d)),
                         _TALL, _TALL, st.integers(2, 2**200))
tall_vectors = st.lists(st.one_of(st.just(QS_ZERO), tall_scalars), min_size=8,
                        max_size=8).map(Vec8)

KINDS = list(AlgebraKind)


def _assert_canonical(v: Vec8) -> None:
    # the kernel hands its sums to the vector as they are, trusted to be canonical
    for p, q, d in v._triples:
        assert d > 0 and math.gcd(p, q, d) == 1


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(x=vectors, y=vectors)
def test_product_composes_norms(kind, x, y):
    assert norm(mul(kind, x, y)) == norm(x) * norm(y)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(a=nonzero_vectors, b=vectors)
def test_left_division(kind, a, b):
    assert mul(kind, a, solve_left(kind, a, b)) == b


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(a=nonzero_vectors, b=vectors)
def test_right_division(kind, a, b):
    assert mul(kind, solve_right(kind, a, b), a) == b


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(x=st.one_of(vectors, tall_vectors), y=st.one_of(vectors, tall_vectors))
def test_product_is_the_structure_constant_expansion(kind, x, y):
    # sum_ij x_i y_j (basis_i o basis_j), term by term with QSqrt3 * and +
    products = structure_table(kind).products
    expected = [QS_ZERO] * 8
    for i in range(8):
        for j in range(8):
            xy = x[i] * y[j]
            for k in range(8):
                expected[k] = expected[k] + xy * products[i][j][k]
    out = mul(kind, x, y)
    assert out == Vec8(expected)
    _assert_canonical(out)


@given(x=st.one_of(vectors, tall_vectors), y=st.one_of(vectors, tall_vectors))
def test_polar_is_the_gram_expansion(x, y):
    g = gram().g
    expected = QS_ZERO
    for i in range(8):
        for j in range(8):
            expected = expected + x[i] * y[j] * g[i][j]
    out = polar(x, y)
    assert out == expected
    assert out.d > 0 and math.gcd(out.p, out.q, out.d) == 1


@given(x=vectors, y=vectors)
def test_matrix_oracle_on_drawn_vectors(x, y):
    mx, my = vec_to_matrix(x), vec_to_matrix(y)
    assert matrix_to_vec(okubo_matrix_mul(mx, my)) == mul(AlgebraKind.OKUBO, x, y)
    assert matrix_polar(mx, my) == polar(x, y)


@given(x=vectors, y=vectors)
def test_product_conversions_on_drawn_vectors(x, y):
    # the octonion and para integer rows and the CONJ/TAU/TAU2 columns
    assert product_conversion_crosscheck(x, y)


# maps whose coefficient denominators include 3 and large values
_MAP_DENOMINATORS = st.one_of(st.just(3), st.sampled_from((2, 6, 9, 12)), _DENOMINATORS)
map_scalars = st.one_of(
    st.just(QS_ZERO),
    scalars,
    st.builds(lambda p, q, d: QSqrt3(Fraction(p, d), Fraction(q, d)),
              _NUMERATORS, _NUMERATORS, _MAP_DENOMINATORS),
)
maps = st.lists(
    st.lists(map_scalars, min_size=8, max_size=8).map(Vec8), min_size=8, max_size=8,
).map(LinMap8)
# mostly zero images, so that the one denominator of a map keeps to a few thousand bits
tall_maps = st.lists(
    st.lists(st.one_of(st.just(QS_ZERO), st.just(QS_ZERO), st.just(QS_ZERO), tall_scalars),
             min_size=8, max_size=8).map(Vec8), min_size=8, max_size=8,
).map(LinMap8)


@given(f=st.one_of(maps, tall_maps), v=st.one_of(vectors, tall_vectors))
def test_linear_map_apply_is_the_sum_of_scaled_images(f, v):
    expected = [QS_ZERO] * 8
    for vj, image in zip(v, f.images):
        for k, c in enumerate(image):
            expected[k] = expected[k] + vj * c
    out = f.apply(v)
    assert out == Vec8(expected)
    _assert_canonical(out)


@example(QS_HALF, QS_HALF, QS_ONE)  # equal denominators: numerators added
@example(QS_HALF, -QS_HALF, QS_ONE)  # the terms cancel to (0, 0, 1)
@example(QSqrt3.of(1, 3), QSqrt3.of(1, 2), QSqrt3.of(2, 3))  # term unreduced over D = 3
@given(x=tall_scalars, y=tall_scalars, c=st.one_of(tall_scalars, map_scalars))
def test_kernel_sums_each_term_as_scalar_add_does(x, y, c):
    # coordinate 0 of f(x e + y i1), with f(e) = e and f(i1) = c e, is the kernel's
    # sum of the terms x and c*y over f.den, each added in place to the coordinate
    f = LinMap8((E, E.scale(c), *[Vec8.zero()] * 6))
    v = Vec8((x, y, *[QS_ZERO] * 6))
    expected = (0, 0, 1)
    for j, ((k, a, b),) in f.columns:
        yp, yq, yd = v._triples[j]
        expected = _add(*expected, a * yp + 3 * b * yq, a * yq + b * yp, f.den * yd)
    assert f.apply(v)._triples == (expected, *[(0, 0, 1)] * 7)


@given(x=vectors)
def test_linear_maps_match_their_formulas(x):
    ok = AlgebraKind.OKUBO
    assert CONJ.apply(x) == E.scale(polar(x, E)) - x
    assert TAU.apply(x) == E.scale(polar(x, E)) - mul(ok, x, E)
    assert TAU2.apply(x) == mul(ok, mul(ok, x, E), E)


# the kernel hands its own sums to a vector, which trusts them to be canonical
@given(x=vectors, y=vectors, f=maps)
def test_kernel_results_are_canonical(x, y, f):
    for kind in KINDS:
        for c in mul(kind, x, y):
            _canonical_parts(c)
    for c in f.apply(y):
        _canonical_parts(c)
    _canonical_parts(polar(x, y))
    _canonical_parts(norm(x))


def test_kernel_sum_that_cancels_is_the_canonical_zero():
    # the terms x1 y1 g11 = 2/4 and x2 y2 g22 = -2/4 cancel
    i1, i2 = Vec8.basis(1), Vec8.basis(2)
    zero = polar((i1 + i2).scale(QS_HALF), (i1 - i2).scale(QS_HALF))
    assert zero == QS_ZERO and (zero.p, zero.q, zero.d) == (0, 0, 1)


# -- points and lines: the value-type contract ------------------------------------

points = st.one_of(
    st.builds(AffinePoint, vectors, vectors), st.builds(SlopePoint, vectors),
    st.just(INFINITY_POINT),
)
lines = st.one_of(
    st.builds(FiniteLine, vectors, vectors), st.builds(VerticalLine, vectors),
    st.just(LINE_AT_INFINITY),
)


@given(st.one_of(points, lines), st.one_of(points, lines))
def test_points_and_lines_rebuild_from_their_fields(v, w):
    fields = tuple(getattr(v, name) for name in type(v).__slots__)
    rebuilt = type(v)(*fields)
    assert rebuilt == v and hash(rebuilt) == hash(v) == hash(fields)
    same = type(v) is type(w) and fields == tuple(getattr(w, n) for n in type(w).__slots__)
    assert (v == w) is same and (v != w) is not same


@given(points, lines)
def test_points_and_lines_round_trip_through_json(p, l):
    assert point_from_json(p.to_json()) == p
    assert line_from_json(l.to_json()) == l


# -- the Veronese model: the adjoint and beta on large-height vectors -------------

veronese_vectors = st.builds(VeroneseVec, vectors, vectors, vectors, scalars, scalars, scalars)
SYMMETRIC_KINDS = [AlgebraKind.OKUBO, AlgebraKind.PARA_OCTONION]


@pytest.mark.parametrize("kind", SYMMETRIC_KINDS, ids=[k.value for k in SYMMETRIC_KINDS])
@given(v=veronese_vectors)
def test_sharp_commutes_with_the_cyclic_shift_on_symmetric_kinds(kind, v):
    plane = PLANES[kind]
    assert plane.sharp(v.cyclic()) == plane.sharp(v).cyclic()


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(p=points, l=lines, s=scalars)
def test_sharp_vanishes_on_multiples_of_point_and_line_images(kind, p, l, s):
    plane = PLANES[kind]
    assert not plane.sharp(plane.point_to_veronese(p).scale(s))
    assert not plane.sharp(plane.line_to_veronese(l).scale(s))


def _point_on(plane, l, x, at_infinity):
    """A point of ``l``: its point at infinity, or the point over x."""
    if isinstance(l, FiniteLine):
        return SlopePoint(l.s) if at_infinity else AffinePoint(x, plane.mul(l.s, x) + l.t)
    if isinstance(l, VerticalLine):
        return INFINITY_POINT if at_infinity else AffinePoint(l.c, x)
    return INFINITY_POINT if at_infinity else SlopePoint(x)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(l=lines, x=vectors, at_infinity=st.booleans(), p=points)
def test_beta_detects_incidence(kind, l, x, at_infinity, p):
    plane = PLANES[kind]
    w = plane.line_to_veronese(l)
    on = _point_on(plane, l, x, at_infinity)
    assert plane.incident(on, l) and not beta(plane.point_to_veronese(on), w)
    assert (not beta(plane.point_to_veronese(p), w)) is plane.incident(p, l)


# -- join, meet and the chart maps on large-height points and lines ---------------

@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(p=points, q=points)
def test_join_is_incident_to_both_points(kind, p, q):
    assume(p != q)
    plane = PLANES[kind]
    line = plane.join(p, q)
    assert plane.incident(p, line) and plane.incident(q, line)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
@given(l=lines, m=lines)
def test_meet_is_incident_to_both_lines(kind, l, m):
    assume(l != m)
    plane = PLANES[kind]
    point = plane.meet(l, m)
    assert plane.incident(point, l) and plane.incident(point, m)


@pytest.mark.parametrize(
    "chart, inverse", [(PHI, PHI_INV), (PPHI, PPHI_INV)], ids=["phi", "pphi"]
)
@given(p=points, l=lines)
def test_chart_map_and_its_inverse_fix_points_and_lines(chart, inverse, p, l):
    for there_and_back in (compose(chart, inverse), compose(inverse, chart)):
        assert there_and_back.apply_point(p) == p
        assert there_and_back.apply_line(l) == l


# a map of each closed-form type, from the drawn vectors a and b
_MAKERS = {
    "translation-okubo": lambda a, b: Translation(AlgebraKind.OKUBO, a, b),
    "shear-octonion": lambda a, b: Shear(AlgebraKind.OCTONION, a),
    "triality-okubo": lambda a, b: Triality(AlgebraKind.OKUBO),
    "triality-okubo-inverse": lambda a, b: Triality(AlgebraKind.OKUBO, True),
    "triality-para": lambda a, b: Triality(AlgebraKind.PARA_OCTONION),
    "triality-para-inverse": lambda a, b: Triality(AlgebraKind.PARA_OCTONION, True),
    "oct-reflection": lambda a, b: OctReflection(),
}


@pytest.mark.parametrize("make", _MAKERS.values(), ids=list(_MAKERS))
@given(a=vectors, b=vectors, p=points, l=lines)
def test_inverse_undoes_each_map(make, a, b, p, l):
    c = make(a, b)
    inverse = c.invert()
    assert inverse.apply_point(c.apply_point(p)) == p
    assert inverse.apply_line(c.apply_line(l)) == l


_TRIPLES = {
    "shear-phi-reflection": lambda a: (Shear(AlgebraKind.OKUBO, a), PHI, OctReflection()),
    "translation-pphi-inv-triality": lambda a: (
        Translation(AlgebraKind.PARA_OCTONION, a, a), PPHI_INV, Triality(AlgebraKind.OKUBO)),
}


@pytest.mark.parametrize("make", _TRIPLES.values(), ids=list(_TRIPLES))
@given(a=vectors, p=points, l=lines)
def test_nested_composites_apply_like_the_flat_one(make, a, p, l):
    first, second, third = make(a)
    flat = compose(first, second, third)
    for nested in (compose(compose(first, second), third), compose(first, compose(second, third))):
        assert (nested.source, nested.target) == (flat.source, flat.target)
        assert nested.apply_point(p) == flat.apply_point(p)
        assert nested.apply_line(l) == flat.apply_line(l)
        assert nested.invert().apply_point(nested.apply_point(p)) == p
