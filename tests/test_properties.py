"""Hypothesis properties of the exact scalars, the matrix model and the
three products on ``Vec8``.

Values are drawn mixed and of large height (components up to ~2^96 over
denominators up to ~2^80), with exact zeros, integral (denominator 1),
pure-rational, pure-sqrt3, pure-real and pure-imaginary cases, unlike the
tiny values that ``algebra.random_scalar`` draws for the reports.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from okuboplane.algebra import (  # noqa: E402
    AlgebraKind,
    HermMat3,
    Vec8,
    mul,
    norm,
    solve_left,
    solve_right,
)
from okuboplane.scalar import (  # noqa: E402
    CQ_ZERO,
    QS_ONE,
    QS_ZERO,
    SQRT3,
    CQSqrt3,
    QSqrt3,
    parse,
    render,
)

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

complexes = st.one_of(
    st.just(CQ_ZERO),
    st.builds(CQSqrt3, scalars),
    st.builds(lambda im: CQSqrt3(QS_ZERO, im), scalars),
    st.builds(CQSqrt3, scalars, scalars),
)

# mostly zero entries, as in the basis matrices
_ENTRIES = st.one_of(st.just(CQ_ZERO), st.just(CQ_ZERO), complexes)
matrices = st.lists(_ENTRIES, min_size=9, max_size=9).map(
    lambda e: HermMat3((tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9])))
)


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


# -- complexified scalars: the zero short-circuits equal the formulas ---------

@given(complexes, complexes)
def test_complex_ring_operations_match_component_formulas(x, y):
    assert x * y == CQSqrt3(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)
    assert x + y == CQSqrt3(x.re + y.re, x.im + y.im)
    assert x - y == CQSqrt3(x.re - y.re, x.im - y.im)


@given(complexes, scalars)
def test_complex_scale_matches_component_formula(x, s):
    assert x.scale(s) == CQSqrt3(x.re * s, x.im * s)


def _dense_matmul(x: HermMat3, y: HermMat3) -> HermMat3:
    a, b = x.rows, y.rows
    return HermMat3(
        tuple(
            tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3))
            for i in range(3)
        )
    )


@given(matrices, matrices)
def test_matmul_equals_dense_sum(x, y):
    assert x.matmul(y) == _dense_matmul(x, y)


# -- Vec8: the three products compose and divide --------------------------------

# mixed vectors: every coordinate is zero or a mixed, large-height scalar
vectors = st.lists(st.one_of(st.just(QS_ZERO), scalars), min_size=8, max_size=8).map(Vec8)
nonzero_vectors = vectors.filter(bool)

KINDS = list(AlgebraKind)


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
