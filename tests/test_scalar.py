import math
import random
from fractions import Fraction

import pytest

from okuboplane.scalar import (
    CQ_I,
    CQ_ONE,
    MU,
    MU_BAR,
    QS_ONE,
    QS_ZERO,
    SQRT3,
    CQSqrt3,
    QSqrt3,
    ZeroInverse,
    parse,
    render,
)


def q(a, b=0):
    return QSqrt3(Fraction(a), Fraction(b))


def rand_scalar(rng):
    return QSqrt3(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
    )


def test_defining_relation():
    assert SQRT3 * SQRT3 == q(3)


def test_square_of_one_plus_sqrt3():
    x = q(1, 1)
    assert x * x == q(4, 2)


def test_additive_inverse():
    rng = random.Random(0)
    for _ in range(50):
        x = rand_scalar(rng)
        assert x + (-x) == QS_ZERO


def test_inverse_examples():
    assert q(2).inv() == q(Fraction(1, 2))
    assert q(1, 1).inv() == q(Fraction(-1, 2), Fraction(1, 2))
    assert SQRT3.inv() == q(0, Fraction(1, 3))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        QS_ZERO.inv()


def test_field_axioms_on_random_values():
    rng = random.Random(1)
    for _ in range(60):
        x, y, z = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inv() == QS_ONE
            assert x / x == QS_ONE


def test_zero_iff_both_components_zero():
    assert not QSqrt3(0, 0)
    assert QSqrt3(0, Fraction(1, 7))
    assert QSqrt3(Fraction(-1, 7), 0)


def test_canonical_form_idempotence():
    raw = QSqrt3(Fraction(2, 4), Fraction(-6, 4))
    again = QSqrt3(raw.a, raw.b)
    assert raw == again == QSqrt3(Fraction(1, 2), Fraction(-3, 2))
    assert raw.a.denominator == 2 and raw.b == Fraction(-3, 2)


def test_exact_sign():
    assert QS_ZERO.sign() == 0
    assert q(2, -1).sign() == 1  # 4 > 3
    assert q(-2, 1).sign() == -1
    assert q(-1, 1).sign() == 1  # sqrt3 > 1
    assert q(1, -1).sign() == -1
    assert q(Fraction(7, 4), -1).sign() == 1  # 49/16 > 3
    assert q(Fraction(-7, 4), 1).sign() == -1


def test_float_rendering_only():
    assert float(QS_ZERO) == 0.0
    assert float(q(Fraction(1, 2))) == 0.5
    assert abs(float(SQRT3) - 1.7320508075688772) < 5e-16
    assert float(q(1, 1)) == pytest.approx(1 + math.sqrt(3))


def test_render_examples():
    assert render(q(0)) == "0"
    assert render(q(Fraction(1, 2))) == "1/2"
    assert render(SQRT3) == "sqrt3"
    assert render(-SQRT3) == "-sqrt3"
    assert render(q(0, Fraction(3, 2))) == "3/2*sqrt3"
    assert render(q(1, Fraction(-1, 2))) == "1 - 1/2*sqrt3"
    assert render(q(Fraction(-1, 3), 2)) == "-1/3 + 2*sqrt3"


def test_parse_render_roundtrip():
    rng = random.Random(2)
    for _ in range(80):
        x = rand_scalar(rng)
        assert parse(render(x)) == x


def test_parse_rejects_malformed():
    for text in ("", "foo", "1 + 2", "1 2*sqrt3", "sqrt3 + sqrt3 + 1"):
        with pytest.raises(ValueError):
            parse(text)


def test_complex_i_squares_to_minus_one():
    assert CQ_I * CQ_I == -CQ_ONE


def test_mu_and_conjugate():
    six = CQSqrt3(q(6), QS_ZERO)
    assert MU * six == CQSqrt3(q(3), SQRT3)
    assert MU_BAR == MU.conj()
    assert MU_BAR * six == CQSqrt3(q(3), -SQRT3)
    assert MU.conj().conj() == MU


def test_complex_modulus_nonnegative():
    rng = random.Random(3)
    for _ in range(40):
        z = CQSqrt3(rand_scalar(rng), rand_scalar(rng))
        m = z * z.conj()
        assert not m.im
        assert m.re.sign() >= 0


@pytest.mark.parametrize(
    "args",
    [(0.1,), (True,), (1, False), (1, 0.5), ("1/2",), (Fraction(1, 2), "3")],
    ids=["float", "bool", "bool-sqrt3-part", "float-sqrt3-part", "str", "str-sqrt3-part"],
)
def test_scalar_constructor_rejects_non_rationals(args):
    with pytest.raises(TypeError):
        QSqrt3(*args)


@pytest.mark.parametrize(
    "args",
    [(1, 2), (QS_ONE, 2), (1,), (Fraction(1), QS_ZERO)],
    ids=["ints", "int-im", "int-re", "fraction-re"],
)
def test_complex_constructor_rejects_non_scalars(args):
    with pytest.raises(TypeError):
        CQSqrt3(*args)


@pytest.mark.parametrize("name", ["p", "q", "d"])
def test_scalar_refuses_assignment_and_deletion(name):
    x = QSqrt3(Fraction(1, 2), 3)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(x, name, 5)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(x, name)
    assert x == QSqrt3(Fraction(1, 2), 3) and hash(x) == hash(QSqrt3(Fraction(1, 2), 3))


@pytest.mark.parametrize("name", ["re", "im"])
def test_complex_refuses_assignment_and_deletion(name):
    z = CQSqrt3(QS_ONE, SQRT3)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(z, name, QS_ZERO)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(z, name)
    assert z * CQ_ONE == CQSqrt3(QS_ONE, SQRT3)


@pytest.mark.parametrize(
    "args, error",
    [
        ((1, 0), ZeroDivisionError),
        ((0, 0), ZeroDivisionError),
        ((True,), TypeError),
        ((1, True), TypeError),
        ((0.5,), TypeError),
        ((1, 2.0), TypeError),
        ((Fraction(1, 2),), TypeError),
        (("1",), TypeError),
    ],
    ids=["zero-den", "zero-over-zero", "bool", "bool-den", "float", "float-den", "fraction", "str"],
)
def test_of_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        QSqrt3.of(*args)
    with pytest.raises(error):
        QSqrt3.of(*args, sqrt3=True)

