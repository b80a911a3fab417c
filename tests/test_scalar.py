import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from okuboplane import scalar
from okuboplane.algebra import SIX_MU, SIX_MU_BAR, Vec8, entry_conj, entry_mul
from okuboplane.scalar import (
    QS_ONE,
    QS_ZERO,
    SQRT3,
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
    # parse accepts only what render writes, and render writes none of these
    for text in ("2/4", "  2  ", "+1", "007", "0*sqrt3", "1*sqrt3", "sqrt3 + 1"):
        with pytest.raises(ValueError, match="canonical form|cannot parse"):
            parse(text)


@pytest.mark.parametrize(
    "text", ["1/0", "0/0*sqrt3", "1 + 2/0*sqrt3", "-3/00"],
    ids=["rational", "sqrt3", "second-term", "double-zero"],
)
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse(text)
    with pytest.raises(ValueError, match="zero denominator"):
        Vec8.from_json(["0"] * 7 + [text])


# -- Z[sqrt3, i]: the entries (a, b, c, d) = a + b*sqrt3 + i*(c + d*sqrt3) of
#    the matrix model

def test_complex_i_squares_to_minus_one():
    i = (0, 0, 1, 0)
    assert entry_mul(i, i) == (-1, 0, 0, 0)
    assert entry_mul((0, 1, 0, 0), (0, 1, 0, 0)) == (3, 0, 0, 0)  # sqrt3^2


def test_mu_and_conjugate():
    # 6 mu = 3 + i sqrt3 is a root of t^2 - 6t + 12, so mu of 3t^2 - 3t + 1
    assert SIX_MU == (3, 0, 0, 1)
    assert SIX_MU_BAR == entry_conj(SIX_MU) == (3, 0, 0, -1)
    assert entry_conj(SIX_MU_BAR) == SIX_MU
    assert tuple(map(sum, zip(SIX_MU, SIX_MU_BAR))) == (6, 0, 0, 0)  # mu + conj(mu) = 1
    assert entry_mul(SIX_MU, SIX_MU_BAR) == (12, 0, 0, 0)  # |mu|^2 = 1/3
    square = entry_mul(SIX_MU, SIX_MU)
    assert tuple(s - 6 * m for s, m in zip(square, SIX_MU)) == (-12, 0, 0, 0)


def test_complex_modulus_nonnegative():
    rng = random.Random(3)
    for _ in range(40):
        z = tuple(rng.randint(-9, 9) for _ in range(4))
        a, b, c, d = entry_mul(z, entry_conj(z))
        assert c == d == 0
        assert QSqrt3(a, b).sign() >= 0


@pytest.mark.parametrize(
    "args",
    [(0.1,), (True,), (1, False), (1, 0.5), ("1/2",), (Fraction(1, 2), "3")],
    ids=["float", "bool", "bool-sqrt3-part", "float-sqrt3-part", "str", "str-sqrt3-part"],
)
def test_scalar_constructor_rejects_non_rationals(args):
    with pytest.raises(TypeError):
        QSqrt3(*args)


@pytest.mark.parametrize("name", ["p", "q", "d"])
def test_scalar_refuses_assignment_and_deletion(name):
    x = QSqrt3(Fraction(1, 2), 3)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(x, name, 5)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(x, name)
    assert x == QSqrt3(Fraction(1, 2), 3) and hash(x) == hash(QSqrt3(Fraction(1, 2), 3))


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


@pytest.mark.parametrize(
    "op",
    [lambda x: x * 2, lambda x: x + 2, lambda x: x - 2, lambda x: x / 2],
    ids=["mul", "add", "sub", "truediv"],
)
def test_a_plain_number_operand_raises_type_error(op):
    # the operators return NotImplemented for a foreign operand, so Python raises TypeError
    with pytest.raises(TypeError, match="unsupported operand"):
        op(QSqrt3(1))


def _functions_calling(names):
    """The functions and methods of ``scalar.py`` that call one of ``names``,
    each with the number of such calls."""
    tree = ast.parse(Path(scalar.__file__).read_text())
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Name) and n.func.id in names]
            if calls:
                found[fn.name] = len(calls)
    return found


def test_only_raw_writes_the_slots():
    assert _functions_calling({"_set_p", "_set_q", "_set_d"}) == {"_raw": 3}


def test_mul_has_one_product_formula():
    assert _functions_calling({"_canonical"})["__mul__"] == 1
