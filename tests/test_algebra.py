import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import okuboplane
from okuboplane.algebra import (
    BASIS,
    CONJ,
    IDENTITY,
    TAU,
    TAU2,
    AlgebraKind,
    BasisDecompositionFailure,
    DegenerateAfterRetries,
    DivisionByZeroElement,
    E,
    GramMatrix,
    HermMat3,
    LinMap8,
    RepresentationViolation,
    Vec8,
    _DRAWS,
    _RETRIES,
    basis_matrices,
    check_identity,
    conjugate_oct,
    draw,
    entry_conj,
    gram,
    identity_holds,
    left_quotient,
    matrix_norm,
    matrix_to_vec,
    memo_mul,
    mul,
    norm,
    okubo_matrix_mul,
    polar,
    random_nonzero_vec,
    random_scalar,
    random_vec,
    solve_left,
    solve_right,
    structure_table,
    product_conversion_crosscheck,
    quotient_identity_failures,
    trial_rng,
    trivolution,
    trivolution_basis_images,
    trivolution_sq,
    trivolution_table_report,
    vec_to_matrix,
)
from okuboplane import algebra, scalar
from okuboplane.scalar import QS_ONE, QS_ZERO, QSqrt3

OK = AlgebraKind.OKUBO
OC = AlgebraKind.OCTONION
PA = AlgebraKind.PARA_OCTONION

ZERO = Vec8.zero()
I1 = Vec8.basis(1)
I4 = Vec8.basis(4)
I5 = Vec8.basis(5)


def vec(**kw):
    coords = [QS_ZERO] * 8
    names = ("e", "i1", "i2", "i3", "i4", "i5", "i6", "i7")
    for name, val in kw.items():
        coords[names.index(name)] = val
    return Vec8(tuple(coords))


def q(a, b=0):
    return QSqrt3(Fraction(a), Fraction(b))


# -- matrix representation ---------------------------------------------------

Z4 = (0, 0, 0, 0)


def grid(**cells):
    """Nine row-major entries, zero except the named ones (``m12=...``)."""
    return tuple(cells.get(f"m{k // 3 + 1}{k % 3 + 1}", Z4) for k in range(9))


def test_basis_matrices_shape():
    mats = basis_matrices()
    assert all(m.den == 1 for m in mats)
    e = mats[0].entries
    assert e[0] == (2, 0, 0, 0) and e[4] == (-1, 0, 0, 0)
    i1 = mats[1].entries
    assert i1[1] == (0, 1, 0, 0) and i1[3] == (0, 1, 0, 0)
    i5 = mats[5].entries
    assert i5[1] == (0, 0, 0, -1)
    assert i5[3] == (0, 0, 0, 1)
    for m in mats:
        u = m.entries
        assert all(u[3 * j + i] == entry_conj(u[3 * i + j]) for i in range(3) for j in range(3))
        assert [sum(n) for n in zip(u[0], u[4], u[8])] == [0, 0, 0, 0]


def test_matrix_product_idempotent():
    mats = basis_matrices()
    assert okubo_matrix_mul(mats[0], mats[0]) == mats[0]


def test_matrix_product_i1_i1():
    mats = basis_matrices()
    prod = okubo_matrix_mul(mats[1], mats[1])
    assert matrix_to_vec(prod) == vec(e=q(2), i4=-q(0, 1))


def test_matrix_product_e_i1():
    mats = basis_matrices()
    prod = okubo_matrix_mul(mats[0], mats[1])
    assert matrix_to_vec(prod) == vec(i1=q(Fraction(1, 2)), i5=q(0, Fraction(-1, 2)))


def test_matrix_product_violation_detected():
    # E12 and E21 are not Hermitian; their twisted product picks up complex
    # diagonal entries, which the closure check must reject
    e12 = HermMat3(1, grid(m12=(1, 0, 0, 0)))
    e21 = HermMat3(1, grid(m21=(1, 0, 0, 0)))
    with pytest.raises(RepresentationViolation):
        okubo_matrix_mul(e12, e21)


def test_matrix_norm_rejects_complex_trace():
    skew = HermMat3(1, grid(m12=(0, 0, 1, 0), m21=(1, 0, 0, 0)))
    with pytest.raises(RepresentationViolation):
        matrix_norm(skew)


def test_decomposition_round_trip():
    rng = trial_rng(0, 0)
    for _ in range(20):
        v = random_vec(rng)
        assert matrix_to_vec(vec_to_matrix(v)) == v


def test_decomposition_failure_outside_span():
    non_hermitian = HermMat3(1, grid(m12=(1, 0, 0, 0)))
    with pytest.raises(BasisDecompositionFailure):
        matrix_to_vec(non_hermitian)


def test_matrix_is_canonical():
    m = HermMat3(-4, grid(m11=(2, 0, 0, 6), m22=(-2, 0, 0, -6)))
    assert m == HermMat3(2, grid(m11=(-1, 0, 0, -3), m22=(1, 0, 0, 3)))
    assert (m.den, m.entries[0]) == (2, (-1, 0, 0, -3))
    assert HermMat3(7, grid()) == HermMat3(1, grid())


@pytest.mark.parametrize(
    "den, entries",
    [
        (1, grid(m12=(Fraction(1, 2), 0, 0, 0))),
        (1, grid(m12=(0, 0, QS_ONE, 0))),
        (1, grid(m12=(True, 0, 0, 0))),
        (1.0, grid()),
        (1, grid()[:8]),
        (1, grid(m12=(1, 0, 0))),
    ],
    ids=["fraction-entry", "scalar-entry", "bool-entry", "float-den", "eight-entries", "short-entry"],
)
def test_matrix_constructor_rejects_non_integers(den, entries):
    with pytest.raises(TypeError):
        HermMat3(den, entries)


def test_matrix_constructor_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        HermMat3(0, grid(m11=(1, 0, 0, 0)))


@pytest.mark.parametrize("name", ["den", "entries"])
def test_matrix_refuses_assignment_and_deletion(name):
    m = basis_matrices()[1]
    with pytest.raises(AttributeError):
        setattr(m, name, 5)
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert m == HermMat3(1, grid(m12=(0, 1, 0, 0), m21=(0, 1, 0, 0)))


def test_matrix_checks_survive_python_optimize():
    # the product of e with itself under a wrong twist constant is Hermitian
    # but not traceless: only the trace check can stop it
    code = (
        "from okuboplane import algebra as A\n"
        "Z = (0, 0, 0, 0)\n"
        "e12 = A.HermMat3(1, (Z, (1, 0, 0, 0)) + (Z,) * 7)\n"
        "e21 = A.HermMat3(1, (Z,) * 3 + ((1, 0, 0, 0),) + (Z,) * 5)\n"
        "skew = A.HermMat3(1, (Z, (0, 0, 1, 0), Z, (1, 0, 0, 0)) + (Z,) * 5)\n"
        "e = A.basis_matrices()[0]\n"
        "def twisted(x, y):\n"
        "    A.SIX_MU = (4, 0, 0, 1)\n"
        "    try:\n"
        "        return A.okubo_matrix_mul(x, y)\n"
        "    finally:\n"
        "        A.SIX_MU = (3, 0, 0, 1)\n"
        "for name, call in [('hermitian', lambda: A.okubo_matrix_mul(e12, e21)),\n"
        "                   ('traceless', lambda: twisted(e, e)),\n"
        "                   ('real-trace', lambda: A.matrix_norm(skew)),\n"
        "                   ('round-trip', lambda: A.matrix_to_vec(e12))]:\n"
        "    try:\n"
        "        call()\n"
        "    except (A.RepresentationViolation, A.BasisDecompositionFailure) as exc:\n"
        "        print(name, type(exc).__name__)\n"
        "print('debug', __debug__)\n"
    )
    src = str(Path(okuboplane.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "hermitian", "RepresentationViolation",
        "traceless", "RepresentationViolation",
        "real-trace", "RepresentationViolation",
        "round-trip", "BasisDecompositionFailure",
        "debug", "False",
    ]


# -- structure tables ---------------------------------------------------------

def test_okubo_table_matches_matrix_oracle_on_all_basis_pairs():
    mats = basis_matrices()
    table = structure_table(OK)
    for i in range(8):
        for j in range(8):
            oracle = okubo_matrix_mul(mats[i], mats[j])
            assert table.products[i][j] == matrix_to_vec(oracle)
            # re-multiplied through the matrix map it reproduces the oracle
            assert vec_to_matrix(table.products[i][j]) == oracle


def _rows_and_entries(case):
    """The integer rows of a structure table or of the Gram matrix, with the
    entries they must rebuild: ``products[i][j]``, or ``g_ij e``."""
    if case == "gram":
        g = gram()
        return g.rows, [[E.scale(gij) for gij in row] for row in g.g]
    table = structure_table(case)
    return table.rows, table.products


@pytest.mark.parametrize(
    "case", [*AlgebraKind, "gram"], ids=[k.value for k in AlgebraKind] + ["gram"]
)
def test_integer_rows_rebuild_every_table_entry(case):
    # only non-empty columns are kept: an absent column is a zero image
    rows, entries = _rows_and_entries(case)
    assert len(rows) == 8
    stored = 0
    for i, left in enumerate(rows):
        assert left.den in (1, 2)
        images = [ZERO] * 8
        for j, column in left.columns:
            assert column
            coords = [QS_ZERO] * 8
            for k, a, b in column:
                assert type(a) is int and type(b) is int and (a or b)
                coords[k] = QSqrt3(Fraction(a, left.den), Fraction(b, left.den))
            images[j] = Vec8(coords)
        js = [j for j, _ in left.columns]
        assert js == sorted(set(js))
        assert images == list(entries[i])
        stored += len(left.columns)
    assert stored == sum(1 for row in entries for v in row if v)
    assert stored == (10 if case == "gram" else 64)
    if case == "gram":  # polar is bilinear: the basis pairs prove the kernel's Gram path
        for i, x in enumerate(BASIS):
            for j, y in enumerate(BASIS):
                assert polar(x, y) == gram().g[i][j]


def test_okubo_coefficient_example():
    prod = structure_table(OK).products[0][1]  # e * i1
    assert prod.c[5] == q(0, Fraction(-1, 2))


def test_octonion_unit_row_and_column():
    rng = trial_rng(0, 1)
    for k in range(8):
        b = Vec8.basis(k)
        assert mul(OC, E, b) == b
        assert mul(OC, b, E) == b
    v = random_vec(rng)
    assert mul(OC, E, v) == v and mul(OC, v, E) == v


def test_para_unit_conjugates_basis():
    for k in range(8):
        b = Vec8.basis(k)
        assert mul(PA, E, b) == conjugate_oct(b)
        assert mul(PA, b, E) == conjugate_oct(b)


def test_okubo_vector_products():
    assert mul(OK, E, E) == E
    assert mul(OK, I1, I1) == vec(e=q(2), i4=-q(0, 1))
    assert mul(OK, E, I1) == vec(i1=q(Fraction(1, 2)), i5=q(0, Fraction(-1, 2)))
    assert mul(OK, I1, E) == vec(i1=q(Fraction(1, 2)), i5=q(0, Fraction(1, 2)))


# -- norm and polarisation -----------------------------------------------------

def test_norm_examples():
    assert norm(E) == QS_ONE
    assert norm(ZERO) == QS_ZERO
    assert norm(vec(e=q(2), i4=-q(0, 1))) == QS_ONE  # image of i1*i1


def test_norm_agrees_with_matrix_trace():
    rng = trial_rng(0, 2)
    for _ in range(30):
        v = random_vec(rng)
        assert norm(v) == matrix_norm(vec_to_matrix(v))


def test_polar_examples():
    assert polar(E, E) == q(2)
    assert polar(E, I1) == QS_ZERO
    assert polar(E, I4) == q(0, 1)  # the non-orthogonal pair, <e, i4> = sqrt3


def test_polar_is_polarisation_of_norm():
    rng = trial_rng(0, 3)
    for _ in range(30):
        x, y = random_vec(rng), random_vec(rng)
        assert polar(x, y) == norm(x + y) - norm(x) - norm(y)
        assert polar(x, y) == polar(y, x)


def test_gram_values_and_minors():
    g = gram().g
    assert g[0][0] == q(2)
    assert g[0][1] == QS_ZERO
    assert g[0][4] == q(0, 1) and g[4][0] == q(0, 1)
    for i in range(8):
        assert g[i][i] == q(2)
        for j in range(8):
            assert g[i][j] == g[j][i]
            if {i, j} not in ({0}, {4}, {0, 4}) and i != j and {i, j} != {0, 4}:
                assert g[i][j] == QS_ZERO
    assert gram().is_positive_definite()
    assert gram().leading_minors() == [q(m) for m in (2, 4, 8, 16, 8, 16, 32, 64)]


def test_norm_positive_definite_random():
    rng = trial_rng(0, 4)
    for _ in range(40):
        v = random_vec(rng)
        if v:
            assert norm(v).sign() > 0
        else:
            assert norm(v) == QS_ZERO


# -- conjugation and trivolution ----------------------------------------------

def test_conjugation_examples():
    assert conjugate_oct(E) == E
    assert conjugate_oct(I1) == -I1
    assert conjugate_oct(I4) == vec(e=q(0, 1)) - I4  # <i4, e> = sqrt3


def test_conjugation_involution_and_norm_product():
    rng = trial_rng(0, 5)
    for _ in range(25):
        v = random_vec(rng)
        assert conjugate_oct(conjugate_oct(v)) == v
        assert mul(OC, v, conjugate_oct(v)) == E.scale(norm(v))


def test_trivolution_fixed_points():
    assert trivolution(E) == E
    images = trivolution_basis_images()
    # matrix-derived action: e, i3, i4, i7 fixed; (i1,i5) and (i2,i6) rotate
    for k in (0, 3, 4, 7):
        assert images[k] == Vec8.basis(k)
    assert images[1] == vec(i1=q(Fraction(-1, 2)), i5=q(0, Fraction(-1, 2)))
    assert images[5] == vec(i1=q(0, Fraction(1, 2)), i5=q(Fraction(-1, 2)))


def test_trivolution_order_three_and_square():
    rng = trial_rng(0, 6)
    for k in range(8):
        b = Vec8.basis(k)
        assert trivolution(trivolution(trivolution(b))) == b
    for _ in range(20):
        v = random_vec(rng)
        assert trivolution(trivolution(trivolution(v))) == v
        assert trivolution_sq(v) == trivolution(trivolution(v))


def test_trivolution_automorphism_of_both_products():
    rng = trial_rng(0, 7)
    for _ in range(20):
        x, y = random_vec(rng), random_vec(rng)
        assert trivolution(mul(OK, x, y)) == mul(OK, trivolution(x), trivolution(y))
        assert trivolution(mul(OC, x, y)) == mul(OC, trivolution(x), trivolution(y))


def test_trivolution_closed_forms():
    rng = trial_rng(0, 8)
    for _ in range(20):
        x = random_vec(rng)
        assert trivolution(x) == mul(OK, E, mul(OK, E, x))
        assert trivolution_sq(x) == mul(OK, mul(OK, x, E), E)
        # conjugation and tau as iterated right e-multiplications
        r3 = mul(OK, mul(OK, mul(OK, x, E), E), E)
        assert conjugate_oct(x) == r3
        assert trivolution(x) == mul(OK, r3, E)
        assert conjugate_oct(trivolution(x)) == trivolution(conjugate_oct(x))


def test_linear_maps_satisfy_their_laws_exactly():
    # matrix identities: proofs on the whole space, not samples
    assert TAU @ TAU @ TAU == IDENTITY
    assert TAU @ TAU == TAU2
    assert CONJ @ CONJ == IDENTITY
    assert TAU @ CONJ == CONJ @ TAU
    assert TAU.apply(E) == E and CONJ.apply(E) == E
    assert TAU.images == trivolution_basis_images()
    assert LinMap8.of(lambda v: v) == IDENTITY


def test_linear_map_apply_and_compose():
    shift = LinMap8(BASIS[1:] + BASIS[:1])  # does not commute with tau
    assert TAU @ shift != shift @ TAU
    rng = trial_rng(0, 9)
    for _ in range(10):
        v = random_vec(rng)
        assert IDENTITY.apply(v) == v
        assert (TAU @ shift).apply(v) == TAU.apply(shift.apply(v))
    assert CONJ.apply(ZERO) == ZERO


@pytest.mark.parametrize(
    "images, error",
    [(BASIS[:7], ValueError), (BASIS + BASIS[:1], ValueError),
     (BASIS[:7] + (BASIS[0].c,), TypeError), (BASIS[:7] + (None,), TypeError)],
    ids=["seven", "nine", "coordinates", "none"],
)
def test_linear_map_rejects_bad_images(images, error):
    with pytest.raises(error):
        LinMap8(images)


def test_convention_table_comparison_reports_discrepancy():
    report = trivolution_table_report()
    assert report["agrees"] is False
    mismatched = {m["basis"] for m in report["mismatches"]}
    assert mismatched == {"i1", "i2", "i4", "i5", "i6"}
    assert report["gram_off_diagonal"] == [{"pair": ["e", "i4"], "value": "sqrt3"}]


# -- division -------------------------------------------------------------------

def test_solve_examples():
    assert solve_left(OK, E, I1) == vec(i1=q(Fraction(1, 2)), i5=q(0, Fraction(1, 2)))
    assert solve_left(OK, E, E) == E
    rng = trial_rng(0, 9)
    for _ in range(10):
        a = random_vec(rng)
        if a:
            assert solve_left(OC, a, a) == E


def test_solve_by_substitution():
    rng = trial_rng(0, 10)
    for kind in AlgebraKind:
        for _ in range(15):
            a, b = random_vec(rng), random_vec(rng)
            if not a:
                continue
            assert mul(kind, a, solve_left(kind, a, b)) == b
            assert mul(kind, solve_right(kind, a, b), a) == b


def test_solve_zero_divisor_raises():
    with pytest.raises(DivisionByZeroElement):
        solve_left(OK, ZERO, E)
    with pytest.raises(DivisionByZeroElement):
        solve_right(OC, ZERO, E)


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda k: k.value)
def test_quotient_identities_hold_on_every_basis_triple(kind):
    # a o L(a, b) = n(a) b = R(a, b) o a for all a, b: solve_left/solve_right are exact
    assert list(quotient_identity_failures(kind)) == []


@pytest.mark.parametrize("side, name", [("left", "left_quotient"), ("right", "right_quotient")])
def test_quotient_identity_failures_catch_the_octonion_quotient_in_the_okubo_slot(
        monkeypatch, side, name):
    octonion = getattr(algebra, name)
    monkeypatch.setattr(algebra, name, lambda kind, a, b: octonion(OC, a, b))
    failures = list(quotient_identity_failures(OK))
    assert len(failures) == 416
    assert {f[0] for f in failures} == {side}


# -- identities -----------------------------------------------------------------

def test_flexibility_everywhere():
    rng = trial_rng(0, 11)
    for kind in AlgebraKind:
        for _ in range(15):
            x, y = random_vec(rng), random_vec(rng)
            assert check_identity(kind, "Flexible", x, y, y)


def test_moufang_holds_in_octonions():
    rng = trial_rng(0, 12)
    for _ in range(15):
        x, y, z = random_vec(rng), random_vec(rng), random_vec(rng)
        for name in ("Moufang1", "Moufang2", "Moufang3"):
            assert check_identity(OC, name, x, y, z)


def test_okubo_alternativity_fails_on_a_basis_pair():
    found = any(
        not check_identity(OK, "AlternativeLeft", Vec8.basis(i), Vec8.basis(j), ZERO)
        for i in range(8)
        for j in range(8)
    )
    assert found


def test_symmetric_composition_and_norm_associativity():
    rng = trial_rng(0, 13)
    for kind in (OK, PA):
        for _ in range(15):
            x, y, z = random_vec(rng), random_vec(rng), random_vec(rng)
            assert check_identity(kind, "SymmetricComposition", x, y, z)
            assert check_identity(kind, "NormAssociative", x, y, z)


def test_octonion_symmetric_composition_counterexample():
    assert not check_identity(OC, "SymmetricComposition", I1, I1, ZERO)


def test_composition_property():
    rng = trial_rng(0, 14)
    for kind in AlgebraKind:
        for _ in range(20):
            x, y = random_vec(rng), random_vec(rng)
            assert check_identity(kind, "Composition", x, y, y)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        check_identity(OK, "Jacobi", E, E, E)
    with pytest.raises(ValueError):
        identity_holds(memo_mul(OK), "Jacobi", E, E, E)


@pytest.mark.parametrize("kind", list(AlgebraKind), ids=lambda k: k.value)
def test_every_law_through_one_memo_agrees_with_check_identity_on_the_basis(kind):
    # one memo across all the laws' scans, as the moufang-identities-fail row keeps one
    m = memo_mul(kind)
    for name in algebra._IDENTITIES:
        for x, y, z in product(BASIS, repeat=3):
            assert identity_holds(m, name, x, y, z) == check_identity(kind, name, x, y, z)


def test_product_conversion_crosscheck():
    assert product_conversion_crosscheck(E, E)
    assert product_conversion_crosscheck(I1, Vec8.basis(2))
    rng = trial_rng(0, 15)
    for _ in range(25):
        assert product_conversion_crosscheck(random_vec(rng), random_vec(rng))


# -- generators and serialization -------------------------------------------------

def test_random_scalar_bounds():
    rng = trial_rng(0, 16)
    for _ in range(200):
        s = random_scalar(rng)
        num = s.a.numerator if s.q == 0 else s.b.numerator
        den = s.a.denominator if s.q == 0 else s.b.denominator
        assert -3 <= num <= 3 and den in (1, 2)
        assert s.a == 0 or s.b == 0


def test_random_scalar_matches_fraction_draw():
    # the same three rng calls, in the same order, as drawing a Fraction
    rng, ref = trial_rng(0, 18), trial_rng(0, 18)
    for _ in range(200):
        f = Fraction(ref.randint(-3, 3), ref.choice((1, 2)))
        expected = QSqrt3(0, f) if ref.random() < 0.25 else QSqrt3(f)
        assert random_scalar(rng) == expected
    assert rng.random() == ref.random()


def test_draw_table_holds_the_canonical_values():
    assert len(_DRAWS) == 7 and all(len(row) == 2 for row in _DRAWS)
    for num in range(-3, 4):
        for den in (1, 2):
            for sqrt3, triple in enumerate(_DRAWS[num + 3][den - 1]):
                value = QSqrt3.of(num, den, sqrt3=bool(sqrt3))
                assert triple == (value.p, value.q, value.d)  # canonical: d > 0, gcd 1
                assert type(triple) is tuple and value.d > 0
                assert math.gcd(*triple) == 1


def _three_call_scalar(rng):
    num, den = rng.randint(-3, 3), rng.choice((1, 2))
    return QSqrt3.of(num, den, sqrt3=rng.random() < 0.25)


@pytest.mark.parametrize("seed", [*range(50), 1000])
def test_random_vec_keeps_the_three_call_stream(seed):
    rng, ref = trial_rng(seed, 3), trial_rng(seed, 3)
    for _ in range(100):
        assert random_vec(rng) == Vec8([_three_call_scalar(ref) for _ in range(8)])
    assert rng.random() == ref.random()


class _OutOfRangeBits(random.Random):
    """A generator whose ``getrandbits(k)`` reads 0 before its ``start``-th
    call and 2**k - 1, out of range for ``random_scalar``, from then on; it
    stops the test instead of hanging if the redraws are not bounded."""

    def __init__(self, start):
        super().__init__(0)
        self.start, self.calls = start, []

    def getrandbits(self, k):
        self.calls.append(k)
        assert len(self.calls) <= 10 * _RETRIES, "the redraws are not bounded"
        return (1 << k) - 1 if len(self.calls) >= self.start else 0


@pytest.mark.parametrize("bits, start", [(3, 1), (2, 2)], ids=["numerator", "denominator"])
def test_random_vec_gives_up_after_the_retry_budget(bits, start):
    # the first draw of the numerator (3 bits) or the denominator (2 bits),
    # then exactly _RETRIES redraws, all out of range
    rng = _OutOfRangeBits(start)
    with pytest.raises(DegenerateAfterRetries, match=f"{_RETRIES} draws"):
        random_vec(rng)
    assert rng.calls == [3] * (start - 1) + [bits] * (1 + _RETRIES)


def test_draw_returns_the_first_accepted_draw():
    values = iter(range(10))
    assert draw(None, lambda rng: next(values), lambda v: v < 3) == 3
    assert next(values) == 4


def test_draw_gives_up_after_the_retry_budget():
    calls = []
    with pytest.raises(DegenerateAfterRetries, match="64 draws"):
        draw(trial_rng(0, 0), lambda rng: calls.append(rng.random()), lambda v: True)
    assert len(calls) == 64


def test_random_nonzero_vec_fails_loudly_on_a_zero_generator(monkeypatch):
    monkeypatch.setattr(algebra, "random_vec", lambda rng: ZERO)
    with pytest.raises(DegenerateAfterRetries):
        random_nonzero_vec(trial_rng(0, 0))


def test_the_package_has_no_while_loop():
    # every loop is bounded: a draw-until goes through algebra.draw
    package = Path(okuboplane.__file__).parent
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.While)], module.name


@pytest.mark.parametrize(
    "op",
    [lambda: E + 1, lambda: E - 1, lambda: E.scale(2), lambda: GramMatrix(((1,) * 8,) * 8)],
    ids=["add", "sub", "scale", "gram-ints"],
)
def test_a_plain_number_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op()


@pytest.mark.parametrize("coords", [[1] * 8, [QS_ONE] * 7 + [Fraction(1, 2)], [QS_ZERO] * 7 + [None]],
                         ids=["ints", "fraction", "none"])
def test_vec_constructor_rejects_coordinates_that_are_not_scalars(coords):
    with pytest.raises(TypeError, match="QSqrt3"):
        Vec8(coords)


@pytest.mark.parametrize("action", ["set", "delete"])
def test_vec_refuses_assignment_and_deletion(action):
    v = vec(e=QS_ONE)
    with pytest.raises(AttributeError, match="immutable"):
        if action == "set":
            v.c = (QS_ZERO,) * 8
        else:
            del v.c
    assert v == E and hash(v) == hash(E)


def test_vec_json_roundtrip():
    rng = trial_rng(0, 17)
    for _ in range(10):
        v = random_vec(rng)
        assert Vec8.from_json(v.to_json()) == v


@pytest.mark.parametrize(
    "data",
    ["12345678", {str(k): "0" for k in range(8)}, ["0"] * 7, ["0"] * 9, [0] * 8, ("0",) * 8],
    ids=["string", "dict", "seven", "nine", "ints", "tuple"],
)
def test_vec_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError, match="list of 8 scalar strings"):
        Vec8.from_json(data)


def test_vec_repr_names_basis():
    assert str(vec(e=q(2), i4=-q(0, 1))) == "(2)*e + (-sqrt3)*i4"
    assert str(ZERO) == "0"


def test_kind_labels():
    assert AlgebraKind("okubo") is OK
    assert AlgebraKind("para") is PA
    assert AlgebraKind("octonion") is OC
    with pytest.raises(ValueError):
        AlgebraKind("sedenion")


@pytest.mark.parametrize("kind", ["okubo", None], ids=["string", "none"])
def test_a_kind_that_is_not_an_algebra_kind_raises(kind):
    i1, i2 = BASIS[1], BASIS[2]
    assert str(mul(OK, i1, i2)) == "(1/2*sqrt3)*i3 + (-1/2)*i7"
    with pytest.raises(TypeError, match="AlgebraKind"):
        mul(kind, i1, i2)
    with pytest.raises(TypeError, match="AlgebraKind"):
        left_quotient(kind, i1, i2)
    with pytest.raises(TypeError, match="AlgebraKind"):
        list(quotient_identity_failures(kind))


def _count_raw(monkeypatch) -> list[int]:
    """Counts every ``QSqrt3`` built from here on, through ``scalar._raw``
    and through the name ``algebra`` binds it to."""
    count, build = [0], scalar._raw

    def counted(p, q, d):
        count[0] += 1
        return build(p, q, d)

    monkeypatch.setattr(scalar, "_raw", counted)
    monkeypatch.setattr(algebra, "_raw", counted)
    return count


def test_vector_arithmetic_builds_no_scalar(monkeypatch):
    rng = trial_rng(0, 23)
    x, y, s = random_vec(rng), random_vec(rng), random_scalar(rng) + QS_ONE
    products = [mul(kind, x, y) for kind in AlgebraKind]  # tables and Gram derived here
    polar(x, y)
    count = _count_raw(monkeypatch)
    for kind, expected in zip(AlgebraKind, products):
        assert mul(kind, x, y) == expected
    for v in (TAU.apply(x), CONJ.apply(y), x + y, x - y, -x, x.scale(s)):
        assert v != ZERO
    assert count == [0]
    polar(x, y)
    assert count == [1]
    x[3]  # one coordinate read builds one scalar, a slice one per coordinate
    assert count == [2]
    x[2:5]
    assert count == [5]


def test_kernel_built_vectors_read_the_same_through_every_view():
    rng = trial_rng(0, 24)
    for _ in range(10):
        x, y = random_vec(rng), random_vec(rng)
        for v in (mul(AlgebraKind.OKUBO, x, y), TAU.apply(x), x - y, x.scale(norm(y))):
            rebuilt = Vec8(v.c)
            assert rebuilt == v and hash(rebuilt) == hash(v) == hash(v.c)
            assert list(v) == list(v.c) == [v[k] for k in range(8)]
            assert v[2:5] == v.c[2:5] and all(type(c) is QSqrt3 for c in v)
