"""The value-type contract shared by every immutable type built on
``scalar.Frozen``: construction by position or by name, equality only
within one type, the hash of the field tuple, no assignment, deletion or
instance dict, and the dataclass-style repr.  Importing the package
generates no code, so it never loads ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import okuboplane
from okuboplane import suites
from okuboplane.algebra import (
    TAU,
    AlgebraKind,
    E,
    GramMatrix,
    HermMat3,
    LinMap8,
    StructureTable,
    Vec8,
    basis_matrices,
    gram,
    structure_table,
)
from okuboplane.collineation import (
    PHI,
    PHI_INV,
    ChartMap,
    Composite,
    KindMismatch,
    OctReflection,
    Shear,
    Translation,
    Triality,
    compose,
)
from okuboplane.plane import (
    INFINITY_POINT,
    LINE_AT_INFINITY,
    OKUBO_PLANE,
    AffinePoint,
    FiniteLine,
    InfinityPoint,
    LineAtInfinity,
    Plane,
    SlopePoint,
    VerticalLine,
    VeroneseVec,
)
from okuboplane.report import Build, Check, Scan, TheoremReport
from okuboplane.scalar import QS_ONE, QS_ZERO, Frozen, QSqrt3
from okuboplane.theorems import DesarguesConfig

OK = AlgebraKind.OKUBO
ZERO = Vec8.zero()
I1 = Vec8.basis(1)
P = AffinePoint(E, I1)
L = FiniteLine(I1, E)
NAMES = ("center", "axis", "a", "b", "c", "a1", "b1", "c1", "l2", "l3", "l1")
ROW = ("name", "kinds", "check", "budget", "missing")
SCAN = next(row for row in suites.IDENTITY_ROWS if isinstance(row, Scan) and row.budget is None)

# one value of each type, with its field names in order
SAMPLES = [
    (TAU, ("images",)),
    (basis_matrices()[5], ("den", "entries")),
    (structure_table(OK), ("kind", "products")),
    (gram(), ("g",)),
    (P, ("x", "y")),
    (SlopePoint(I1), ("s",)),
    (INFINITY_POINT, ()),
    (L, ("s", "t")),
    (VerticalLine(E), ("c",)),
    (LINE_AT_INFINITY, ()),
    (OKUBO_PLANE.point_to_veronese(P), ("x1", "x2", "x3", "l1", "l2", "l3")),
    (OKUBO_PLANE, ("kind",)),
    (Translation(OK, E, I1), ("kind", "a", "b")),
    (Shear(OK, I1), ("kind", "a")),
    (Triality(OK, True), ("kind", "inverse")),
    (PHI, ("label", "inverse_label", "source", "target", "f", "g")),
    (OctReflection(), ()),
    (compose(PHI, OctReflection(), PHI_INV), ("steps",)),
    (DesarguesConfig(P, L, *[P] * 9), NAMES),
    (suites.MOUFANG_HOLDS, ROW),
    (SCAN, ROW),
    (suites.MOUFANG_FAILS, ("kinds", "build")),
]
IDS = [type(value).__name__ for value, _ in SAMPLES]


def test_samples_cover_every_value_type():
    assert {type(value) for value, _ in SAMPLES} == {
        LinMap8, HermMat3, StructureTable, GramMatrix, AffinePoint, SlopePoint,
        InfinityPoint, FiniteLine, VerticalLine, LineAtInfinity, VeroneseVec, Plane,
        Translation, Shear, Triality, ChartMap, OctReflection, Composite, DesarguesConfig,
        Check, Scan, Build,
    }


@pytest.mark.parametrize("value, names", SAMPLES, ids=IDS)
def test_rebuilt_value_is_equal_with_the_field_tuple_hash(value, names):
    cls, fields = type(value), tuple(getattr(value, name) for name in names)
    assert cls(*fields) == value
    assert cls(**dict(zip(names, fields))) == value
    assert hash(value) == hash(fields) == hash(cls(*fields))
    shown = ", ".join(f"{name}={field!r}" for name, field in zip(names, fields))
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("value, names", SAMPLES, ids=IDS)
def test_value_refuses_assignment_and_deletion(value, names):
    assert not hasattr(value, "__dict__")
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)


@pytest.mark.parametrize("value, names", SAMPLES, ids=IDS)
def test_bad_constructor_call_raises_type_error(value, names):
    cls, fields = type(value), [getattr(value, name) for name in names]
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields, extra=None)
    if names:
        with pytest.raises(TypeError):
            cls(*fields, **{names[0]: fields[0]})
        if cls is not Triality:  # the only type whose every field has a default
            with pytest.raises(TypeError):
                cls()


@pytest.mark.parametrize(
    "value",
    [value for value, _ in SAMPLES] + [QSqrt3(-3, 1) / QSqrt3(7), E + I1.scale(QSqrt3(0, 5))],
    ids=IDS + ["QSqrt3", "Vec8"],
)
def test_pickle_and_deepcopy_round_trip(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
        for name in type(value).__slots__:  # the derived integer rows too
            assert getattr(copied, name) == getattr(value, name)


def test_equality_needs_the_same_type():
    assert AffinePoint(E, I1) != FiniteLine(E, I1)
    assert SlopePoint(I1) != VerticalLine(I1)
    assert INFINITY_POINT != LINE_AT_INFINITY and InfinityPoint() == INFINITY_POINT
    assert AffinePoint(E, I1) != (E, I1)
    assert AffinePoint(E, I1).__eq__(FiniteLine(E, I1)) is NotImplemented
    assert Shear(OK, I1) != Translation(OK, I1, ZERO)


def test_a_plain_number_equals_no_scalar_and_no_vector():
    for value in (QS_ONE, E, ZERO):
        assert value.__eq__(1) is NotImplemented
        assert value != 1 and not value == 1


def test_composite_stores_its_steps_as_a_tuple():
    tupled = Composite((PHI, PHI_INV))
    for steps in ([PHI, PHI_INV], iter((PHI, PHI_INV))):
        chain = Composite(steps)
        assert chain.steps == (PHI, PHI_INV)
        assert chain == tupled and hash(chain) == hash(tupled)
    assert compose(PHI, PHI_INV) == tupled == tupled.invert().invert()


def test_equality_compares_every_field():
    v = OKUBO_PLANE.point_to_veronese(P)
    assert VeroneseVec(v.x1, v.x2, v.x3, v.l1, v.l2, QS_ZERO) != v
    assert VeroneseVec(v.x1, v.x2, ZERO, v.l1, v.l2, v.l3) != v
    assert Triality(OK) != Triality(OK, True)
    assert AffinePoint(E, ZERO) != AffinePoint(ZERO, E)
    assert VeroneseVec(v.x1, v.x2, v.x3, v.l1, v.l2, v.l3) == v != v.scale(QS_ONE + QS_ONE)


def test_desargues_config_without_l1():
    cfg = DesarguesConfig(P, L, *[P] * 8)
    assert cfg.l1 is None
    assert DesarguesConfig(*[getattr(cfg, n) for n in NAMES[:-1]], l1=P).l1 == P
    assert cfg.to_json().keys() == set(NAMES) - {"l1"}


def test_constructor_checks_stay():
    with pytest.raises(KindMismatch):
        Triality(AlgebraKind.OCTONION)
    with pytest.raises(ValueError, match="empty"):
        Composite(())
    with pytest.raises(KindMismatch):
        Composite((PHI, PHI))
    with pytest.raises(ValueError):
        LinMap8(TAU.images[:7])
    with pytest.raises(ValueError, match="exactly 8"):
        Vec8(E.c[:7])
    with pytest.raises(ZeroDivisionError):
        HermMat3(0, basis_matrices()[0].entries)


@pytest.mark.parametrize(("make", "error", "match"), [
    (lambda: StructureTable(OK, structure_table(OK).products[:7]), ValueError, "8 rows of 8"),
    (lambda: GramMatrix(gram().g[:3]), ValueError, "8 rows of 8"),
    (lambda: StructureTable("okubo", structure_table(OK).products), TypeError, "AlgebraKind"),
    (lambda: Triality("octonion"), TypeError, "AlgebraKind"),
    (lambda: Translation("okubo", E, E), TypeError, "AlgebraKind"),
    (lambda: Shear("okubo", I1), TypeError, "AlgebraKind"),
    (lambda: ChartMap("F", "G", "okubo", OK, TAU, TAU), TypeError, "AlgebraKind"),
    (lambda: ChartMap("F", "G", OK, None, TAU, TAU), TypeError, "AlgebraKind"),
    (lambda: Plane("okubo"), TypeError, "AlgebraKind"),
    (lambda: Plane(None), TypeError, "AlgebraKind"),
    (lambda: Triality(OK, "no"), TypeError, "bool"),
    (lambda: Triality(OK, 1), TypeError, "bool"),
    (lambda: AffinePoint(1, 2), TypeError, "Vec8"),
    (lambda: AffinePoint(E, y=E.c), TypeError, "Vec8"),
    (lambda: SlopePoint("x"), TypeError, "Vec8"),
    (lambda: FiniteLine(E, None), TypeError, "Vec8"),
    (lambda: VerticalLine(1), TypeError, "Vec8"),
    (lambda: VeroneseVec(1, 2, 3, 4, 5, 6), TypeError, "VeroneseVec.x1 must be Vec8, not 1"),
    (lambda: VeroneseVec(E, E, E, 0, 0, 1), TypeError, "VeroneseVec.l1 must be QSqrt3, not 0"),
    (lambda: VeroneseVec(E, E, QS_ONE, QS_ONE, QS_ONE, QS_ONE), TypeError,
     "VeroneseVec.x3 must be Vec8"),
    (lambda: Translation(OK, E, 1), TypeError, "Translation.b must be Vec8"),
    (lambda: Shear(OK, "a"), TypeError, "Shear.a must be Vec8"),
    (lambda: ChartMap("F", "G", OK, OK, 1, TAU), TypeError, "F.f must be LinMap8"),
    (lambda: ChartMap("F", "G", OK, OK, TAU, TAU.images), TypeError, "F.g must be LinMap8"),
    (lambda: compose(PHI, 3), TypeError, "collineations"),
    (lambda: Composite((E,)), TypeError, "collineations"),
    (lambda: DesarguesConfig(*range(10)), TypeError, "DesarguesConfig.center must be PjPoint"),
    (lambda: DesarguesConfig(L, L, *[P] * 8), TypeError, "center must be PjPoint, not"),
    (lambda: DesarguesConfig(P, P, *[P] * 8), TypeError, "axis must be PjLine, not"),
    (lambda: DesarguesConfig(P, L, *[P] * 8, L), TypeError, "l1 must be PjPoint or NoneType"),
], ids=["table-seven-rows", "gram-three-rows", "table-string-kind", "triality-string-kind",
        "translation-string-kind", "shear-string-kind", "chart-string-source", "chart-none-target",
        "plane-string-kind", "plane-none-kind", "triality-string-inverse", "triality-int-inverse",
        "affine-int-coordinates", "affine-tuple-coordinate", "slope-string", "line-none-offset",
        "vertical-int", "veronese-ints", "veronese-int-lambdas", "veronese-scalar-slot",
        "translation-int-offset", "shear-string-slope", "chart-int-f", "chart-tuple-g",
        "composite-int-step", "composite-vector-step", "desargues-ints", "desargues-line-center",
        "desargues-point-axis", "desargues-line-l1"])
def test_bad_kind_or_shape_fails_when_the_value_is_built(make, error, match):
    with pytest.raises(error, match=match):
        make()


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_field_types_name_every_field_or_none():
    # zip would skip the fields past a short tuple without a word
    declared = {cls: cls._field_types for cls in _subclasses(Frozen)}
    assert {cls for cls, types in declared.items() if len(types) not in (0, len(cls._fields))} == set()
    assert {AffinePoint, VeroneseVec, Plane, Translation, ChartMap, DesarguesConfig} <= {
        cls for cls, types in declared.items() if types}


def test_field_types_are_checked_under_python_optimize():
    code = ("from okuboplane.plane import AffinePoint\n"
            "from okuboplane.theorems import DesarguesConfig\n"
            "for make in (lambda: AffinePoint(1, 2), lambda: DesarguesConfig(*range(10))):\n"
            "    try:\n"
            "        make()\n"
            "    except TypeError as exc:\n"
            "        print(exc)\n")
    src = str(Path(okuboplane.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "AffinePoint.x must be Vec8, not 1", "DesarguesConfig.center must be PjPoint, not 0"]


def test_linear_map_composes_only_with_linear_maps():
    assert TAU.__matmul__(3) is NotImplemented
    with pytest.raises(TypeError, match="@"):
        TAU @ 3
    with pytest.raises(TypeError, match="@"):
        TAU @ E


def test_linear_map_columns_follow_its_images():
    rebuilt = LinMap8(list(TAU.images))
    assert rebuilt == TAU and rebuilt.columns == TAU.columns
    assert type(rebuilt.images) is tuple


def test_theorem_report_takes_keywords_and_fresh_lists():
    first = TheoremReport(name="r", kind="okubo", seed=0, trials=1)
    second = TheoremReport(name="r", kind="okubo", seed=0, trials=1)
    first.failures.append({"i": 0})
    assert second.failures == [] and first.witnesses is not second.witnesses
    assert (first.mode, first.elapsed_ms, first.verdict, second.ok) == ("expect-pass", 0.0, "fail", True)
    with pytest.raises(TypeError):
        TheoremReport("r", "okubo", 0, 1)


def test_import_loads_no_dataclasses():
    code = "import sys, okuboplane.cli\nprint('dataclasses' in sys.modules)\n"
    src = str(Path(okuboplane.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


_WRAPPED_IMPORT = """
import builtins, decimal, types
# decimal (imported by fractions) builds its DecimalTuple with namedtuple; that
# is the standard library's generated code, not the package's
sources = []


def wrap(name):
    original = getattr(builtins, name)

    def wrapper(source, *args, **kwargs):
        if not (isinstance(source, types.CodeType) and source.co_name == "<module>"):
            sources.append(f"{name}: {str(source)[:60]!r}")
        return original(source, *args, **kwargs)

    return wrapper


for name in ("eval", "exec", "compile"):
    setattr(builtins, name, wrap(name))
import okuboplane.cli
print("\\n".join(sources) or "none")
"""


def test_import_compiles_no_source_text(tmp_path):
    # the first run fills a private bytecode cache, so that the second one
    # imports every module from its cached code object
    src = str(Path(okuboplane.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp_path))
    for _ in range(2):
        result = subprocess.run([sys.executable, "-c", _WRAPPED_IMPORT], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "none"
