"""Every basis scan of the `identities` suite can fail: given a corrupted
structure table, Gram matrix or trivolution, the row reports a failure that
names the offending index.  Whole-report rows are timed, the `g2` witness row
reports a `g2_triple_check` that accepts, and `little-desargues` derives its
configuration seeds as the full-Desargues search does."""

import ast
import inspect
from types import SimpleNamespace

import pytest

from okuboplane import algebra, suites, theorems
from okuboplane.algebra import (
    BASIS,
    AlgebraKind,
    GramMatrix,
    LinMap8,
    StructureTable,
    gram,
    structure_table,
)
from okuboplane.report import Scan
from okuboplane.scalar import QS_ZERO

OK = AlgebraKind.OKUBO
ROWS = {getattr(row, "name", None): row for row in suites.IDENTITY_ROWS}
SCANS = ("structure-table-vs-matrix-oracle", "gram-positive-definite-minors",
         "trivolution-order-three")


def _report(name):
    return ROWS[name].report(OK, OK, 3, 0)


@pytest.mark.parametrize("name", SCANS)
def test_basis_scan_passes_on_derived_data(name):
    assert _report(name).verdict == "pass"


def test_structure_oracle_names_a_corrupted_product(monkeypatch):
    table = structure_table(OK)
    products = [list(row) for row in table.products]
    products[2][5] = products[2][5] + BASIS[0]
    corrupted = StructureTable(table.kind, tuple(map(tuple, products)))
    monkeypatch.setattr(suites, "structure_table", lambda kind: corrupted)
    report = _report("structure-table-vs-matrix-oracle")
    assert report.verdict == "fail"
    assert report.failures == [{"i": 2, "j": 5}]


def test_structure_oracle_reads_the_columns_that_mul_reads(monkeypatch):
    # the products are intact; only row 2's integer column for i5 is corrupted
    table = structure_table(OK)
    images = list(table.products[2])
    images[5] = images[5] + BASIS[0]
    rows = table.rows[:2] + (LinMap8(images),) + table.rows[3:]
    corrupted = SimpleNamespace(kind=OK, products=table.products, rows=rows)
    monkeypatch.setattr(suites, "structure_table", lambda kind: corrupted)
    report = _report("structure-table-vs-matrix-oracle")
    assert report.verdict == "fail"
    assert report.failures == [{"i": 2, "j": 5}]


def test_structure_oracle_multiplies_no_matrices(monkeypatch):
    # the matrix model's 64 products are derived once, by algebra.okubo_basis_products
    _report("structure-table-vs-matrix-oracle")  # the first report may derive them
    calls, matrix_mul = [], algebra.okubo_matrix_mul

    def counted(x, y):
        calls.append((x, y))
        return matrix_mul(x, y)

    monkeypatch.setattr(algebra, "okubo_matrix_mul", counted)
    monkeypatch.setattr(suites, "okubo_matrix_mul", counted, raising=False)
    assert _report("structure-table-vs-matrix-oracle").verdict == "pass"
    assert _report("structure-table-vs-matrix-oracle").verdict == "pass"
    assert calls == []


def test_every_scan_check_is_a_generator_function():
    # a report draws the outcome stream inside its stopwatch; a generator
    # function runs nothing before the stream is drawn
    scans = [row for value in vars(suites).values()
             for row in (value if isinstance(value, tuple) else (value,))
             if isinstance(row, Scan)]
    tree = ast.parse(inspect.getsource(suites))
    written = [n for n in ast.walk(tree)
               if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Scan"]
    assert len(set(map(id, scans))) == len(written)
    assert [s.name for s in scans if not inspect.isgeneratorfunction(s.check)] == []


def test_gram_minors_name_the_first_non_positive_minor(monkeypatch):
    g = [list(row) for row in gram().g]
    g[3][3] = -g[3][3]  # i3 is orthogonal to the rest: minors 4..8 change sign
    monkeypatch.setattr(suites, "gram", lambda: GramMatrix(tuple(map(tuple, g))))
    report = _report("gram-positive-definite-minors")
    assert report.verdict == "fail"
    assert [f["minor"] for f in report.failures] == [4, 5, 6, 7, 8]


def test_gram_minors_stop_at_a_zero_pivot(monkeypatch):
    g = [list(row) for row in gram().g]
    g[1][1] = QS_ZERO
    monkeypatch.setattr(suites, "gram", lambda: GramMatrix(tuple(map(tuple, g))))
    report = _report("gram-positive-definite-minors")
    assert report.verdict == "fail"
    # no row swap keeps a leading minor, so the elimination ends at minor 2
    assert report.failures == [{"minor": 2, "value": "0"}]


def test_trivolution_order_names_the_corrupted_basis_vector(monkeypatch):
    tau = suites.trivolution
    i2 = BASIS[2]
    monkeypatch.setattr(suites, "trivolution", lambda v: -tau(v) if v == i2 else tau(v))
    report = _report("trivolution-order-three")
    assert report.verdict == "fail"
    assert report.failures == [{"basis": 2}, {"basis": 2, "law": "tau2 = tau o tau"}]


def _named(reports, name):
    return next(r for r in reports if r.name == name)


def test_trivolution_table_comparison_is_timed():
    reports = suites.suite_identities("okubo", 1, 0)
    assert _named(reports, "trivolution-convention-table-comparison").elapsed_ms > 0


def test_g2_mixed_row_fails_when_g2_triple_check_accepts(monkeypatch):
    monkeypatch.setattr(suites, "g2_triple_check", lambda *maps: True)
    report = _named(suites.suite_g2("okubo", 3, 0), "g2-triple-mixed-fails")
    assert report.mode == "expect-witness" and report.verdict == "fail"
    assert report.failures == [{"reason": "g2_triple_check accepted (tau, id, id)"}]
    assert len(report.witnesses) == 1 and report.witnesses[0].keys() == {"s", "x"}


def test_little_desargues_asks_for_the_config_seeds(monkeypatch):
    build, seeds = theorems.little_desargues_build, []

    def record(plane, seed):
        seeds.append(seed)
        return build(plane, seed)

    monkeypatch.setattr(theorems, "little_desargues_build", record)
    assert all(r.ok for r in suites.suite_desargues("okubo", 3, 7))
    assert seeds == [theorems.config_seed(7, i) for i in range(3)]
