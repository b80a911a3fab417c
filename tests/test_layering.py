"""The library modules import nothing of the harness: reports, suites and
the command line are built on top of them, never under them.  Only
``algebra`` reads the storage of a ``Vec8``, so its format is decided there."""

import ast
from pathlib import Path

from okuboplane.algebra import Vec8

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "okuboplane"
LIBRARY = ("scalar", "algebra", "plane", "collineation", "theorems")
HARNESS = {"report", "suites", "cli"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The okuboplane modules that ``tree`` imports, by their last name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[-1] for a in node.names if a.name.startswith("okuboplane.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("okuboplane"):
                continue
            if module in ("", "okuboplane"):  # from . import report
                found |= {a.name for a in node.names}
            else:
                found.add(module.split(".")[-1])
    return found


def test_library_modules_do_not_import_the_harness():
    edges = [
        f"{name} → {target}"
        for name in LIBRARY
        for target in sorted(_imported_modules(ast.parse((PACKAGE / f"{name}.py").read_text())))
        if target in HARNESS
    ]
    assert edges == []


def test_the_scan_sees_every_import_form():
    tree = ast.parse(
        "from .report import Check\n"
        "from . import suites\n"
        "import okuboplane.cli\n"
        "from okuboplane.report import TheoremReport\n"
        "from .algebra import mul\n"
        "import json\n"
    )
    assert _imported_modules(tree) == {"report", "suites", "cli", "algebra"}


(VEC8_SLOT,) = Vec8.__slots__


def _slot_reads(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that name ``Vec8``'s storage slot."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == VEC8_SLOT
            or isinstance(node, ast.Constant) and node.value == VEC8_SLOT]


def test_only_algebra_reads_the_vector_storage():
    reads = {
        path.name: lines for path in sorted(PACKAGE.glob("*.py")) if path.stem != "algebra"
        for lines in [_slot_reads(ast.parse(path.read_text()))] if lines
    }
    assert reads == {}
    assert _slot_reads(ast.parse((PACKAGE / "algebra.py").read_text()))


def test_the_slot_scan_sees_attribute_and_getattr_reads():
    tree = ast.parse(f"a = v.{VEC8_SLOT}\nb = getattr(v, {VEC8_SLOT!r})\nc = v.c\n")
    assert _slot_reads(tree) == [1, 2]
