"""``tools/check_tables.py`` re-proves the algebra laws from ``dump-tables``
JSON with code that shares nothing with the package: it accepts the tables
the package writes, and refuses them with one Okubo sign flipped."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from okuboplane.cli import main

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_tables.py"


def _check(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(CHECKER), str(path)],
                          capture_output=True, text=True, timeout=120)


def test_the_checker_accepts_the_tables_and_refuses_a_flipped_sign(tmp_path):
    tables = tmp_path / "tables.json"
    assert main(["dump-tables", "--output", str(tables)]) == 0
    accepted = _check(tables)
    assert accepted.returncode == 0, accepted.stdout + accepted.stderr
    lines = accepted.stdout.splitlines()
    assert lines[-1] == "0 verdict(s) differ from the expected ones"
    assert "symmetric-composition  octonion  fails on 156   expected fails" in lines
    assert "left-alternativity     okubo     fails on 384   expected fails" in lines

    data = json.loads(tables.read_text())
    entry = data["structure_tables"]["okubo"]["products"][1][2]  # i1 * i2
    assert entry[3] == "1/2*sqrt3"
    entry[3] = "-1/2*sqrt3"
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(data))
    refused = _check(flipped)
    assert refused.returncode == 1, refused.stdout + refused.stderr
    lines = refused.stdout.splitlines()
    assert lines[-1] == "5 verdict(s) differ from the expected ones"
    assert "composition            okubo     fails on 48    expected holds" in lines
    assert "tau-automorphism       okubo     fails on 4     expected holds" in lines


def test_the_checker_imports_only_the_standard_library():
    tree = ast.parse(CHECKER.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"json", "re", "sys", "fractions", "itertools"}
