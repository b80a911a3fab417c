import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from okuboplane.algebra import Vec8
from okuboplane.cli import build_parser, main
from okuboplane.plane import PjPoint, line_from_json, point_from_json
from okuboplane.theorems import DesarguesConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, capsys):
    rc = main(args)
    return rc, capsys.readouterr().out


def scrub_elapsed(text):
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', text)


def test_identities_okubo_exits_zero(capsys):
    rc, out = run_cli(["identities", "--kind", "okubo", "--trials", "25", "--seed", "7"], capsys)
    assert rc == 0
    assert "norm-composition" in out and "PASS" in out
    assert "# okuboplane identities" in out


def test_json_reports_are_deterministic_apart_from_elapsed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(["identities", "--kind", "para", "--trials", "15", "--seed", "3",
                   "--format", "json", "--output", str(p)])
        assert rc == 0
    a, b = (scrub_elapsed(p.read_text()) for p in paths)
    assert a == b
    reports = json.loads(a)
    assert all(r["verdict"] == "pass" for r in reports)
    assert {r["seed"] for r in reports} == {3}
    assert {r["trials"] for r in reports} >= {15}


def test_desargues_all_kinds_sections(tmp_path):
    out = tmp_path / "desargues.json"
    rc = main(["desargues", "--kind", "all", "--trials", "5",
               "--format", "json", "--output", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    names = [(r["name"], r["kind"]) for r in reports]
    kinds = {"okubo", "para", "octonion"}
    assert {k for n, k in names if n == "little-desargues"} == kinds
    assert {k for n, k in names if n == "full-desargues-fails"} == kinds
    for r in reports:
        if r["name"] == "full-desargues-fails":
            assert r["witnesses"]


def test_dump_tables(tmp_path):
    out = tmp_path / "tables.json"
    rc = main(["dump-tables", "--output", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) == {"structure_tables", "gram", "trivolution"}
    assert set(data["structure_tables"]) == {"okubo", "para", "octonion"}
    okubo = data["structure_tables"]["okubo"]
    assert okubo["products"][0][0] == [ "1", "0", "0", "0", "0", "0", "0", "0" ]  # e*e = e
    assert data["gram"]["g"][0][0] == "2"
    assert data["gram"]["g"][0][4] == "sqrt3"
    assert data["trivolution"]["convention_table_comparison"]["agrees"] is False


@pytest.mark.parametrize("args", [["g2", "--trials", "1"], ["dump-tables"]],
                         ids=["g2", "dump-tables"])
def test_unwritable_output_exits_two_before_any_suite_runs(args, tmp_path, monkeypatch,
                                                           capsys):
    from okuboplane import cli

    def refuse(*_):
        raise AssertionError("a suite ran before --output was checked")

    monkeypatch.setattr(cli, "run_command", refuse)
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--output", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot write --output {path}" in err and "Traceback" not in err


def test_invalid_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_invalid_trials_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--trials", "0"])
    assert exc.value.code == 2


def test_invalid_kind_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--kind", "sedenion"])
    assert exc.value.code == 2


def test_seed_env_var_default_with_flag_override(monkeypatch):
    monkeypatch.setenv("OKUBOPLANE_SEED", "42")
    parser = build_parser()
    args = parser.parse_args(["g2"])
    assert args.seed == 42
    args = parser.parse_args(["g2", "--seed", "9"])
    assert args.seed == 9


def test_bad_seed_env_var_exits_two(monkeypatch):
    monkeypatch.setenv("OKUBOPLANE_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["g2", "--trials", "2"])
    assert exc.value.code == 2


@pytest.fixture
def counted_parsers(monkeypatch):
    """Counts every argparse parser built from now on, subparsers included,
    starting from an empty parser cache."""
    from okuboplane import cli

    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def test_main_builds_the_parser_once_per_process(counted_parsers):
    args = ["g2", "--trials", "1", "--kind", "okubo"]
    assert main(args) == 0
    first = len(counted_parsers)
    assert first > 1 and counted_parsers[0] == "okuboplane"
    assert main(args) == 0
    assert len(counted_parsers) == first


def test_seed_env_var_change_between_calls_takes_effect(counted_parsers, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr("okuboplane.cli.run_command",
                        lambda command, kind, seed, *rest: runs.append(seed) or 0)
    monkeypatch.setenv("OKUBOPLANE_SEED", "5")
    assert main(["g2"]) == 0
    monkeypatch.setenv("OKUBOPLANE_SEED", "6")
    assert main(["g2"]) == 0
    assert runs == [5, 6]
    monkeypatch.setenv("OKUBOPLANE_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["g2"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    monkeypatch.delenv("OKUBOPLANE_SEED")
    assert main(["g2"]) == 0 and runs == [5, 6, 0]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built, init = [], argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import okuboplane.cli\n"
        "assert not built, built\n"
        "okuboplane.cli.build_parser()\n"
        "assert built\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_text_format_summary_line(capsys):
    rc, out = run_cli(["g2", "--trials", "10"], capsys)
    assert rc == 0
    assert out.rstrip().endswith("reports passed")
    assert "[1 witness(es) found]" in out


def test_no_report_goes_through_float(monkeypatch):
    from okuboplane.scalar import QSqrt3

    def refuse(self):
        raise AssertionError("a report converted a scalar to float")

    monkeypatch.setattr(QSqrt3, "__float__", refuse)
    for fmt in ("json", "text"):
        assert main(["all", "--trials", "2", "--seed", "0", "--format", fmt]) == 0
    assert main(["dump-tables"]) == 0


def _failed(out):
    return {r["name"]: r["failures"] for r in json.loads(out) if r["verdict"] == "fail"}


def test_broken_join_fails_reports_instead_of_raising(monkeypatch, capsys):
    from okuboplane.plane import LINE_AT_INFINITY, Plane

    # a "line" that misses every affine point it should join
    monkeypatch.setattr(Plane, "_join", lambda self, p, q: LINE_AT_INFINITY)
    rc, out = run_cli(
        ["plane-axioms", "--kind", "okubo", "--trials", "2", "--format", "json"], capsys
    )
    assert rc == 1
    failed = _failed(out)
    for name in ("affine-axioms", "diagonal-points-not-collinear"):
        assert [f["error"] for f in failed[name]] == ["PostconditionViolation"]
        assert failed[name][0]["detail"].startswith("join of ")


def _rows(out):
    return [(r["name"], r["kind"]) for r in json.loads(out)]


def test_a_broken_sharp_fails_the_normalization_rows_instead_of_raising(monkeypatch, capsys):
    from okuboplane.plane import Plane, VeroneseVec

    rc, intact = run_cli(["all", "--trials", "2", "--format", "json"], capsys)
    assert rc == 0
    sharp = Plane.sharp

    def broken(self, v):
        # the x2 slot reads x1 o x3, not x3 o x1: normalize_veronese raises NotVeronese
        s = sharp(self, v)
        x2 = s.x2 - self.mul(v.x3, v.x1) + self.mul(v.x1, v.x3)
        return VeroneseVec(s.x1, x2, s.x3, s.l1, s.l2, s.l3)

    monkeypatch.setattr(Plane, "sharp", broken)
    rc, out = run_cli(["all", "--trials", "2", "--format", "json"], capsys)
    assert rc == 1
    assert _rows(out) == _rows(intact)  # every report is printed
    normalization = [r for r in json.loads(out) if r["name"] == "veronese-normalization"]
    assert sorted(r["kind"] for r in normalization) == ["octonion", "okubo", "para"]
    for report in normalization:
        assert [f["error"] for f in report["failures"]] == ["NotVeronese"]


def test_a_build_that_raises_fails_the_desargues_rows(monkeypatch, capsys):
    from okuboplane.plane import EqualPoints, Plane

    def broken(self, p, q):
        raise EqualPoints("the join of two distinct points saw them equal")

    monkeypatch.setattr(Plane, "join", broken)
    rc, out = run_cli(["desargues", "--trials", "2", "--format", "json"], capsys)
    assert rc == 1
    reports = json.loads(out)
    assert len(reports) == 6
    for report in reports:
        assert report["verdict"] == "fail" and report["witnesses"] == []
        assert report["failures"] == [{"error": "EqualPoints",
                                       "detail": "the join of two distinct points saw them equal"}]


def test_missing_ptr_witness_fails_report(monkeypatch, capsys):
    from okuboplane import theorems
    from okuboplane.algebra import AlgebraKind, mul

    # a ternary ring that is linear after all leaves the basis scan empty
    monkeypatch.setattr(theorems, "ptr_product", lambda s, x: mul(AlgebraKind.OCTONION, s, x))
    rc, out = run_cli(["ptr", "--kind", "okubo", "--trials", "2", "--format", "json"], capsys)
    assert rc == 1
    assert _failed(out)["ptr-nonlinearity"] == [
        {"reason": "no witness found: basis pair with theta(s, x, 0) != s.x"}
    ]


def _replay(node, readers):
    """Read every value in a witness back through its strict reader and check
    that writing it again gives the same JSON; returns how many it read."""
    if isinstance(node, list) and len(node) == 8 and all(isinstance(s, str) for s in node):
        reader = Vec8.from_json
    elif isinstance(node, dict) and node.get("t") is not None:
        reader = point_from_json if node["t"] in PjPoint._types else line_from_json
    elif isinstance(node, dict) and {"center", "axis", "a", "b", "c"} <= node.keys():
        reader = DesarguesConfig.from_json
    else:
        children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
        return sum(_replay(child, readers) for child in children)
    assert reader(node).to_json() == node
    readers.add(reader.__qualname__)
    return 1


def test_every_witness_value_replays_through_its_strict_reader(capsys):
    rc, out = run_cli(["all", "--kind", "all", "--seed", "0", "--trials", "3",
                       "--format", "json"], capsys)
    assert rc == 0
    readers = set()
    count = sum(_replay(report["witnesses"], readers) for report in json.loads(out))
    assert count >= 50
    assert readers == {"Vec8.from_json", "PjElement.from_json", "DesarguesConfig.from_json"}
