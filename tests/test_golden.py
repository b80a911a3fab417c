"""Byte-identity of the reports and tables: pinned digests of `okuboplane all`
and of `okuboplane dump-tables`.

Each run is `all --kind K --seed 0 --trials 3 --format json`.  The reports are
split into suites by their pinned counts, `elapsed_ms` is stripped, and each
suite's reports are digested (SHA-256 of compact, key-sorted JSON), so a
mismatch names the suite whose bytes changed.  A refactor that keeps these
digests keeps every report byte-identical apart from the timings.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import okuboplane
from okuboplane.cli import main

# SHA-256 of the `dump-tables` stdout: structure tables, Gram matrix and the
# trivolution data, byte for byte
DUMP_TABLES = "bae946ae6b1857cd5c7aa546ff11a909127d7a61e4b120b54d8f0f74c3bcb5de"

# kind -> [(suite, report count, digest)], in the order `all` runs the suites.
GOLDEN = {
    "all": [
        ("identities", 29, "e3197e0496278d71ffddcc4d6f164888bcbdcf1d30bb7e56a7d57f4eb3ade34c"),
        ("plane-axioms", 12, "ec2c5505cee4b96914c1e69132455b1124f841e707981ee96535080c3ca0a14c"),
        ("veronese", 9, "ea5e9db3cde80c11c3434c5b850fbb81cbfc810c3ae7552f1fb98e42e9d80977"),
        ("collineations", 24, "0aecead44a8b39c5a164ebc58603b33e118c29ed590cfac0198d8efd5648d298"),
        ("isometry", 7, "be8450b99c85b515dd0fa66ebb80d69516f79a816e8ba7516b726c9ded14108b"),
        ("desargues", 6, "d49f1106cda43f6a84b9cace5647016130c5f3096f48b81dc16b50abf6eb6d76"),
        ("ptr", 4, "d9e38bf486980842f4985a67a8e0c1f97d7b4bd600ccae033fa26caf085f90b1"),
        ("g2", 3, "96e8bf24ee7818dcb2b40c3f140d333162c690e089a672e168f0cd51fed8d66d"),
    ],
    "okubo": [
        ("identities", 14, "c798a7e97951c9facd68ecf1436be5482e3ea5a8a87b9daa78f9299bb897fe85"),
        ("plane-axioms", 4, "b2f8cd810684d75998ffcb64a4e650bc3c7b83a2144c51feb5cc6ef25a0b26cb"),
        ("veronese", 3, "58e9330047d289d5e34cc7464d2c1acc361ec15a29b50ebca8ee4e7bb16ba915"),
        ("collineations", 12, "17599c556bc199c1dd503493dddd0e0889db6fa092cfadee9a21b50b70d30ef4"),
        ("isometry", 3, "204d6f73ebd7fa941c5888aa9f41eadeea0d52866ef61cace8556027628a1646"),
        ("desargues", 2, "edc721eb8213a41729b29cff3192ff2f8d1838a8e606c5d6c1d2c953f952cd4b"),
        ("ptr", 3, "4e8c5c395d60c7fffece127949087255e206329782b8fc0179f27ec7729ceccb"),
        ("g2", 3, "96e8bf24ee7818dcb2b40c3f140d333162c690e089a672e168f0cd51fed8d66d"),
    ],
    "para": [
        ("identities", 8, "9a1b1adf2c3e8b70d29c5cd2c39ac9914d7dcbad25fa10a41c0896a91b6cab0c"),
        ("plane-axioms", 4, "e1add17b9bb3bd9e08623cf0d4d6041bbfe639969b3cb39a378e9991c109a94d"),
        ("veronese", 3, "f077067f990bd83e4d64be66a65be27febd9eda39f22e79ad3d9eae44dc58ae3"),
        ("collineations", 6, "53256958f9290f0965aceb64fbe5cfc5f09818953077edf36296b7ead65012e1"),
        ("isometry", 2, "50c10f08f3e9f8c0e259a7bf9915019ca4f7fd1d5e084ad67cac32f5b7b0e8d6"),
        ("desargues", 2, "e65de05bcd3f87513b78ed86c5536a8ea6ddf19363dccacee6166278ce393707"),
        ("ptr", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        ("g2", 3, "96e8bf24ee7818dcb2b40c3f140d333162c690e089a672e168f0cd51fed8d66d"),
    ],
    "octonion": [
        ("identities", 7, "0d6c4ead8c88c406ed5e06379520deadc34e00b3d9160b5500909b5278cf281a"),
        ("plane-axioms", 4, "1be61c6e6bf2031632f0c7651953bc4dc68df94a7e03bfc12a6c3357b19cf60e"),
        ("veronese", 3, "7774f3d58b60fe5ce5b987f7fe61fbc573d78b811b0fbc9acf1b583eadc3e6d5"),
        ("collineations", 6, "86eed1453740a7081156b56b8bd5bbbf86692b95d0372d8e879768f4e88ed9d8"),
        ("isometry", 2, "60d202e9c8e619fb60a18d05eab23e44179a7c7913d987b52c2af4a8135afcc0"),
        ("desargues", 2, "8fd188ea56783cc5ebe6e53ce664f687eae55896d7fde1f3eefcd4ecb60fcb6b"),
        ("ptr", 1, "c5986dfa8c6a5fca610f58cf5d2903591353be4e8411a73874113057ffc1b9ff"),
        ("g2", 3, "96e8bf24ee7818dcb2b40c3f140d333162c690e089a672e168f0cd51fed8d66d"),
    ],
}


def _digest(reports):
    stripped = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _all_args(kind, out):
    return ["all", "--kind", kind, "--seed", "0", "--trials", "3",
            "--format", "json", "--output", str(out)]


def _check_suites(kind, reports):
    start = 0
    for suite, count, digest in GOLDEN[kind]:
        assert _digest(reports[start:start + count]) == digest, f"suite {suite} changed"
        start += count
    assert start == len(reports)


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_all_reports_match_pinned_digests(kind, tmp_path):
    out = tmp_path / "all.json"
    main(_all_args(kind, out))
    _check_suites(kind, json.loads(out.read_text()))


def test_reports_match_pinned_digests_under_python_O(tmp_path):
    # asserts are stripped under -O; the postconditions and reports must not change
    out = tmp_path / "all.json"
    code = ("import sys\nfrom okuboplane.cli import main\n"
            f"sys.exit(main({_all_args('all', out)!r}) if sys.flags.optimize else 3)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(okuboplane.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    _check_suites("all", json.loads(out.read_text()))


def test_dump_tables_match_pinned_digest(capsys):
    assert main(["dump-tables"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DUMP_TABLES
