"""`--stable` output of the reference commands, byte for byte.

tests/golden/ holds the stdout and exit code each command gave when the
files were written; every change must print the same.  The bismash command
reads z2_on_z3.pair (Z_2 acting on Z_3 by inversion) from that directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fsind.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "family_hn3_9_1_1": ["family", "hn3:9:1:1", "--n", "all-divisors", "--check"],
    "family_h2n2_12_1": ["family", "h2n2:12:1", "--n", "all-divisors"],
    "frobenius_h2n2_20_1": ["frobenius", "--family", "h2n2:20:1"],
    "frobenius_suzukiP_4_3_1": ["frobenius", "--family", "suzukiP:4:3:1"],
    "gt_cyclic_400_psi_1": ["gt", "--group", "cyclic:400", "--cocycle", "psi:1", "--n", "400"],
    "frobenius_cyclic_5_psi_1": ["frobenius", "--group", "cyclic:5", "--cocycle", "psi:1"],
    "family_bismash_z2_on_z3": ["family", "bismash:z2_on_z3.pair", "--n", "all-divisors", "--check"],
    "table27": ["table27"],
}
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_stable_output_is_unchanged(case, monkeypatch, capsys):
    name, fmt = case.rsplit(".", 1)
    monkeypatch.chdir(GOLDEN)
    code = main(COMMANDS[name] + ["--stable", "--format", fmt])
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / case).read_bytes()
    assert code == EXIT_CODES[case]


def test_every_command_has_its_files():
    assert {case.rsplit(".", 1)[0] for case in EXIT_CODES} == set(COMMANDS)
    assert len(EXIT_CODES) == 2 * len(COMMANDS) + 1  # text and json, and table27 as csv
