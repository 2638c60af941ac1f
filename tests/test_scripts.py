"""The scripts under scripts/ run in-process and report success, and the
sweep reports failure when an engine or a family's divisibility is wrong."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name, monkeypatch):
    path = SCRIPTS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path)])
    return module


@pytest.mark.parametrize("name", ["sweep"])
def test_main_returns_zero(name, monkeypatch):
    assert load(name, monkeypatch).main() == 0


def test_sweep_names_a_wrong_closed_form(monkeypatch, capsys):
    sweep = load("sweep", monkeypatch)
    fam = sweep.FAMILIES["h2n2"]

    def off_by_one(big_n, xi, n):
        value = fam.closed(big_n, xi, n)
        return value + 1 if (big_n, xi, n) == (3, 1, 2) else value

    monkeypatch.setitem(sweep.FAMILIES, "h2n2", dataclasses.replace(fam, closed=off_by_one))
    assert sweep.main() == 1
    out = capsys.readouterr().out
    assert "MISMATCH [(2, 'closed', '5', '4', '4')]" in out
    assert "552 comparisons, 1 mismatches" in out


def test_sweep_fails_on_a_family_that_fails_divisibility(monkeypatch, capsys):
    sweep = load("sweep", monkeypatch)
    check = sweep.frobenius_check

    def flipped(cat):
        report = check(cat)
        if cat.label == "H_18(xi^1)":
            report.entries[-1].divisible_by_n = False
        return report

    monkeypatch.setattr(sweep, "frobenius_check", flipped)
    assert sweep.main() == 1
    out = capsys.readouterr().out
    assert "H_18(xi^1)                   order=18   n-values=6   ok c(omega)=1   FAIL at n=[18]" in out
    assert "552 comparisons, 0 mismatches" in out
