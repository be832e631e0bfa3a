"""Acceptance suite: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (same criteria and lines as `shoreline check`)."""

import math

import pytest

from shoreline import golden
from shoreline.checks import CRITERIA, Gate, run_criterion
from shoreline.numerics import NumericalError


@pytest.mark.parametrize("cid,name,fn", CRITERIA, ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(cid, name, fn, capsys):
    result = run_criterion(cid, name, fn)
    with capsys.disabled():
        print(f"\n{result.line}")
    assert result.passed, result.line


def test_failed_gate_is_named(monkeypatch):
    # one broken reference fails its criterion and names exactly its gate
    monkeypatch.setattr(golden, "MINMAX_KAPPA_REF", golden.MINMAX_KAPPA_REF + 1e-9)
    result = run_criterion(*CRITERIA[0])
    assert not result.passed
    assert result.detail.count("FAILED") == 1 and "; FAILED kappa-ref: " in result.detail


def test_raising_criterion_is_a_failed_result():
    def crashes():
        raise NumericalError("no sign change")

    result = run_criterion(99, "crashes", crashes)
    assert not result.passed
    assert result.detail == "raised NumericalError: no sign change"


def test_gate_bounds_are_closed_and_nan_fails():
    assert Gate("at-bound", 1.0, 0.5, -0.5, 0.5).holds
    assert not Gate("past-bound", 1.0, 0.5, -0.5, 0.25).holds
    assert not Gate("nan", math.nan, hi=1.0).holds
