"""The release gate: one test per acceptance criterion, each printed as a
pass/fail line with its measured detail."""

import pytest

from seqop import acceptance
from seqop.acceptance import CRITERIA


@pytest.mark.parametrize("name", sorted(CRITERIA))
def test_criterion(name, capsys):
    result = CRITERIA[name]()
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n{status} {result.name} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_a1_catches_one_flipped_sign(monkeypatch):
    real = acceptance.boundary_terms

    def flipped(entries):
        terms = real(entries)
        if entries == (1, 2, 1):
            (sign, sub), *rest = terms
            terms = [(-sign, sub)] + rest
        return terms

    monkeypatch.setattr(acceptance, "boundary_terms", flipped)
    result = acceptance.criterion_a1()
    assert not result.passed
    assert "d o d != 0" in result.detail


def test_a1_fails_without_raising_on_a_term_outside_the_table(monkeypatch):
    real = acceptance.boundary_terms

    def escaping(entries):
        terms = real(entries)
        if entries == (1, 2, 1, 2):
            terms = terms + [(1, (2, 1, 2, 1, 2))]
        return terms

    monkeypatch.setattr(acceptance, "boundary_terms", escaping)
    result = acceptance.criterion_a1()
    assert not result.passed
    assert "is not a basis word" in result.detail
