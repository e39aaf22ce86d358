"""The release gate: one test per acceptance criterion, each printed as a
pass/fail line with its measured detail."""

import pytest

from seqop import acceptance, homology
from seqop.acceptance import CRITERIA


@pytest.mark.parametrize("name", sorted(CRITERIA))
def test_criterion(name, capsys):
    result = CRITERIA[name]()
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n{status} {result.name} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


# A1 checks d o d through the validation the homology engine runs, so the
# faults are planted in the boundary that engine assembles its matrices from.
def test_a1_catches_one_flipped_sign(monkeypatch):
    real = homology.boundary_terms

    def flipped(entries):
        terms = real(entries)
        if entries == (1, 2, 1):
            (sign, sub), *rest = terms
            terms = [(-sign, sub)] + rest
        return terms

    monkeypatch.setattr(homology, "boundary_terms", flipped)
    result = acceptance.criterion_a1()
    assert not result.passed
    assert result.detail == "arity 2: d o d != 0 between degrees 2 and 0"


def test_a1_fails_without_raising_on_a_term_outside_the_table(monkeypatch):
    real = homology.boundary_terms

    def escaping(entries):
        terms = real(entries)
        if entries == (1, 2, 1, 2):
            terms = terms + [(1, (2, 1, 2, 1, 2))]
        return terms

    monkeypatch.setattr(homology, "boundary_terms", escaping)
    result = acceptance.criterion_a1()
    assert not result.passed
    assert result.detail == "arity 2: boundary of <1212> leaves the basis at <21212>"


def test_a10_catches_a_wrong_stage(monkeypatch):
    real = acceptance.build_word_complex

    def one_stage_up(arity, max_degree, max_complexity=None):
        return real(arity, max_degree, max_complexity + 1)

    monkeypatch.setattr(acceptance, "build_word_complex", one_stage_up)
    result = acceptance.criterion_a10()
    assert not result.passed
    assert result.detail == "arity 3 stage 2 Betti [1, 0, 3, 0, 2, 0], want [1, 3, 2]"
