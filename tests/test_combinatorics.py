import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqop.combinatorics import (
    DEGENERATE,
    CompositionDiagram,
    InvalidEntryError,
    OverlappingPartition,
    Surjection,
    boundary_terms,
    complexity,
    enumerate_basis,
    enumerate_diagrams,
    enumerate_partitions,
    epsilon_parity,
    epsilon_sign,
    koszul_parity,
    perm_compose,
    perm_inverse,
    restrict,
    tau,
    validate,
    zeta_parity,
    zeta_sign,
)


# a hypothesis strategy for small surjective words
def words(max_arity=4, max_len=7):
    def build(draw):
        k = draw(st.integers(1, max_arity))
        m = draw(st.integers(k, max_len))
        entries = list(range(1, k + 1)) + [draw(st.integers(1, k)) for _ in range(m - k)]
        perm = draw(st.permutations(entries))
        return tuple(perm), k

    return st.composite(build)()


class TestValidate:
    def test_valid_word(self):
        f = validate((1, 2, 1, 2), 2)
        assert isinstance(f, Surjection)
        assert f.degree == 2

    def test_adjacent_equal_is_degenerate(self):
        assert validate((1, 1, 2), 2) is DEGENERATE

    def test_not_surjective_is_degenerate(self):
        assert validate((1, 1), 2) is DEGENERATE

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidEntryError):
            validate((1, 3), 2)
        with pytest.raises(InvalidEntryError):
            Surjection(2, (0, 1))

    def test_empty_word_arity_zero(self):
        assert validate((), 0) == Surjection(0, ())


class TestTau:
    def test_worked_example(self):
        assert tau((1, 2, 3, 1, 2)) == (1, 3, 5, 2, 4)

    def test_identity_pattern(self):
        for k in range(1, 6):
            assert tau(tuple(range(1, k + 1))) == tuple(range(1, k + 1))

    def test_two_letter_swap(self):
        assert tau((2, 1)) == (2, 1)

    @settings(max_examples=200)
    @given(words())
    def test_is_permutation_and_fiber_monotone(self, fk):
        entries, k = fk
        t = tau(entries)
        assert sorted(t) == list(range(1, len(entries) + 1))
        for i in range(1, k + 1):
            fiber = [t[j] for j, u in enumerate(entries) if u == i]
            assert fiber == sorted(fiber)


class TestRestrict:
    def test_boundary_face(self):
        assert restrict((1, 2, 3, 1, 2), {2, 3, 4, 5}) == (2, 3, 1, 2)

    def test_deleting_a_value_loses_surjectivity(self):
        sub = restrict((1, 2, 3, 1, 2), {1, 2, 4, 5})
        assert sub == (1, 2, 1, 2)
        assert validate(sub, 3) is DEGENERATE

    def test_full_restriction(self):
        assert restrict((1, 2, 1), range(1, 4)) == (1, 2, 1)


class TestComplexity:
    def test_two_values(self):
        assert complexity((1, 2), 2) == 1

    @pytest.mark.parametrize("i", range(0, 5))
    def test_alternating_words(self, i):
        word = tuple(1 if j % 2 == 0 else 2 for j in range(i + 2))
        assert complexity(word, 2) == i + 1

    def test_single_value(self):
        assert complexity((1,), 1) == 0
        assert complexity((), 0) == 0

    @settings(max_examples=150)
    @given(words(), st.data())
    def test_restriction_cannot_raise_complexity(self, fk, data):
        entries, k = fk
        positions = data.draw(
            st.sets(st.integers(1, len(entries)), min_size=1, max_size=len(entries))
        )
        sub = restrict(entries, positions)
        assert complexity(sub, k) <= complexity(entries, k)

    @settings(max_examples=150)
    @given(words(), st.data())
    def test_surjective_reparametrization_preserves_complexity(self, fk, data):
        # blow up positions: an order-preserving surjection onto the word
        entries, k = fk
        reps = data.draw(
            st.lists(st.integers(1, 3), min_size=len(entries), max_size=len(entries))
        )
        blown = tuple(u for u, r in zip(entries, reps) for _ in range(r))
        assert complexity(blown, k) == complexity(entries, k)


class TestEnumerateBasis:
    def test_degree_zero_is_permutations(self):
        assert [f.entries for f in enumerate_basis(2, 0)] == [(1, 2), (2, 1)]
        assert len(enumerate_basis(3, 0)) == 6

    def test_filtered_degree_one(self):
        assert [f.entries for f in enumerate_basis(2, 1, max_complexity=2)] == [
            (1, 2, 1),
            (2, 1, 2),
        ]

    def test_arity_zero(self):
        assert enumerate_basis(0, 0) == [Surjection(0, ())]
        assert enumerate_basis(0, 1) == []

    def test_lexicographic_and_nondegenerate(self):
        basis = enumerate_basis(3, 2)
        entries = [f.entries for f in basis]
        assert entries == sorted(entries)
        assert all(a != b for f in basis for a, b in zip(f.entries, f.entries[1:]))


class TestPartitions:
    def test_two_pieces_of_an_edge(self):
        pieces = [p.pieces for p in enumerate_partitions((0, 1), 2)]
        assert pieces == [((0,), (0, 1)), ((0, 1), (1,))]

    def test_worked_partition_is_enumerated(self):
        target = ((0, 1, 2), (2, 3), (3,), (3, 4, 5))
        assert target in [p.pieces for p in enumerate_partitions(range(6), 4)]

    def test_singleton_ground(self):
        assert len(enumerate_partitions((0,), 1)) == 1

    def test_zero_pieces_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions((0, 1), 0)

    @pytest.mark.parametrize("size,m", [(1, 1), (2, 3), (4, 2), (5, 4), (3, 5)])
    def test_count_and_roundtrip(self, size, m):
        parts = enumerate_partitions(range(size), m)
        assert len(parts) == comb(size + m - 2, m - 1)
        for p in parts:
            again = OverlappingPartition.from_overlap_points(p.ground, p.overlap_points)
            assert again == p

    def test_invalid_pieces_rejected(self):
        with pytest.raises(ValueError):
            OverlappingPartition((0, 1, 2), ((0, 1), (2,)))  # no shared point
        with pytest.raises(ValueError):
            OverlappingPartition((0, 1), ((0, 1), (0, 1)))  # two shared points


class TestSigns:
    def test_epsilon_increasing_word(self):
        for p in enumerate_partitions(range(4), 2):
            assert epsilon_sign((1, 2), p) == 1

    def test_epsilon_swap(self):
        for p in enumerate_partitions(range(4), 2):
            norms = (len(p.pieces[0]) - 1) * (len(p.pieces[1]) - 1)
            assert epsilon_sign((2, 1), p) == (-1) ** norms

    def test_epsilon_worked_example(self):
        p = OverlappingPartition((0, 1), ((0,), (0, 1), (1,)))
        assert epsilon_sign((1, 2, 1), p) == -1

    def test_epsilon_piece_mismatch(self):
        with pytest.raises(ValueError):
            epsilon_parity((1, 2), (1, 1, 1))

    def test_zeta_identity(self):
        assert zeta_sign((1, 2, 1, 2), 2, (1, 2)) == 1

    def test_zeta_singleton_fibers(self):
        assert zeta_sign((1, 2), 2, (2, 1)) == 1

    def test_zeta_alternating(self):
        assert zeta_sign((1, 2, 1, 2), 2, (2, 1)) == -1

    def test_zeta_is_koszul_on_fiber_norms(self):
        for k in (1, 2, 3):
            for d in range(5):
                for f in enumerate_basis(k, d):
                    norms = [len(f.fiber(i)) - 1 for i in range(1, k + 1)]
                    for rho in itertools.permutations(range(1, k + 1)):
                        # reference: the value-pair formula, inversions of rho^-1
                        rinv = perm_inverse(rho)
                        pairs = sum(
                            norms[i - 1] * norms[i2 - 1]
                            for i, i2 in itertools.combinations(range(1, k + 1), 2)
                            if rinv[i - 1] > rinv[i2 - 1]
                        )
                        assert koszul_parity(rho, norms) == zeta_parity(f.entries, k, rho) == pairs % 2

    def test_perm_helpers(self):
        rho = (3, 1, 2)
        assert perm_compose(rho, perm_inverse(rho)) == (1, 2, 3)
        assert perm_compose(perm_inverse(rho), rho) == (1, 2, 3)


class TestDiagrams:
    def test_single_diagram_example(self):
        f = Surjection(2, (1, 2))
        diagrams = enumerate_diagrams(f, (2, 1))
        assert len(diagrams) == 1
        d = diagrams[0]
        assert d.composite_entries([(1, 2), (1,)], [2, 1]) == (1, 2, 3)
        assert d.eta_parity([(1, 2), (1,)], [2, 1]) == 0

    def test_unit_slot(self):
        f = Surjection(1, (1,))
        for m in (1, 2, 3):
            diagrams = enumerate_diagrams(f, (m,))
            assert len(diagrams) == 1
            word = tuple(1 if j % 2 == 0 else 2 for j in range(m))
            entries = d_entries = diagrams[0].composite_entries([word], [max(word)])
            assert entries == word

    def test_one_piece_per_fiber(self):
        f = Surjection(2, (1, 2, 1))
        assert len(enumerate_diagrams(f, (1, 1))) == 1

    def test_zero_inner_size_means_no_diagrams(self):
        f = Surjection(2, (1, 2))
        assert enumerate_diagrams(f, (0, 1)) == []

    def test_diagram_count_is_product_of_partition_counts(self):
        f = Surjection(2, (1, 2, 1, 2))
        m1, m2 = 2, 3
        expect = comb(2 + m1 - 2, m1 - 1) * comb(2 + m2 - 2, m2 - 1)
        assert len(enumerate_diagrams(f, (m1, m2))) == expect

    def test_special_adjacency_dichotomy(self):
        # within each color, consecutive domain elements move under exactly
        # one of the two legs
        f = Surjection(3, (1, 2, 3, 1, 2))
        for d in enumerate_diagrams(f, (2, 1, 2)):
            assert d.a == tuple(sorted(d.a))
            for i in range(1, 4):
                part = [
                    (d.a[l], d.b[l][1]) for l in range(d.domain_size) if d.b[l][0] == i
                ]
                for (a1, r1), (a2, r2) in zip(part, part[1:]):
                    assert (a1 < a2) != (r1 < r2)


class TestBoundaryTerms:
    def test_skips_zeros(self):
        assert boundary_terms((1, 2), 2) == []

    def test_matches_worked_display(self):
        terms = dict()
        for sign, sub in boundary_terms((1, 2, 3, 1, 2), 3):
            terms[sub] = sign
        assert terms == {
            (2, 3, 1, 2): 1,
            (1, 3, 1, 2): -1,
            (1, 2, 3, 2): -1,
            (1, 2, 3, 1): 1,
        }
