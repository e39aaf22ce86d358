import itertools
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqop import operad
from seqop.combinatorics import (
    InputError,
    InvalidEntryError,
    Surjection,
    boundary_terms,
    complexity,
    composition_terms,
    enumerate_basis,
    epsilon_parity,
    koszul_parity,
    pair_runs,
    partition_size_compositions,
    perm_inverse,
    tau,
    validate,
    word_bases,
    zeta_parity,
)
from seqop.hochschild import HochschildCochain, upper_triangular
from seqop.operad import ArityMismatchError, OperadElement
from seqop.simplicial import Cochain, ComplexMismatchError, TensorChain, standard_simplex


def restrict(entries, positions):
    """The subword at the given 1-indexed positions, in increasing order."""
    return tuple(entries[j - 1] for j in sorted(positions))


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
        assert validate((1, 1, 2), 2) is None

    def test_not_surjective_is_degenerate(self):
        assert validate((1, 1), 2) is None

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
        assert validate(sub, 3) is None

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


# The per-pair restriction count and the enumerate-then-filter stage cut that
# pair_runs and the pruned enumeration replaced, kept as the reference they
# must agree with.
def reference_pair_runs(entries, k):
    out = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        sub = restrict(entries, [p + 1 for p, u in enumerate(entries) if u in (i, j)])
        out.append(sum(1 for a, b in zip((0,) + sub, sub) if a != b))
    return out


def reference_complexity(entries, k):
    return max((runs - 1 for runs in reference_pair_runs(entries, k)), default=0) if entries else 0


class TestPairRuns:
    @settings(max_examples=300)
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.lists(st.integers(1, k), max_size=9), st.just(k))))
    def test_matches_restriction_count(self, wk):
        # any sequence: degenerate, non-surjective or empty words included
        entries, k = tuple(wk[0]), wk[1]
        assert pair_runs(entries, k) == reference_pair_runs(entries, k)
        assert complexity(entries, k) == reference_complexity(entries, k)


class TestPrunedEnumeration:
    @pytest.mark.parametrize("k", range(6))
    def test_matches_enumerate_then_filter(self, k):
        top = 4 if k < 5 else 2
        walks = {n: word_bases(k, top, max_complexity=n) for n in (None, 0, 1, 2, 3, 4)}
        for d in range(top + 1):
            full = enumerate_basis(k, d)
            assert walks[None][d] == full, (k, d)
            stages = [reference_complexity(f.entries, k) for f in full]
            for n in range(5):
                want = [f.entries for f, c in zip(full, stages) if c <= n]
                assert [f.entries for f in enumerate_basis(k, d, max_complexity=n)] == want, (k, d, n)
                assert [f.entries for f in walks[n][d]] == want, (k, d, n)
        assert all(list(walk) == list(range(top + 1)) for walk in walks.values())

    def test_per_pair_caps_match_filter(self):
        for caps in itertools.product((1, 2, 3, 4), repeat=3):
            walk = word_bases(3, 3, run_caps=caps)
            for d in range(4):
                want = [f.entries for f in enumerate_basis(3, d) if all(r <= c for r, c in zip(pair_runs(f.entries, 3), caps))]
                assert [f.entries for f in walk[d]] == want

    @pytest.mark.parametrize("k,n", [(0, 0), (1, 2), (2, 1), (2, 3), (3, 2), (4, 2), (3, 4)])
    def test_stage_runs_to_its_first_empty_degree(self, k, n):
        bases = word_bases(k, None, max_complexity=n)
        top = max(bases)
        assert list(bases) == list(range(top + 1))
        assert bases[top] == [] and all(bases[d] for d in range(top))
        for d in range(top + 2):
            assert bases.get(d, []) == enumerate_basis(k, d, max_complexity=n), d

    def test_no_top_degree_needs_a_cut(self):
        with pytest.raises(ValueError):
            word_bases(2)
        with pytest.raises(ValueError):
            word_bases(2, -1, max_complexity=2)

    def test_negative_stage_is_empty(self):
        # every word has complexity >= 0, even in arities without pairs
        for k in (0, 1, 2, 3):
            assert enumerate_basis(k, 0, -1) == []
            assert word_bases(k, None, -1) == {0: []}

    def test_bad_caps_raise(self):
        with pytest.raises(ValueError):
            word_bases(3, 1, run_caps=(2, 2))
        with pytest.raises(ValueError):
            word_bases(2, 1, 2, run_caps=(3,))
        with pytest.raises(ValueError):  # no cap below 0 is met, yet the walk let words through
            word_bases(3, 0, run_caps=(-1, 5, 5))


# The object-based enumeration that partition_size_compositions and
# composition_terms replaced, kept as the reference they must agree with:
# partitions as tuples of pieces cut at weakly increasing overlap points,
# diagrams as sorted incidences (outer position, value, inner position).
def reference_partitions(ground, num_pieces):
    ground = tuple(ground)
    index = {t: i for i, t in enumerate(ground)}
    out = []
    for points in itertools.combinations_with_replacement(ground, num_pieces - 1):
        cuts = [0] + [index[t] for t in points] + [len(ground) - 1]
        out.append(tuple(ground[a : b + 1] for a, b in zip(cuts, cuts[1:])))
    return out


def is_overlapping_partition(ground, pieces):
    """The checks the deleted partition class made on construction."""
    if not pieces or list(ground) != sorted(set(ground)) or not all(pieces):
        return False
    for piece, following in zip(pieces, pieces[1:]):
        if len(set(piece) & set(following)) != 1 or piece[-1] != following[0]:
            return False
    cover = [t for piece in pieces for t in piece]
    return sorted(set(cover)) == list(ground) and cover == sorted(cover)


def cut_by_sizes(ground, sizes):
    pieces = []
    start = 0
    for size in sizes:
        pieces.append(tuple(ground[start : start + size]))
        start += size - 1
    return tuple(pieces)


def reference_diagrams(outer, inner):
    """(parity, composite entries, a, b) for each diagram, in enumeration order."""
    k = outer.arity
    if any(not g.entries for g in inner):
        return []
    per_value = [reference_partitions(outer.fiber(i), len(inner[i - 1].entries)) for i in range(1, k + 1)]
    offsets = list(itertools.accumulate([0] + [g.arity for g in inner[:-1]]))
    fiber_norms = [len(outer.fiber(i)) - 1 for i in range(1, k + 1)]
    out = []
    for choice in itertools.product(*per_value):
        incidences = sorted(
            (j, i, r)
            for i, partition in enumerate(choice, start=1)
            for r, piece in enumerate(partition, start=1)
            for j in piece
        )
        a = tuple(j for j, _, _ in incidences)
        b = tuple((i, r) for _, i, r in incidences)
        entries = tuple(offsets[i - 1] + inner[i - 1].entries[r - 1] for i, r in b)
        parity = 0
        for i in range(k):
            parity += inner[i].degree * sum(fiber_norms[i + 1 :])
            parity += epsilon_parity(inner[i].entries, [len(piece) for piece in choice[i]])
        out.append((parity % 2, entries, a, b))
    return out


def reference_compose(e, inner):
    out_arity = sum(g.arity for g in inner)
    acc = {}
    for f, cf in e.terms().items():
        for combo in itertools.product(*[list(g.terms().items()) for g in inner]):
            coeff = cf
            for _, c in combo:
                coeff *= c
            for parity, entries, _, _ in reference_diagrams(f, [g for g, _ in combo]):
                h = validate(entries, out_arity)
                if h is not None:
                    acc[h] = acc.get(h, 0) + (-coeff if parity else coeff)
    return operad.OperadElement(out_arity, e.degree + sum(g.degree for g in inner), acc)


class TestPartitions:
    def test_two_pieces_of_an_edge(self):
        assert list(partition_size_compositions(2, 2)) == [(1, 2), (2, 1)]

    def test_worked_partition_is_enumerated(self):
        target = ((0, 1, 2), (2, 3), (3,), (3, 4, 5))
        sizes = list(partition_size_compositions(6, 4))
        assert (3, 2, 1, 3) in sizes
        assert sizes.index((3, 2, 1, 3)) == reference_partitions(range(6), 4).index(target)
        assert cut_by_sizes(range(6), (3, 2, 1, 3)) == target

    def test_singleton_ground(self):
        assert list(partition_size_compositions(1, 1)) == [(1,)]

    def test_zero_pieces_rejected(self):
        with pytest.raises(ValueError):
            list(partition_size_compositions(2, 0))

    @pytest.mark.parametrize("size,m", [(1, 1), (2, 3), (4, 2), (5, 4), (3, 5)])
    def test_count_and_roundtrip(self, size, m):
        all_sizes = list(partition_size_compositions(size, m))
        assert len(all_sizes) == comb(size + m - 2, m - 1)
        for sizes in all_sizes:
            assert len(sizes) == m and min(sizes) >= 1
            assert sum(sizes) == size + m - 1
        # same order as the overlap-point enumeration, and cutting by the
        # sizes gives back its pieces
        reference = reference_partitions(range(size), m)
        assert all_sizes == [tuple(len(piece) for piece in pieces) for pieces in reference]
        assert [cut_by_sizes(range(size), sizes) for sizes in all_sizes] == reference

    def test_sizes_cut_valid_partitions(self):
        assert not is_overlapping_partition((0, 1, 2), ((0, 1), (2,)))  # no shared point
        assert not is_overlapping_partition((0, 1), ((0, 1), (0, 1)))  # two shared points
        for size, m in itertools.product(range(1, 7), range(1, 6)):
            for sizes in partition_size_compositions(size, m):
                assert is_overlapping_partition(tuple(range(size)), cut_by_sizes(range(size), sizes))


class TestSigns:
    def test_epsilon_increasing_word(self):
        for sizes in partition_size_compositions(4, 2):
            assert (-1) ** epsilon_parity((1, 2), sizes) == 1

    def test_epsilon_swap(self):
        for sizes in partition_size_compositions(4, 2):
            norms = (sizes[0] - 1) * (sizes[1] - 1)
            assert (-1) ** epsilon_parity((2, 1), sizes) == (-1) ** norms

    def test_epsilon_worked_example(self):
        assert (-1) ** epsilon_parity((1, 2, 1), (1, 2, 1)) == -1

    def test_epsilon_piece_mismatch(self):
        with pytest.raises(ValueError):
            epsilon_parity((1, 2), (1, 1, 1))

    def test_zeta_identity(self):
        assert (-1) ** zeta_parity((1, 2, 1, 2), 2, (1, 2)) == 1

    def test_zeta_singleton_fibers(self):
        assert (-1) ** zeta_parity((1, 2), 2, (2, 1)) == 1

    def test_zeta_alternating(self):
        assert (-1) ** zeta_parity((1, 2, 1, 2), 2, (2, 1)) == -1

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
        for rho in itertools.permutations((1, 2, 3)):
            rinv = perm_inverse(rho)
            assert tuple(rho[s - 1] for s in rinv) == tuple(rinv[s - 1] for s in rho) == (1, 2, 3)


class TestDiagrams:
    def test_single_diagram_example(self):
        f = Surjection(2, (1, 2))
        terms = list(composition_terms(f, [Surjection(2, (1, 2)), Surjection(1, (1,))]))
        assert terms == [(0, (1, 2, 3))]

    def test_unit_slot(self):
        f = Surjection(1, (1,))
        for m in (1, 2, 3):
            word = tuple(1 if j % 2 == 0 else 2 for j in range(m))
            assert list(composition_terms(f, [Surjection(max(word), word)])) == [(0, word)]

    def test_one_piece_per_fiber(self):
        f = Surjection(2, (1, 2, 1))
        unit = Surjection(1, (1,))
        assert len(list(composition_terms(f, [unit, unit]))) == 1

    def test_zero_inner_size_means_no_diagrams(self):
        f = Surjection(2, (1, 2))
        assert list(composition_terms(f, [Surjection(0, ()), Surjection(1, (1,))])) == []

    def test_diagram_count_is_product_of_partition_counts(self):
        f = Surjection(2, (1, 2, 1, 2))
        m1, m2 = 2, 3
        expect = comb(2 + m1 - 2, m1 - 1) * comb(2 + m2 - 2, m2 - 1)
        assert len(list(composition_terms(f, [Surjection(2, (1, 2)), Surjection(2, (1, 2, 1))]))) == expect

    def test_special_adjacency_dichotomy(self):
        # within each color, consecutive domain elements move under exactly
        # one of the two legs (checked on the reference diagrams, which
        # test_matches_reference_item_for_item ties to composition_terms)
        f = Surjection(3, (1, 2, 3, 1, 2))
        inner = [Surjection(2, (1, 2)), Surjection(1, (1,)), Surjection(2, (2, 1))]
        diagrams = reference_diagrams(f, inner)
        assert [(p, w) for p, w, _, _ in diagrams] == list(composition_terms(f, inner))
        for _, _, a, b in diagrams:
            assert a == tuple(sorted(a))
            for i in range(1, 4):
                part = [(a[l], b[l][1]) for l in range(len(a)) if b[l][0] == i]
                for (a1, r1), (a2, r2) in zip(part, part[1:]):
                    assert (a1 < a2) != (r1 < r2)

    def test_matches_reference_item_for_item(self):
        # every outer word of arity 1-3, degree <= 2 and length <= 4 against
        # every inner word of arity 0-2 and degree <= 1
        inner_words = [g for k in range(3) for d in range(2) for g in enumerate_basis(k, d)]
        checked = 0
        for k, d in itertools.product((1, 2, 3), (0, 1, 2)):
            for f in enumerate_basis(k, d):
                if f.length > 4:
                    continue
                for combo in itertools.product(inner_words, repeat=k):
                    reference = [(p, w) for p, w, _, _ in reference_diagrams(f, combo)]
                    assert list(composition_terms(f, combo)) == reference
                    e = operad.OperadElement(k, d, {f: 2})
                    inner = [operad.OperadElement(g.arity, g.degree, {g: -1}) for g in combo]
                    got, want = operad.compose(e, inner), reference_compose(e, inner)
                    assert list(got.terms().items()) == list(want.terms().items())
                    checked += 1
        assert checked == 5406
        # sums of words on both sides
        e = operad.OperadElement.basis((1, 2, 1, 2)) + operad.OperadElement.basis((2, 1, 2, 1))
        g = operad.OperadElement.basis((1, 2, 1)) - 2 * operad.OperadElement.basis((2, 1, 2))
        h = 3 * operad.OperadElement.basis((1, 2)) + operad.OperadElement.basis((2, 1))
        got, want = operad.compose(e, [g, h]), reference_compose(e, [g, h])
        assert list(got.terms().items()) == list(want.terms().items())


class TestBoundaryTerms:
    def test_skips_zeros(self):
        assert boundary_terms((1, 2)) == []

    def test_matches_worked_display(self):
        terms = dict()
        for sign, sub in boundary_terms((1, 2, 3, 1, 2)):
            terms[sub] = sign
        assert terms == {
            (2, 3, 1, 2): 1,
            (1, 3, 1, 2): -1,
            (1, 2, 3, 2): -1,
            (1, 2, 3, 1): 1,
        }


# The Counter-based kernels the lean tau/boundary_terms replaced, kept as the
# reference they must agree with.
def reference_tau(entries):
    counts = Counter(entries)
    below = {}
    total = 0
    for v in sorted(counts):
        below[v] = total
        total += counts[v]
    seen = Counter()
    out = []
    for u in entries:
        seen[u] += 1
        out.append(below[u] + seen[u])
    return tuple(out)


def reference_boundary_terms(entries):
    t = reference_tau(entries)
    counts = Counter(entries)
    out = []
    m = len(entries)
    for j in range(m):
        if 0 < j < m - 1 and entries[j - 1] == entries[j + 1]:
            continue
        if counts[entries[j]] == 1:
            continue
        sign = -1 if (t[j] - entries[j]) % 2 else 1
        out.append((sign, entries[:j] + entries[j + 1 :]))
    return out


class TestLeanKernels:
    def test_agree_with_reference_on_every_small_word(self):
        checked = 0
        for k, d in itertools.product(range(5), range(6)):
            for f in enumerate_basis(k, d):
                # the prepend-a-1 words A4 feeds, and here their degenerate ones too
                for w in (f.entries, (1,) + f.entries):
                    assert tau(w) == reference_tau(w), w
                    assert boundary_terms(w) == reference_boundary_terms(w), w
                checked += 1
        assert checked == 34070

    @given(words(max_arity=5, max_len=9))
    @settings(max_examples=200, deadline=None)
    def test_agree_with_reference_on_arbitrary_words(self, word_k):
        w, _ = word_k
        assert tau(w) == reference_tau(w)
        assert boundary_terms(w) == reference_boundary_terms(w)


def assert_checked_equal(f):
    """``f`` equals, hashes and orders like the checked Surjection of its word."""
    assert type(f) is Surjection and type(f.entries) is tuple
    checked = Surjection(f.arity, f.entries)
    assert validate(f.entries, f.arity) == checked
    assert f == checked and hash(f) == hash(checked)
    assert not f < checked and not f > checked and f <= checked and f >= checked


class TestTrustedConstruction:
    @given(st.sampled_from([(1, 0)] + [(k, d) for k in (2, 3, 4) for d in range(5)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_trusted_site_yields_valid_words(self, kd, data):
        k, d = kd
        basis = enumerate_basis(k, d)
        for f in basis:
            assert_checked_equal(f)
        f = data.draw(st.sampled_from(basis))
        rho = tuple(data.draw(st.permutations(range(1, k + 1))))
        e = operad.OperadElement(k, d, {f: 1})
        images = [
            operad.differential(e),
            operad.act(e, rho),
            operad.benson_homotopy(e),
            operad.iota(e),
        ]
        for image in images:
            for g in image.terms():
                assert_checked_equal(g)



# ---------------------------------------------------------------------------
# LinearCombination, shared by four types.  Per type: the space of x, a
# second space, two keys of x's space, a coefficient and the zero
# coefficient, a key x's space lacks with the error it raises, and the
# error for a sum across spaces.
# ---------------------------------------------------------------------------

D2, D3, RING = standard_simplex(2), standard_simplex(3), upper_triangular()
LINEAR_COMBINATIONS = {
    "operad": (
        OperadElement, (2, 1), (2, 2), Surjection(2, (1, 2, 1)), Surjection(2, (2, 1, 2)),
        3, 0, Surjection(2, (1, 2)), ValueError, ArityMismatchError,
    ),
    "cochain": (Cochain, (D2, 1), (D3, 1), (0, 1), (1, 2), -2, 0, (0, 1, 2), InputError, ComplexMismatchError),
    "tensor": (
        TensorChain, (D2, 2), (D3, 2), ((0,), (0, 1)), ((1, 2), (2,)),
        5, 0, ((0,), (3,)), ValueError, ComplexMismatchError,
    ),
    "hochschild": (HochschildCochain, (RING, 1), (RING, 2), (1,), (2,), (2, -1, 0), (0, 0, 0), (0,), InputError, ValueError),
}


@pytest.mark.parametrize("kind", sorted(LINEAR_COMBINATIONS))
def test_linear_combination_shared_behaviour(kind):
    cls, space, other_space, key, key2, coeff, zero, bad_key, key_error, mismatch = LINEAR_COMBINATIONS[kind]
    x = cls(*space, {key: coeff, key2: zero})
    assert x.coeffs == {key: coeff}  # the zero is dropped
    with pytest.raises(key_error):
        cls(*space, {bad_key: zero})  # but its key is checked
    assert (x - x).is_zero() and not x.is_zero()
    assert (-1) * x == -x != x
    assert x + x == 2 * x and hash(x + x) == hash(2 * x)
    assert hash(cls(*space, {key: coeff})) == hash(x)
    for name in (*cls.__slots__, "coeffs"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(mismatch):
        x + cls(*other_space)
