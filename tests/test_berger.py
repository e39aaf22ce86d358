import itertools

import pytest

from seqop.berger import (
    PosetElement,
    enumerate_poset,
    invariant_of,
    leq,
    poset_act,
    poset_compose,
    subcomplex_basis,
)
from seqop.combinatorics import InputError, Surjection, enumerate_basis
from seqop.homology import ChainComplexError, homology
from seqop.operad import OperadElement, act, benson_homotopy, differential, iota, retract


def _transposition(k, a, b):
    rho = list(range(1, k + 1))
    rho[a - 1], rho[b - 1] = rho[b - 1], rho[a - 1]
    return tuple(rho)


def contraction_homotopy(e, i):
    """The prepend homotopy conjugated to the value i.

    For i = 1 this is the plain contraction; in general the element is
    relabeled by the transposition (1 i), contracted, and relabeled back,
    which retracts onto the words that start with i and contain no other i.
    """
    if i == 1:
        return benson_homotopy(e)
    rho = _transposition(e.arity, 1, i)
    return act(benson_homotopy(act(e, rho)), rho)


def contraction_projector(e, i):
    """iota o retract conjugated to the value i; the homotopy identity reads
    d s_i + s_i d = id + (this map) on any subcomplex invariant under s_i."""
    if i == 1:
        return iota(retract(e))
    rho = _transposition(e.arity, 1, i)
    return act(iota(retract(act(e, rho))), rho)


UNIT = PosetElement(1, (), (1,))


class TestPoset:
    def test_reflexive(self):
        x = PosetElement(2, (1,), (2, 1))
        assert leq(x, x)

    def test_strictness_clause(self):
        assert leq(PosetElement(2, (0,), (1, 2)), PosetElement(2, (1,), (2, 1)))
        assert not leq(PosetElement(2, (0,), (1, 2)), PosetElement(2, (0,), (2, 1)))

    def test_axioms_exhaustive_small(self):
        elements = enumerate_poset(2, 2)
        assert len(elements) == 4
        for x in elements:
            assert leq(x, x)
        for x, y in itertools.permutations(elements, 2):
            assert not (leq(x, y) and leq(y, x))
        for x, y, z in itertools.product(elements, repeat=3):
            if leq(x, y) and leq(y, z):
                assert leq(x, z)

    def test_validation(self):
        with pytest.raises(ValueError):
            PosetElement(2, (-1,), (1, 2))
        with pytest.raises(ValueError):
            PosetElement(2, (0,), (1, 1))
        with pytest.raises(ValueError):
            PosetElement(3, (0,), (1, 2, 3))

    def test_json_roundtrip(self):
        x = PosetElement(3, (0, 2, 1), (3, 1, 2))
        assert PosetElement.from_json(x.to_json()) == x


class TestStructureMaps:
    def test_compose_with_units(self):
        x = PosetElement(3, (1, 2, 0), (2, 3, 1))
        assert poset_compose(x, [UNIT, UNIT, UNIT]) == x

    def test_cross_block_weight(self):
        x = PosetElement(2, (5,), (1, 2))
        y1 = PosetElement(2, (1,), (1, 2))
        y2 = PosetElement(1, (), (1,))
        z = poset_compose(x, [y1, y2])
        assert z.weight(1, 2) == 1  # within block 1
        assert z.weight(1, 3) == 5  # across blocks
        assert z.weight(2, 3) == 5

    def test_block_order_follows_outer_order(self):
        x = PosetElement(2, (0,), (2, 1))
        y = PosetElement(2, (0,), (2, 1))
        z = poset_compose(x, [y, UNIT])
        # block 2 = {3} comes first, then block 1 = {1, 2} ordered 2 < 1
        assert z.order == (3, 2, 1)

    def test_act_monotone_exhaustive(self):
        elements = enumerate_poset(2, 2)
        for rho in itertools.permutations((1, 2)):
            for x, y in itertools.product(elements, repeat=2):
                if leq(x, y):
                    assert leq(poset_act(x, rho), poset_act(y, rho))

    def test_act_rejects_a_non_permutation(self):
        with pytest.raises(InputError, match=r"\(1, 1\) is not a permutation of 1..2"):
            poset_act(PosetElement(2, (1,), (1, 2)), (1, 1))

    def test_act_is_right_action(self):
        elements = enumerate_poset(3, 2)
        rho, sigma = (2, 3, 1), (3, 1, 2)
        composed = tuple(rho[s - 1] for s in sigma)
        for x in elements[::5]:
            assert poset_act(poset_act(x, rho), sigma) == poset_act(x, composed)


class TestInvariant:
    def test_examples(self):
        f = Surjection(2, (1, 2))
        assert invariant_of(f) == PosetElement(2, (0,), (1, 2))
        f = Surjection(2, (1, 2, 1, 2))
        assert invariant_of(f) == PosetElement(2, (2,), (1, 2))
        f = Surjection(2, (2, 1))
        assert invariant_of(f) == PosetElement(2, (0,), (2, 1))

    def test_matches_complexity_filtration(self):
        from seqop.combinatorics import complexity

        for k in (2, 3):
            for d in range(4):
                for f in enumerate_basis(k, d):
                    bt = invariant_of(f)
                    n = complexity(f.entries, k)
                    assert max(bt.weights) == n - 1
                    assert all(w < n for w in bt.weights) == (complexity(f.entries, k) <= n)


class TestSubcomplexes:
    def test_minimal_element_keeps_only_the_cup_word(self):
        C = subcomplex_basis(PosetElement(2, (0,), (1, 2)), 4)
        assert [f.entries for f in C.bases[0]] == [(1, 2)]
        assert all(C.dim(d) == 0 for d in range(1, 5))

    def test_weight_one_swapped_order(self):
        C = subcomplex_basis(PosetElement(2, (1,), (2, 1)), 4)
        assert [f.entries for f in C.bases[0]] == [(1, 2), (2, 1)]
        assert [f.entries for f in C.bases[1]] == [(2, 1, 2)]
        assert C.dim(2) == 0

    def test_contractible(self):
        for bt in (
            PosetElement(2, (1,), (2, 1)),
            PosetElement(2, (2,), (1, 2)),
            PosetElement(3, (1, 1, 1), (1, 2, 3)),
            PosetElement(3, (2, 0, 1), (3, 1, 2)),
        ):
            groups = homology(subcomplex_basis(bt, 5))
            assert groups[0].rank == 1 and not groups[0].torsion
            assert all(groups[q].rank == 0 and not groups[q].torsion for q in range(1, 5))

    def test_matches_brute_force_filter(self):
        # every word, then the invariant read from each pair's restriction
        def reference_invariant(f):
            weights = []
            for i, j in itertools.combinations(range(1, f.arity + 1), 2):
                sub = tuple(f.entries[p - 1] for p in sorted(f.fiber(i) + f.fiber(j)))
                weights.append(sum(1 for a, b in zip((0,) + sub, sub) if a != b) - 2)
            order = sorted(range(1, f.arity + 1), key=lambda i: f.fiber(i)[0])
            return PosetElement(f.arity, tuple(weights), tuple(order))

        for bt in enumerate_poset(2, 3) + enumerate_poset(3, 2) + enumerate_poset(3, 3)[::5]:
            C = subcomplex_basis(bt, 4)
            for d in range(5):
                want = [f.entries for f in enumerate_basis(bt.k, d) if leq(reference_invariant(f), bt)]
                assert [f.entries for f in C.bases[d]] == want, (bt, d)


class TestConjugatedContraction:
    def test_value_one_is_plain_contraction(self):
        e = OperadElement.basis((2, 1))
        assert contraction_homotopy(e, 1) == benson_homotopy(e)

    def test_prepends_the_value(self):
        assert contraction_homotopy(OperadElement.basis((1, 2)), 2) == OperadElement.basis((2, 1, 2))

    def test_identity_all_values(self):
        for d in range(3):
            for f in enumerate_basis(3, d):
                e = OperadElement.basis(f.entries, 3)
                for i in (1, 2, 3):
                    lhs = differential(contraction_homotopy(e, i)) + contraction_homotopy(
                        differential(e), i
                    )
                    assert lhs == e + contraction_projector(e, i)

    def test_subcomplex_invariance_at_order_minimum(self):
        bt = PosetElement(2, (1,), (2, 1))
        C = subcomplex_basis(bt, 4)
        members = {f for fs in C.bases.values() for f in fs}
        i = bt.order[0]
        for f in members:
            image = contraction_homotopy(OperadElement.basis(f.entries, f.arity), i)
            for word in image.terms():
                assert word in members or word.degree > 4

    def test_action_maps_subcomplex_to_acted_subcomplex(self):
        for bt in (PosetElement(2, (1,), (2, 1)), PosetElement(3, (1, 0, 2), (2, 1, 3))):
            k = bt.k
            for rho in itertools.permutations(range(1, k + 1)):
                target = poset_act(bt, rho)
                for d in range(4):
                    for f in subcomplex_basis(bt, 3).bases.get(d, []):
                        image = act(OperadElement.basis(f.entries, k), rho)
                        for word in image.terms():
                            assert leq(invariant_of(word), target)
