import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqop.combinatorics import Surjection, enumerate_basis, perm_compose
from seqop.operad import (
    ArityMismatchError,
    OperadElement,
    act,
    benson_homotopy,
    complexity_bound,
    compose,
    differential,
    in_complexity_suboperad,
    iota,
    partial_compose,
    retract,
)


def basis(*entries):
    return OperadElement.basis(tuple(entries))


def random_basis_element(rng, k, degree):
    words = enumerate_basis(k, degree if k > 1 else 0)
    return OperadElement.basis(rng.choice(words).entries, k)


class TestElement:
    def test_rejects_mixed_terms(self):
        f = Surjection(2, (1, 2))
        with pytest.raises(ValueError):
            OperadElement(2, 1, {f: 1})

    def test_arithmetic(self):
        e = basis(1, 2) + basis(2, 1)
        assert e - basis(2, 1) == basis(1, 2)
        assert (basis(1, 2) - basis(1, 2)).is_zero()
        assert 2 * basis(1, 2) == basis(1, 2) + basis(1, 2)

    def test_json_roundtrip(self):
        e = differential(basis(1, 2, 3, 1, 2))
        assert OperadElement.from_json(e.to_json()) == e


class TestDifferential:
    def test_five_letter_display(self):
        assert differential(basis(1, 2, 3, 1, 2)) == (
            basis(2, 3, 1, 2) - basis(1, 2, 3, 2) - basis(1, 3, 1, 2) + basis(1, 2, 3, 1)
        )

    def test_six_letter_display(self):
        assert differential(basis(1, 2, 3, 1, 2, 1)) == (
            basis(2, 3, 1, 2, 1)
            - basis(1, 2, 3, 2, 1)
            + basis(1, 2, 3, 1, 2)
            + basis(1, 3, 1, 2, 1)
        )

    def test_degree_zero_of_cup_word(self):
        assert differential(basis(1, 2)).is_zero()

    def test_squares_to_zero(self):
        for k in (2, 3):
            for d in range(4):
                for f in enumerate_basis(k, d):
                    e = OperadElement.basis(f.entries, k)
                    assert differential(differential(e)).is_zero(), f

    def test_equivariance(self):
        rng = random.Random(0)
        for _ in range(60):
            k = rng.choice((2, 3))
            e = random_basis_element(rng, k, rng.choice((1, 2, 3)))
            rho = tuple(rng.sample(range(1, k + 1), k))
            assert differential(act(e, rho)) == act(differential(e), rho)


class TestAction:
    def test_swap_of_cup_word(self):
        assert act(basis(1, 2), (2, 1)) == basis(2, 1)

    def test_alternating_word_sign(self):
        assert act(basis(1, 2, 1, 2), (2, 1)) == -1 * basis(2, 1, 2, 1)

    def test_identity(self):
        e = basis(1, 2, 1) + 3 * basis(2, 1, 2)
        assert act(e, (1, 2)) == e

    def test_not_a_permutation(self):
        with pytest.raises(ArityMismatchError):
            act(basis(1, 2), (1, 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_right_action(self, data):
        k = data.draw(st.sampled_from((2, 3)))
        degree = data.draw(st.sampled_from((0, 1, 2)))
        words = enumerate_basis(k, degree)
        e = OperadElement.basis(data.draw(st.sampled_from(words)).entries, k)
        rho = tuple(data.draw(st.permutations(range(1, k + 1))))
        sigma = tuple(data.draw(st.permutations(range(1, k + 1))))
        assert act(act(e, rho), sigma) == act(e, perm_compose(rho, sigma))


class TestCompose:
    def test_cup_associativity_words(self):
        assert compose(basis(1, 2), [basis(1, 2), basis(1)]) == basis(1, 2, 3)
        assert compose(basis(1, 2), [basis(1), basis(1, 2)]) == basis(1, 2, 3)

    def test_unit_laws(self):
        e = basis(1, 2, 1)
        assert compose(e, [OperadElement.unit(), OperadElement.unit()]) == e
        assert compose(OperadElement.unit(), [e]) == e

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            compose(basis(1, 2), [basis(1)])

    def test_arity_zero_behavior(self):
        empty = OperadElement.basis(())
        assert compose(empty, []) == empty
        # composing the empty element into an occupied slot annihilates
        assert compose(basis(1, 2), [basis(1), empty]).is_zero()

    def test_partial_compose(self):
        assert partial_compose(basis(1, 2), 1, basis(1, 2)) == basis(1, 2, 3)
        assert partial_compose(basis(2, 1), 2, basis(1, 2)) == basis(2, 3, 1)
        e = basis(1, 2, 1)
        assert partial_compose(e, 2, OperadElement.unit()) == e
        with pytest.raises(ArityMismatchError):
            partial_compose(e, 3, OperadElement.unit())

    def test_associativity_random(self):
        # iterated composition agrees with nested composition up to the
        # Koszul sign of shuffling the first h-block past the second inner
        # element
        rng = random.Random(1)
        for _ in range(25):
            f = random_basis_element(rng, 2, rng.choice((0, 1)))
            gs = [random_basis_element(rng, rng.choice((1, 2)), rng.choice((0, 1))) for _ in range(2)]
            hs = [
                random_basis_element(rng, rng.choice((1, 2)), rng.choice((0, 1)))
                for _ in range(sum(g.arity for g in gs))
            ]
            left = compose(compose(f, gs), hs)
            split = gs[0].arity
            shuffle = sum(h.degree for h in hs[:split]) * gs[1].degree
            right = compose(f, [compose(gs[0], hs[:split]), compose(gs[1], hs[split:])])
            assert left == (-1 if shuffle % 2 else 1) * right

    def test_block_equivariance(self):
        # permuting the outer element permutes the inner blocks
        rng = random.Random(2)
        for _ in range(25):
            f = random_basis_element(rng, 2, rng.choice((0, 1, 2)))
            g1 = random_basis_element(rng, rng.choice((1, 2)), rng.choice((0, 1)))
            g2 = random_basis_element(rng, rng.choice((1, 2)), rng.choice((0, 1)))
            swap = (2, 1)
            left = compose(act(f, swap), [g1, g2])
            # the block permutation sends the slots of g1 past those of g2
            k1, k2 = g1.arity, g2.arity
            block = tuple(list(range(k2 + 1, k2 + k1 + 1)) + list(range(1, k2 + 1)))
            sign = -1 if (g1.degree * g2.degree) % 2 else 1
            right = sign * act(compose(f, [g2, g1]), block)
            assert left == right

    def test_leibniz(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_basis_element(rng, 2, rng.choice((0, 1, 2)))
            gs = [random_basis_element(rng, rng.choice((1, 2)), rng.choice((0, 1, 2))) for _ in range(2)]
            lhs = differential(compose(f, gs))
            rhs = compose(differential(f), gs)
            parity = f.degree
            for i in range(2):
                inner = list(gs)
                inner[i] = differential(inner[i])
                term = compose(f, inner)
                rhs = rhs + (-1 if parity % 2 else 1) * term
                parity += gs[i].degree
            assert lhs == rhs


class TestContraction:
    def test_prepend_examples(self):
        assert benson_homotopy(basis(2, 1)) == basis(1, 2, 1)
        assert benson_homotopy(basis(1, 2, 1)).is_zero()
        with pytest.raises(ArityMismatchError):
            benson_homotopy(basis())  # (1,) is not a word of arity 0

    def test_iota_examples(self):
        assert iota(basis(1)) == basis(1, 2)
        assert iota(basis(2, 1)) == basis(1, 3, 2)

    def test_retract_examples(self):
        # the sign (-1)^{tau(j0)} at the unique 1 makes the contraction
        # identity below exact; a leading 1 always contributes -1
        assert retract(basis(1, 2)) == -1 * basis(1)
        assert retract(basis(2, 1)) == -1 * basis(1)
        assert retract(basis(1, 2, 1)).is_zero()
        assert retract(basis(2, 1, 2)).is_zero()  # stripping makes it degenerate
        assert retract(iota(basis(2, 1))) == -1 * basis(2, 1)

    def test_identity_on_low_degrees(self):
        for k in (1, 2, 3):
            for d in range(4):
                for f in enumerate_basis(k, d):
                    e = OperadElement.basis(f.entries, k)
                    lhs = differential(benson_homotopy(e)) + benson_homotopy(differential(e))
                    assert lhs == e + iota(retract(e)), f


class TestComplexityFiltration:
    def test_bounds(self):
        assert complexity_bound(basis(1, 2)) == 1
        assert complexity_bound(basis(1, 2, 1, 2)) == 3
        assert in_complexity_suboperad(basis(1, 2, 1, 2), 3)
        assert not in_complexity_suboperad(basis(1, 2, 1, 2), 2)

    def test_zero_element(self):
        zero = OperadElement.zero(2, 1)
        assert complexity_bound(zero) == 0
        assert in_complexity_suboperad(zero, 1)

    def test_closure(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.choice((1, 2, 3))
            k = rng.choice((2, 3))
            words = [
                f
                for d in range(3)
                for f in enumerate_basis(k, d, max_complexity=n)
            ]
            if not words:
                continue
            e = OperadElement.basis(rng.choice(words).entries, k)
            assert complexity_bound(differential(e)) <= n
            rho = tuple(rng.sample(range(1, k + 1), k))
            assert complexity_bound(act(e, rho)) <= n
