import itertools
import random
from operator import attrgetter

import pytest

from seqop.combinatorics import complexity, enumerate_basis, perm_inverse
from seqop.hochschild import (
    FiniteRing,
    HochschildCochain,
    RingError,
    brace,
    constant_cochain,
    cup,
    dual_numbers,
    eval_word,
    group_ring_c2,
    hochschild_d,
    identity_cochain,
    theta,
    upper_triangular,
)
from seqop.operad import (
    OperadElement,
    act,
    compose,
    differential,
    nested_evaluate,
    operator_differential,
    permuted_evaluate,
)

RINGS = [dual_numbers(), upper_triangular(), group_ring_c2()]
DEGREE = attrgetter("degree")


def random_cochain(ring, degree, rng):
    table = {
        key: tuple(rng.randint(-2, 2) for _ in range(ring.rank))
        for key in itertools.product(range(1, ring.rank), repeat=degree)
    }
    return HochschildCochain(ring, degree, table)


class TestRing:
    def test_shipped_rings_validate(self):
        for ring in RINGS:
            assert ring.mul(ring.unit, ring.basis_vector(1)) == ring.basis_vector(1)

    def test_noncommutative_example(self):
        ring = upper_triangular()
        a, b = ring.basis_vector(1), ring.basis_vector(2)
        assert ring.mul(a, b) == a  # E12 * E22 = E12
        assert ring.mul(b, a) == ring.zero

    def test_rejects_nonassociative(self):
        one, x, y, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
        # (x x) y = y y = 0 but x (x y) = x 1 = x
        table = ((one, x, y), (x, y, one), (y, zero, zero))
        with pytest.raises(RingError):
            FiniteRing(3, ("1", "x", "y"), table)

    def test_rejects_bad_unit(self):
        zero = (0, 0)
        with pytest.raises(RingError):
            FiniteRing(2, ("e", "x"), ((zero, zero), (zero, zero)))

    def test_json_roundtrip(self):
        ring = upper_triangular()
        assert FiniteRing.from_json(ring.to_json()) == ring


class TestCochains:
    def test_storage_is_normalized(self):
        ring = dual_numbers()
        with pytest.raises(ValueError):
            HochschildCochain(ring, 1, {(0,): (1, 0)})

    def test_degree_zero_commutator(self):
        ring = upper_triangular()
        r = (0, 1, 0)  # E12
        x = constant_cochain(ring, r)
        dx = hochschild_d(x)
        for t in range(1, ring.rank):
            e = ring.basis_vector(t)
            want = tuple(
                a - b for a, b in zip(ring.mul(e, r), ring.mul(r, e))
            )
            assert dx.value((t,)) == want

    def test_central_cochain_over_commutative_ring(self):
        for ring in (dual_numbers(), group_ring_c2()):
            x = constant_cochain(ring, (3, -2))
            assert hochschild_d(x).is_zero()

    def test_d_squared_zero(self):
        rng = random.Random(0)
        for ring in RINGS:
            for p in (0, 1, 2):
                x = random_cochain(ring, p, rng)
                assert hochschild_d(hochschild_d(x)).is_zero()


class TestCupBrace:
    def test_cup_by_constant_is_multiplication(self):
        rng = random.Random(1)
        ring = upper_triangular()
        x = random_cochain(ring, 1, rng)
        c = (0, 0, 1)
        right = cup(x, constant_cochain(ring, c))
        left = cup(constant_cochain(ring, c), x)
        for t in range(1, ring.rank):
            assert right.value((t,)) == ring.mul(x.value((t,)), c)
            assert left.value((t,)) == ring.mul(c, x.value((t,)))

    def test_cup_associative(self):
        rng = random.Random(2)
        for ring in RINGS:
            x, y, z = (random_cochain(ring, p, rng) for p in (1, 0, 1))
            assert cup(cup(x, y), z) == cup(x, cup(y, z))

    def test_brace_with_identities_is_identity(self):
        rng = random.Random(3)
        for ring in RINGS:
            x = random_cochain(ring, 2, rng)
            ident = identity_cochain(ring)
            assert brace(x, [ident, ident]) == x

    def test_brace_arity_checked(self):
        ring = dual_numbers()
        x = constant_cochain(ring, (1, 1))
        with pytest.raises(ValueError):
            brace(x, [x])


class TestEvalWord:
    def test_empty_word(self):
        ring = dual_numbers()
        x = constant_cochain(ring, (0, 1))
        assert eval_word((), [x], ring) == identity_cochain(ring)

    def test_singleton(self):
        rng = random.Random(4)
        ring = upper_triangular()
        xs = [random_cochain(ring, 1, rng), random_cochain(ring, 0, rng)]
        assert eval_word((2,), xs) == xs[1]

    def test_single_substitution(self):
        rng = random.Random(5)
        ring = upper_triangular()
        x1 = random_cochain(ring, 1, rng)
        x2 = random_cochain(ring, 0, rng)
        assert eval_word((1, 2, 1), [x1, x2]) == brace(x1, [x2])

    def test_segments_cup(self):
        rng = random.Random(6)
        ring = group_ring_c2()
        x1 = random_cochain(ring, 1, rng)
        x2 = random_cochain(ring, 1, rng)
        assert eval_word((1, 1, 2, 2), [x1, x2]) == cup(brace(x1, [identity_cochain(ring)]), x2)

    def test_complexity_and_fiber_checks(self):
        rng = random.Random(7)
        ring = dual_numbers()
        with pytest.raises(ValueError):
            eval_word((1, 2, 1, 2), [random_cochain(ring, 1, rng), random_cochain(ring, 1, rng)])
        with pytest.raises(ValueError):
            eval_word((1, 2, 1), [random_cochain(ring, 2, rng), random_cochain(ring, 0, rng)])


class TestTheta:
    def test_unit(self):
        rng = random.Random(8)
        for ring in RINGS:
            for p in (0, 1, 2):
                x = random_cochain(ring, p, rng)
                assert theta(OperadElement.unit(), [x]) == x

    def test_cup_word(self):
        rng = random.Random(9)
        for ring in RINGS:
            for p, q in ((0, 0), (1, 1), (2, 1)):
                x, y = random_cochain(ring, p, rng), random_cochain(ring, q, rng)
                assert theta(OperadElement.basis((1, 2)), [x, y]) == cup(x, y)

    def test_transposed_cup_word(self):
        rng = random.Random(10)
        ring = upper_triangular()
        x, y = random_cochain(ring, 1, rng), random_cochain(ring, 1, rng)
        got = theta(OperadElement.basis((2, 1)), [x, y])
        assert got == (-1) ** (x.degree * y.degree) * cup(y, x)

    def test_complexity_three_rejected(self):
        ring = dual_numbers()
        x = constant_cochain(ring, (1, 0))
        with pytest.raises(ValueError):
            theta(OperadElement.basis((1, 2, 1, 2)), [x, x])

    def test_brace_word_is_insertion_sum(self):
        # the three-letter word on (x, y) with deg x = 1 is the single
        # insertion x{y}; the homotopy-commutativity identity is exact
        rng = random.Random(11)
        ring = upper_triangular()
        x = random_cochain(ring, 1, rng)
        y = random_cochain(ring, 1, rng)
        assert theta(OperadElement.basis((1, 2, 1)), [x, y]) == brace(x, [y])

    def test_homotopy_commutativity_identity(self):
        rng = random.Random(12)
        for ring in RINGS:
            for degs in ((0, 0), (1, 1), (1, 2), (2, 1)):
                xs = [random_cochain(ring, p, rng) for p in degs]
                e = OperadElement.basis((1, 2, 1))
                lhs = theta(differential(e), xs)
                assert lhs == theta(OperadElement.basis((2, 1)), xs) - theta(
                    OperadElement.basis((1, 2)), xs
                )
                assert lhs == operator_differential(theta, hochschild_d, DEGREE, e, xs)

    def test_chain_map_randomized(self):
        rng = random.Random(13)
        nonvacuous = 0
        for _ in range(60):
            ring = rng.choice(RINGS)
            k = rng.choice((2, 3))
            d = rng.choice((1, 2, 3))
            words = [f for f in enumerate_basis(k, d) if complexity(f.entries, k) <= 2]
            if not words:
                continue
            f = rng.choice(words)
            counts = [len(f.fiber(i)) for i in range(1, k + 1)]
            xs = [random_cochain(ring, c - 1 + rng.choice((0, 1)), rng) for c in counts]
            e = OperadElement.basis(f.entries, k)
            lhs = theta(differential(e), xs)
            rhs = operator_differential(theta, hochschild_d, DEGREE, e, xs)
            assert lhs == rhs, (f.entries, [x.degree for x in xs])
            nonvacuous += 0 if lhs.is_zero() else 1
        assert nonvacuous > 5

    def test_equivariance_randomized(self):
        rng = random.Random(14)
        for _ in range(40):
            ring = rng.choice(RINGS)
            k = rng.choice((2, 3))
            d = rng.choice((0, 1, 2))
            words = [f for f in enumerate_basis(k, d) if complexity(f.entries, k) <= 2]
            if not words:
                continue
            f = rng.choice(words)
            counts = [len(f.fiber(i)) for i in range(1, k + 1)]
            xs = [random_cochain(ring, c - 1 + rng.choice((0, 1)), rng) for c in counts]
            e = OperadElement.basis(f.entries, k)
            rho = tuple(rng.sample(range(1, k + 1), k))
            rinv = perm_inverse(rho)
            parity = 0
            for a, b in itertools.combinations(range(k), 2):
                if rinv[a] > rinv[b]:
                    parity += xs[rinv[a] - 1].degree * xs[rinv[b] - 1].degree
            rhs = theta(e, [xs[rinv[i] - 1] for i in range(k)])
            assert theta(act(e, rho), xs) == (-1 if parity % 2 else 1) * rhs
            assert permuted_evaluate(theta, DEGREE, e, rho, xs) == (-1 if parity % 2 else 1) * rhs

    def test_composition_randomized(self):
        rng = random.Random(15)
        nonvacuous = 0
        for _ in range(40):
            ring = rng.choice(RINGS)
            e = OperadElement.basis(rng.choice(((1, 2), (2, 1), (1, 2, 1), (2, 1, 2))))
            inner = []
            for _ in range(2):
                kg = rng.choice((1, 2))
                dg = rng.choice((0, 1)) if kg > 1 else 0
                ws = [g for g in enumerate_basis(kg, dg) if complexity(g.entries, kg) <= 2]
                inner.append(OperadElement.basis(rng.choice(ws).entries, kg))
            comp = compose(e, inner)
            if comp.is_zero():
                continue
            blocks, ys = [], []
            for g in inner:
                word = next(iter(g.terms()))
                counts = [len(word.fiber(i)) for i in range(1, g.arity + 1)]
                block = [random_cochain(ring, c - 1 + rng.choice((0, 1)), rng) for c in counts]
                blocks.append(block)
                ys.extend(block)
            lhs = theta(comp, ys)
            parity, moved = 0, 0
            vals = []
            for g, block in zip(inner, blocks):
                parity += g.degree * moved
                moved += sum(x.degree for x in block)
                vals.append(theta(g, block))
            rhs = theta(e, vals)
            assert lhs == (-1 if parity % 2 else 1) * rhs
            assert nested_evaluate(theta, DEGREE, e, inner, ys) == (-1 if parity % 2 else 1) * rhs
            nonvacuous += 0 if lhs.is_zero() else 1
        assert nonvacuous > 5
