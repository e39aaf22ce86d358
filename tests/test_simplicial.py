import itertools
import random
from operator import attrgetter

import pytest

from seqop.combinatorics import Surjection, enumerate_basis, epsilon_parity, partition_size_compositions
from seqop.operad import (
    OperadElement,
    act,
    compose,
    differential,
    nested_evaluate,
    operator_differential,
    permuted_evaluate,
)
from seqop.simplicial import (
    Cochain,
    NotACocycleError,
    SimplicialComplex,
    TensorChain,
    _coaction_skeleton,
    coaction,
    coboundary,
    cup_i,
    evaluate,
    is_mod2_coboundary,
    mod2_cohomologous,
    mod2_cohomology_basis,
    oracle_equal,
    projective_plane,
    standard_simplex,
    steenrod_square,
)

DIM = attrgetter("dim")
D3 = standard_simplex(3)
D4 = standard_simplex(4)


class Chain(Cochain):
    """An integer combination of simplices of one dimension: a cochain's
    storage and key rule, read as a chain."""


def boundary(chain: Chain) -> Chain:
    """Alternating-sum simplicial boundary."""
    acc: dict = {}
    for simp, coeff in chain.coeffs.items():
        for i in range(len(simp)):
            face = simp[:i] + simp[i + 1 :]
            if not face:
                continue
            sign = -1 if i % 2 else 1
            acc[face] = acc.get(face, 0) + sign * coeff
    return Chain(chain.complex, chain.dim - 1, acc)


def dual_cochain(complex, simplex):
    """The indicator cochain of one simplex (a dual basis vector)."""
    simplex = tuple(simplex)
    return Cochain(complex, len(simplex) - 1, {simplex: 1})


def barycentric_projective_space(n):
    """RP^n as the barycentric subdivision of the boundary of the cube
    [-1, 1]^(n+1) modulo x -> -x.  A face of the cube is its vector in
    {-1, 0, 1}^(n+1) (0 on the free coordinates); a vertex is a pair of
    antipodal faces, and vertices are numbered by face dimension, so each
    flag of faces is an ascending simplex."""

    def pair(face):  # the face of the antipodal pair whose first nonzero entry is +1
        return face if next(v for v in face if v) > 0 else tuple(-v for v in face)

    pairs = {pair(f) for f in itertools.product((-1, 0, 1), repeat=n + 1) if any(f)}
    index = {f: i for i, f in enumerate(sorted(pairs, key=lambda f: (f.count(0), f)))}
    flags = set()
    for corner in itertools.product((-1, 1), repeat=n + 1):
        for order in itertools.permutations(range(n + 1), n):
            face = list(corner)
            flag = [index[pair(tuple(face))]]
            for i in order:  # free one more coordinate: the next larger face
                face[i] = 0
                flag.append(index[pair(tuple(face))])
            flags.add(tuple(flag))
    return SimplicialComplex.from_simplices(flags, len(index))


def reference_skeleton(p, entries, arity):
    """The coaction skeleton from explicit piece starts and index blocks: piece
    j covers [start_j, start_j + sizes_j - 1], and a value's block of covered
    indices must be strictly ascending."""
    m = len(entries)
    if m == 0:
        return ()
    fibers = [[j for j in range(m) if entries[j] == i] for i in range(1, arity + 1)]
    out = []
    for sizes in partition_size_compositions(p + 1, m):
        starts = [0]
        for s in sizes[:-1]:
            starts.append(starts[-1] + s - 1)
        factors = []
        for fiber in fibers:
            block = [t for j in fiber for t in range(starts[j], starts[j] + sizes[j])]
            if any(b <= a for a, b in zip(block, block[1:])):
                break
            factors.append(tuple(block))
        else:
            out.append((epsilon_parity(entries, sizes), tuple(factors)))
    return tuple(out)


def dense(complex, dim, rng):
    return Cochain(complex, dim, {s: rng.randint(-3, 3) for s in complex.faces(dim)})


class TestComplex:
    def test_downward_closure(self):
        K = SimplicialComplex.from_simplices([(0, 1, 2)])
        assert K.has((0, 1)) and K.has((2,)) and not K.has((0, 3))
        assert K.dim == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_simplices([(1, 0)])

    def test_projective_plane_combinatorics(self):
        rp2 = projective_plane()
        v, e, f = len(rp2.faces(0)), len(rp2.faces(1)), len(rp2.faces(2))
        assert (v, e, f) == (6, 15, 10)
        assert v - e + f == 1  # Euler characteristic
        edge_count = {}
        for tri in rp2.faces(2):
            for pair in itertools.combinations(tri, 2):
                edge_count[pair] = edge_count.get(pair, 0) + 1
        assert all(c == 2 for c in edge_count.values())

    def test_json_roundtrip(self):
        rp2 = projective_plane()
        assert SimplicialComplex.from_json(rp2.to_json()) == rp2


class TestBoundaryCoboundary:
    def test_edge_boundary(self):
        c = Chain(D3, 1, {(0, 1): 1})
        assert boundary(c) == Chain(D3, 0, {(1,): 1, (0,): -1})

    def test_coboundary_of_vertex_cochain(self):
        x = Cochain(D3, 0, {(0,): 5, (1,): 2})
        assert coboundary(x).value((0, 1)) == -(2 - 5)

    def test_dd_and_classical_relation(self):
        rng = random.Random(0)
        for p in (0, 1, 2):
            x = dense(D3, p, rng)
            assert coboundary(coboundary(x)).is_zero()
            c = Chain(D3, p + 2, {s: rng.randint(-2, 2) for s in D3.faces(p + 2)})
            assert boundary(boundary(c)).is_zero()


class TestCoaction:
    def test_unit_word(self):
        t = coaction(D3, (0, 2, 3), Surjection(1, (1,)))
        assert t == TensorChain(D3, 1, {((0, 2, 3),): 1})

    def test_front_back_faces(self):
        K = standard_simplex(1)
        t = coaction(K, (0, 1), Surjection(2, (1, 2)))
        assert t.coeffs == {((0,), (0, 1)): 1, ((0, 1), (1,)): 1}

    def test_three_piece_word_on_edge(self):
        K = standard_simplex(1)
        t = coaction(K, (0, 1), Surjection(2, (1, 2, 1)))
        assert t.coeffs == {((0, 1), (0, 1)): -1}

    def test_tensor_keys_are_checked(self):
        D2 = standard_simplex(2)
        t = TensorChain(D2, 2, {((0,), (0, 1)): 1})
        assert t.factors == 2 and t.complex == D2
        for key in (((0, 1),), ((0,), (0, 1), (1,)), ((0,), (0, 3)), ((0, 1, 2, 3), (0,))):
            for coeff in (1, 0):
                with pytest.raises(ValueError):
                    TensorChain(D2, 2, {key: coeff})

    def test_skeleton_matches_block_reference(self):
        # every word over 1..arity, degenerate and non-surjective ones included
        for arity in (1, 2, 3):
            for m in range(6):
                for entries in itertools.product(range(1, arity + 1), repeat=m):
                    for p in range(6):
                        assert _coaction_skeleton(p, entries, arity) == reference_skeleton(p, entries, arity), (p, entries)


class TestEvaluate:
    def test_unit(self):
        rng = random.Random(1)
        for p in (0, 1, 2):
            x = dense(D3, p, rng)
            assert evaluate(OperadElement.unit(), [x]) == x

    def test_cup_vs_classical(self):
        rng = random.Random(2)
        for px, py in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 1)):
            x, y = dense(D3, px, rng), dense(D3, py, rng)
            got = cup_i(x, y, 0)
            q = px + py
            classical = {}
            for s in D3.faces(q):
                v = x.value(s[: px + 1]) * y.value(s[px:])
                if v:
                    classical[s] = v
            assert got == (-1) ** (px * py) * Cochain(D3, q, classical)

    def test_degree_mismatch_is_zero(self):
        x = dual_cochain(D3, (0, 1))
        y = dual_cochain(D3, (2,))
        e = OperadElement.basis((1, 2, 1))  # lowers degree by 1
        assert evaluate(e, [y, y]).is_zero()
        assert evaluate(e, [x, y]).dim == 0

    def test_no_faces_builds_no_skeleton(self):
        # cochains above the complex's dimension: the result is read off the
        # empty face list, before any overlapping partition is enumerated
        x = Cochain(standard_simplex(2), 1000, {})
        misses = _coaction_skeleton.cache_info().misses
        got = cup_i(x, x, 0)
        assert got.dim == 2000 and got.is_zero()
        assert _coaction_skeleton.cache_info().misses == misses

    def test_cup_leibniz(self):
        rng = random.Random(3)
        for px, py in ((0, 1), (1, 1), (1, 2)):
            x, y = dense(D4, px, rng), dense(D4, py, rng)
            lhs = coboundary(cup_i(x, y, 0))
            rhs = cup_i(coboundary(x), y, 0) + (-1) ** px * cup_i(x, coboundary(y), 0)
            assert lhs == rhs

    def test_cup1_symmetrization(self):
        rng = random.Random(4)
        x, y = dense(D4, 1, rng), dense(D4, 2, rng)
        e = OperadElement.basis((1, 2, 1))
        lhs = evaluate(differential(e), [x, y])
        rhs = evaluate(OperadElement.basis((2, 1)) - OperadElement.basis((1, 2)), [x, y])
        assert lhs == rhs


class TestCupI:
    def test_vanishes_above_min_degree(self):
        rng = random.Random(6)
        x, y = dense(D4, 1, rng), dense(D4, 2, rng)
        assert cup_i(x, y, 2).is_zero()
        assert cup_i(x, y, 3).is_zero()

    def test_negative_i_rejected(self):
        x = dual_cochain(D3, (0,))
        with pytest.raises(ValueError):
            cup_i(x, x, -1)


class TestSteenrod:
    def test_top_square_is_cup_square(self):
        rp2 = projective_plane()
        x = mod2_cohomology_basis(rp2, 1)[0]
        assert steenrod_square(x, 1) == cup_i(x, x, 0).reduce_mod2()

    def test_requires_cocycle(self):
        x = dual_cochain(D3, (0, 1))
        with pytest.raises(NotACocycleError):
            steenrod_square(x, 0)

    def test_projective_plane_generators(self):
        rp2 = projective_plane()
        assert len(mod2_cohomology_basis(rp2, 0)) == 1
        assert len(mod2_cohomology_basis(rp2, 1)) == 1
        assert len(mod2_cohomology_basis(rp2, 2)) == 1

    def test_sq1_is_nonzero_on_projective_plane(self):
        rp2 = projective_plane()
        x = mod2_cohomology_basis(rp2, 1)[0]
        sq1 = steenrod_square(x, 1)
        assert not is_mod2_coboundary(sq1)
        assert mod2_cohomologous(sq1, mod2_cohomology_basis(rp2, 2)[0])

    def test_sq0_is_identity_on_classes(self):
        rp2 = projective_plane()
        x = mod2_cohomology_basis(rp2, 1)[0]
        assert mod2_cohomologous(steenrod_square(x, 0), x)


class TestMod2Cohomology:
    def test_barycentric_rp3_has_one_class_per_degree(self):
        rp3 = barycentric_projective_space(3)
        assert (rp3.n_vertices, len(rp3.faces(3))) == (40, 192)
        for p in range(4):
            (x,) = mod2_cohomology_basis(rp3, p)
            assert coboundary(x).reduce_mod2().is_zero()
            assert not is_mod2_coboundary(x)
        assert mod2_cohomology_basis(rp3, 4) == []

    def test_classes_are_independent_modulo_coboundaries(self):
        # two disjoint circles and a point: H^0 has rank 3 and H^1 rank 2
        circles = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6,)])
        for p, rank in ((0, 3), (1, 2)):
            classes = mod2_cohomology_basis(circles, p)
            assert len(classes) == rank
            for r in range(1, rank + 1):
                for subset in itertools.combinations(classes, r):
                    total = subset[0]
                    for x in subset[1:]:
                        total = total + x
                    assert not is_mod2_coboundary(total)

    def test_degree_zero_coboundaries_are_the_even_cochains(self):
        # there are no (-1)-cochains, so only an even 0-cochain is a coboundary
        assert is_mod2_coboundary(Cochain(D3, 0, {}))
        assert is_mod2_coboundary(Cochain(D3, 0, {(0,): 2, (2,): -4}))
        assert not is_mod2_coboundary(Cochain(D3, 0, {(0,): 2, (1,): 3}))
        assert not is_mod2_coboundary(Cochain(D3, 0, {(v,): 1 for v in range(4)}))


class TestOracles:
    def test_oracle_equal_examples(self):
        e = OperadElement.basis((1, 2, 3, 1, 2))
        assert oracle_equal(differential(e), differential(e))
        composed = compose(OperadElement.basis((1, 2)), [OperadElement.basis((1, 2)), OperadElement.unit()])
        assert oracle_equal(OperadElement.basis((1, 2, 3)), composed)
        assert not oracle_equal(OperadElement.basis((1, 2)), OperadElement.basis((2, 1)))

    def test_differential_oracle_exhaustive_small(self):
        rng = random.Random(7)
        for k in (1, 2):
            for d in range(0, 3):
                for f in enumerate_basis(k, d):
                    e = OperadElement.basis(f.entries, k)
                    dims = [rng.choice((0, 1)) for _ in range(k)]
                    K = standard_simplex(max(sum(dims), 1))
                    xs = [dense(K, p, rng) for p in dims]
                    assert evaluate(differential(e), xs) == operator_differential(evaluate, coboundary, DIM, e, xs)

    def test_differential_oracle_arity_three_sweep(self):
        # one random degree tuple per basis word through length 5
        rng = random.Random(17)
        for d in range(0, 3):
            for f in enumerate_basis(3, d):
                e = OperadElement.basis(f.entries, 3)
                dims = [rng.choice((0, 1, 2)) for _ in range(3)]
                K = standard_simplex(max(sum(dims), 1))
                xs = [dense(K, p, rng) for p in dims]
                assert evaluate(differential(e), xs) == operator_differential(evaluate, coboundary, DIM, e, xs)

    def test_permutation_oracle(self):
        rng = random.Random(8)
        hits = 0
        for _ in range(60):
            k = rng.choice((2, 3))
            d = rng.choice((0, 1, 2))
            f = rng.choice(enumerate_basis(k, d))
            e = OperadElement.basis(f.entries, k)
            rho = tuple(rng.sample(range(1, k + 1), k))
            dims = [rng.choice((0, 1, 2)) for _ in range(k)]
            K = standard_simplex(max(sum(dims), 1))
            xs = [dense(K, p, rng) for p in dims]
            lhs = evaluate(act(e, rho), xs)
            assert lhs == permuted_evaluate(evaluate, DIM, e, rho, xs)
            hits += 0 if lhs.is_zero() else 1
        assert hits > 10

    def test_composition_oracle(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(40):
            k = rng.choice((1, 2))
            f = rng.choice(enumerate_basis(k, rng.choice((0, 1)) if k > 1 else 0))
            e = OperadElement.basis(f.entries, k)
            inner = []
            for _ in range(k):
                kg = rng.choice((1, 2))
                dg = rng.choice((0, 1)) if kg > 1 else 0
                inner.append(OperadElement.basis(rng.choice(enumerate_basis(kg, dg)).entries, kg))
            n = sum(g.arity for g in inner)
            dims = [rng.choice((0, 1)) for _ in range(n)]
            K = standard_simplex(max(sum(dims), 1))
            xs = [dense(K, p, rng) for p in dims]
            lhs = evaluate(compose(e, inner), xs)
            assert lhs == nested_evaluate(evaluate, DIM, e, inner, xs)
            hits += 0 if lhs.is_zero() else 1
        assert hits > 5
