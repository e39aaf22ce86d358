import itertools
import random
from math import comb
from operator import attrgetter

import pytest

from seqop.combinatorics import (
    InputError,
    complexity,
    enumerate_basis,
    epsilon_parity,
    koszul_parity,
    partition_size_compositions,
    perm_inverse,
    zeta_parity,
)
from seqop.hochschild import (
    FiniteRing,
    HochschildCochain,
    RingError,
    _eval_word,
    _maximal_segments,
    brace,
    cup,
    dual_numbers,
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


def from_vectors(ring, degree, table):
    """The cochain whose value on the args ``key`` is the vector ``table[key]``."""
    return HochschildCochain(ring, degree, {(key, l): c for key, v in table.items() for l, c in enumerate(v)})


def constant_cochain(ring, vector):
    """A degree-0 cochain: one ring element."""
    return from_vectors(ring, 0, {(): vector})


def random_cochain(ring, degree, rng, density=None):
    """Entries in -2..2 on every key of the degree; with a ``density``, each
    entry is kept with that probability."""
    table = {}
    for args in itertools.product(range(1, ring.rank), repeat=degree):
        for l in range(ring.rank):
            c = rng.randint(-2, 2)
            if density is None or rng.random() < density:
                table[args, l] = c
    return HochschildCochain(ring, degree, table)


def eval_word(word, cochains, ring=None):
    """``_eval_word`` behind the checks on its input: complexity <= 2 and
    degree(x_i) + 1 occurrences of each value i the word uses."""
    word = tuple(word)
    if ring is None:
        if not cochains:
            raise ValueError("need a ring when no cochains are given")
        ring = cochains[0].ring
    arity = max(word, default=0)
    if arity > len(cochains):
        raise ValueError(f"word uses value {arity} but only {len(cochains)} cochains given")
    if complexity(word, arity) > 2:
        raise ValueError(f"{word} has complexity > 2")
    for i in range(1, arity + 1):
        count = sum(1 for u in word if u == i)
        if count and count != cochains[i - 1].degree + 1:
            raise ValueError(f"value {i} occurs {count} times but cochain degree is {cochains[i - 1].degree}")
    return _eval_word(word, cochains, ring)


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
        with pytest.raises(InputError, match="nonzero basis indices"):
            HochschildCochain(ring, 1, {((0,), 1): 1})
        with pytest.raises(InputError, match="value index"):
            HochschildCochain(ring, 1, {((1,), 2): 1})

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


# ---------------------------------------------------------------------------
# Reference: theta by segment/substitution recursion.  Each word is relabeled
# so that its maximal segments (or its outer value and the gaps between its
# occurrences) carry consecutive values, with the zeta and Koszul signs of
# the relabeling; segments are cupped, gaps substituted, and the recursion
# bottoms out in the partition sum on the interleaved word 1 2 1 3 ... 1,
# signed by the coaction parity, (m - k) * sum(degrees) and the number of
# position pairs on which the word repeats a value.
# ---------------------------------------------------------------------------


def reference_pair_parity(entries, arity):
    return sum(comb(entries.count(i), 2) for i in range(1, arity + 1)) % 2


def reference_standardize(word):
    values = sorted(set(word))
    index = {v: i + 1 for i, v in enumerate(values)}
    return tuple(index[v] for v in word), values


def reference_theta_basis(entries, cochains, ring):
    k = len(cochains)
    if len(entries) == 1:
        return cochains[0]
    spans = _maximal_segments(entries)
    if len(spans) > 1:
        blocks = [sorted(set(entries[lo : hi + 1])) for lo, hi in spans]
    else:
        outer = entries[0]
        slots = [pos for pos, v in enumerate(entries) if v == outer]
        gaps = [entries[a + 1 : b] for a, b in zip(slots, slots[1:])]
        blocks = [[outer]] + [sorted(set(gap)) for gap in gaps]
    lam = [0] * k
    next_value = 1
    for block in blocks:
        for v in block:
            lam[v - 1] = next_value
            next_value += 1
    lam_inv = perm_inverse(lam)
    zeta = zeta_parity(entries, k, lam_inv)
    koszul = koszul_parity(lam_inv, [x.degree for x in cochains])
    permuted = [cochains[lam_inv[a] - 1] for a in range(k)]
    relabeled = tuple(lam[v - 1] for v in entries)
    value = reference_theta_ordered(relabeled, permuted, ring)
    return -value if (zeta + koszul) % 2 else value


def reference_theta_ordered(entries, cochains, ring):
    spans = _maximal_segments(entries)
    if len(spans) > 1:
        parity = 0
        moved = 0
        out = None
        for lo, hi in spans:
            word, values = reference_standardize(entries[lo : hi + 1])
            block = [cochains[v - 1] for v in values]
            parity += ((hi - lo + 1) - len(values)) * moved
            moved += sum(x.degree for x in block)
            piece = reference_theta_basis(word, block, ring)
            out = piece if out is None else cup(out, piece)
        return -out if parity % 2 else out
    outer = entries[0]
    slots = [pos for pos, v in enumerate(entries) if v == outer]
    gaps = [entries[a + 1 : b] for a, b in zip(slots, slots[1:])]
    parity = 0
    moved = cochains[0].degree
    inner = [cochains[0]]
    for gap in gaps:
        word, values = reference_standardize(gap)
        block = [cochains[v - 1] for v in values]
        parity += (len(gap) - len(values)) * moved
        moved += sum(x.degree for x in block)
        inner.append(reference_theta_basis(word, block, ring))
    value = reference_brace_word_action(len(gaps), inner, ring)
    return -value if parity % 2 else value


def reference_brace_word_action(num_slots, cochains, ring):
    entries = []
    for j in range(num_slots):
        entries.extend((1, j + 2))
    entries = tuple(entries) + (1,)
    m = len(entries)
    arity = num_slots + 1
    degrees = [x.degree for x in cochains]
    out_degree = sum(degrees) - (m - arity)
    acc = HochschildCochain(ring, out_degree, {})
    if out_degree < 0:
        return acc
    fibers = [tuple(j for j, u in enumerate(entries) if u == i) for i in range(1, arity + 1)]
    base = (m - arity) * sum(degrees) + reference_pair_parity(entries, arity)
    for sizes in partition_size_compositions(out_degree + 1, m):
        if any(sum(sizes[j] for j in fiber) != degrees[i] + 1 for i, fiber in enumerate(fibers)):
            continue
        word = tuple(u for u, size in zip(entries, sizes) for _ in range(size))
        parity = (epsilon_parity(entries, sizes) + base) % 2
        acc = acc + (-1 if parity else 1) * _eval_word(word, cochains, ring)
    return acc


class TestThetaReference:
    def test_matches_recursion_on_small_words(self):
        # every complexity <= 2 word of arity 1-3 and degree 0-3, cochain
        # degrees 0-2 with output degree 0-2, over the three shipped rings
        rng = random.Random(16)
        cases = nonzero = 0
        for ring in RINGS:
            for k in (1, 2, 3):
                for d in range(4):
                    for f in enumerate_basis(k, d):
                        if complexity(f.entries, k) > 2:
                            continue
                        for degs in itertools.product(range(3), repeat=k):
                            if not 0 <= sum(degs) - d <= 2:
                                continue
                            xs = [random_cochain(ring, p, rng) for p in degs]
                            got = theta(OperadElement.basis(f.entries, k), xs)
                            assert got == reference_theta_basis(f.entries, xs, ring), (f.entries, degs)
                            cases += 1
                            nonzero += not got.is_zero()
        assert cases == 1815
        assert nonzero == 718


# ---------------------------------------------------------------------------
# Reference: the coordinate-vector formulas, which loop over every key of
# the output degree and read the input through ``value()``.
# ---------------------------------------------------------------------------


def reference_keys(ring, degree):
    return itertools.product(range(1, ring.rank), repeat=degree)


def reference_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def reference_scale(s, u):
    return tuple(s * a for a in u)


def reference_eval_vectors(x, vectors):
    """Multilinear evaluation on ring elements; unit components die."""
    acc = x.ring.zero
    for key in reference_keys(x.ring, x.degree):
        coeff = 1
        for t, vec in zip(key, vectors):
            coeff *= vec[t]
        acc = reference_add(acc, reference_scale(coeff, x.value(key)))
    return acc


def reference_hochschild_d(x):
    """Outer multiplications at the ends, adjacent products with sign (-1)^i
    in the middle, (-1)^{p+1} at the far end."""
    ring, p = x.ring, x.degree
    table = {}
    for key in reference_keys(ring, p + 1):
        total = ring.mul(ring.basis_vector(key[0]), x.value(key[1:]))
        for i in range(1, p + 1):
            prod = ring.table[key[i - 1]][key[i]]
            inner = ring.zero
            for l in range(1, ring.rank):
                inner = reference_add(inner, reference_scale(prod[l], x.value(key[: i - 1] + (l,) + key[i + 1 :])))
            total = reference_add(total, reference_scale((-1) ** i, inner))
        last = ring.mul(x.value(key[:p]), ring.basis_vector(key[p]))
        table[key] = reference_add(total, reference_scale((-1) ** (p + 1), last))
    return from_vectors(ring, p + 1, table)


def reference_cup(x, y):
    ring = x.ring
    table = {}
    for kx in reference_keys(ring, x.degree):
        for ky in reference_keys(ring, y.degree):
            table[kx + ky] = ring.mul(x.value(kx), y.value(ky))
    return from_vectors(ring, x.degree + y.degree, table)


def reference_brace(x, args):
    ring = x.ring
    out_degree = sum(y.degree for y in args)
    table = {}
    for key in reference_keys(ring, out_degree):
        vectors, pos = [], 0
        for y in args:
            vectors.append(y.value(key[pos : pos + y.degree]))
            pos += y.degree
        table[key] = reference_eval_vectors(x, vectors)
    return from_vectors(ring, out_degree, table)


class TestVectorReference:
    # dense, and sparse with each entry kept with probability 0.3; three
    # draws per ring, density and degree
    CASES = [(ring, density, p) for ring in RINGS for density in (None, 0.3) for p in range(4) for _ in range(3)]

    def test_hochschild_d_and_cup(self):
        rng = random.Random(17)
        nonzero = [0, 0]
        for ring, density, p in self.CASES:
            x = random_cochain(ring, p, rng, density)
            y = random_cochain(ring, rng.randrange(4), rng, density)
            dx, xy = hochschild_d(x), cup(x, y)
            assert dx == reference_hochschild_d(x), (ring.names, p, density)
            assert xy == reference_cup(x, y), (ring.names, p, y.degree, density)
            nonzero[0] += not dx.is_zero()
            nonzero[1] += not xy.is_zero()
        assert nonzero == [33, 45]  # of 72 cases

    def test_brace(self):
        rng = random.Random(18)
        nonzero = 0
        for ring, density, p in self.CASES:
            x = random_cochain(ring, p, rng, density)
            ys = [random_cochain(ring, rng.randrange(3), rng, density) for _ in range(p)]
            got = brace(x, ys)
            assert got == reference_brace(x, ys), (ring.names, p, [y.degree for y in ys], density)
            nonzero += not got.is_zero()
        assert nonzero == 39  # of 72 cases


class TestHighDegree:
    """One entry of degree 40: a loop over the 2^40 keys of that degree
    would never finish, while the entries give the answer at once."""

    N = 40

    def test_hochschild_d_of_one_entry(self):
        ring = upper_triangular()
        x = HochschildCochain(ring, self.N, {((2,) * self.N, 2): 1})
        assert hochschild_d(x).coeffs == {((1,) + (2,) * self.N, 1): 1}

    def test_brace_of_one_entry(self):
        ring = upper_triangular()
        x1 = from_vectors(ring, 1, {(1,): (0, 1, 0), (2,): (1, 0, 1)})
        x2 = HochschildCochain(ring, self.N, {((2,) * self.N, 2): 1})
        assert brace(x1, [x2]).coeffs == {((2,) * self.N, 0): 1, ((2,) * self.N, 2): 1}
