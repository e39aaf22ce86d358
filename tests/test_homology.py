import copy
import itertools
import math
import random

import pytest

from seqop.combinatorics import Surjection
from seqop.homology import (
    ChainComplexError,
    GradedComplex,
    HomologyGroup,
    SparseIntMatrix,
    _eliminate_units,
    _Reducer,
    build_word_complex,
    complex_from_word_basis,
    homology,
    invariant_factors,
)


def from_dense(dense):
    """A sparse matrix holding the nonzero entries of a dense one."""
    m = SparseIntMatrix(len(dense), len(dense[0]) if dense else 0)
    for r, row in enumerate(dense):
        cells = {c: v for c, v in enumerate(row) if v}
        if cells:
            m.data[r] = cells
    return m


def bareiss_det(mat):
    a = [row[:] for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_factors(dense):
    """Invariant factors from determinantal divisors, independent of any
    elimination: d_k is the gcd of all k x k minors and s_k = d_k / d_(k-1)."""
    rows = len(dense)
    cols = len(dense[0]) if dense else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, bareiss_det([[dense[r][c] for c in cs] for r in rs]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


class TestSmith:
    def test_single_entry(self):
        assert invariant_factors(from_dense([[2]])) == [2]
        assert determinantal_factors([[2]]) == [2]

    def test_two_by_two(self):
        dense = [[2, 4], [6, 8]]
        assert invariant_factors(from_dense(dense)) == [2, 4]
        assert determinantal_factors(dense) == [2, 4]

    def test_non_unit_diagonal_and_remainders(self):
        # a gcd/lcm pass on the diagonal; a remainder left in the pivot row,
        # then one left in the pivot column
        cases = [
            ([[2, 0], [0, 3]], [1, 6]),
            ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
            ([[2, 3]], [1]),
            ([[2], [3]], [1]),
        ]
        for dense, want in cases:
            assert invariant_factors(from_dense(dense)) == want
            assert determinantal_factors(dense) == want

    def test_zero_matrix(self):
        assert invariant_factors(SparseIntMatrix(2, 3)) == []
        assert determinantal_factors([[0, 0, 0], [0, 0, 0]]) == []

    def test_random_matrices(self):
        rng = random.Random(0)
        for _ in range(40):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            dense = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(c)] for _ in range(r)]
            assert invariant_factors(from_dense(dense)) == determinantal_factors(dense)

    def test_rank(self):
        assert len(invariant_factors(from_dense([[1, 2], [2, 4]]))) == 1

    def test_pivot_scan_when_the_shortest_row_has_no_unit(self, monkeypatch):
        # the unit pass takes every unit there is; the Smith loop's scan then
        # picks the least entry, a unit whenever a remainder has made one
        picked = []
        scan = _Reducer._scan_pivot

        def spy(self):
            r, c = scan(self)
            picked.append(abs(self.rows[r][c]))
            return r, c

        monkeypatch.setattr(_Reducer, "_scan_pivot", spy)
        # the pass pivots on (2, 1), then on (1, 0), which leaves 32 at (0, 2)
        units_elsewhere = [[2, 0, 0], [1, 3, 5], [0, 1, 7]]
        assert invariant_factors(from_dense(units_elsewhere)) == determinantal_factors(units_elsewhere) == [1, 1, 32]
        assert picked[0] == 32
        picked.clear()
        no_unit = [[4, 6, 0], [6, 9, 15], [0, 10, 4]]
        assert invariant_factors(from_dense(no_unit)) == determinantal_factors(no_unit)
        assert picked[0] == 4
        picked.clear()

        rng = random.Random(1)
        for _ in range(40):
            r, c = rng.randint(2, 5), rng.randint(2, 5)
            values = (0, 0, 2, -2, 3, -3, 4, 6, -9) if rng.random() < 0.5 else (0, 0, 2, -3, 4, -6, 1)
            dense = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
            assert invariant_factors(from_dense(dense)) == determinantal_factors(dense)
        assert 1 in picked and any(v > 1 for v in picked)

    def test_column_index_is_the_transpose_of_the_rows(self, monkeypatch):
        # before every drop, each column list holds exactly the live rows
        # with an entry in that column, each once
        drop = _Reducer._drop
        drops = []

        def spy(self, r, piv):
            transpose = {}
            for r2, row in self.rows.items():
                for c in row:
                    transpose.setdefault(c, []).append(r2)
            assert set(transpose) <= set(self.colmap)
            for c, rs in self.colmap.items():
                assert sorted(rs) == sorted(set(rs)) == sorted(transpose.get(c, []))
            drops.append(abs(piv))
            return drop(self, r, piv)

        monkeypatch.setattr(_Reducer, "_drop", spy)
        rng = random.Random(26)
        for _ in range(300):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            dense = [[rng.choice((0, 0, 1, -1, 2, -2, 3, 4, -6, 9)) for _ in range(c)] for _ in range(r)]
            assert invariant_factors(from_dense(dense)) == determinantal_factors(dense)
        assert len(drops) > 600 and any(v > 1 for v in drops)


class TestHomology:
    def test_times_two_complex(self):
        C = GradedComplex({0: ("a",), 1: ("b",)}, {1: from_dense([[2]])})
        groups = homology(C)
        assert groups[0].rank == 0 and groups[0].torsion == (2,)
        assert groups[1].complete is False

    def test_torsion_is_in_divisibility_order(self):
        C = GradedComplex({0: ("a", "b"), 1: ("c", "d")}, {1: from_dense([[2, 0], [0, 3]])})
        groups = homology(C)
        assert groups[0].rank == 0 and groups[0].torsion == (6,)

    def test_shapes_that_do_not_compose_refused(self):
        bad = GradedComplex(
            {0: ("a",), 1: ("b", "c"), 2: ("e",)},
            {1: from_dense([[1, -1]]), 2: from_dense([[1], [1], [0]])},
        )
        with pytest.raises(ChainComplexError, match="do not compose"):
            bad.validate()

    def test_square_nonzero_refused(self):
        bad = GradedComplex(
            {0: ("a",), 1: ("b",), 2: ("c",)},
            {
                1: from_dense([[1]]),
                2: from_dense([[1]]),
            },
        )
        with pytest.raises(ChainComplexError):
            homology(bad)

    def test_escaping_boundary_refused(self):
        bases = {
            0: [Surjection(2, (1, 2))],  # missing (2, 1)
            1: [Surjection(2, (1, 2, 1))],
        }
        with pytest.raises(ChainComplexError):
            complex_from_word_basis(bases)


def per_differential_homology(C):
    """The homology formula from one Smith form per differential of C, with
    no elimination across degrees: the reference for :func:`homology`."""
    top = C.max_degree
    factors = {q: invariant_factors(M) for q, M in C.diffs.items()}
    out = {}
    for q in range(top + 1):
        rank_q = len(factors.get(q, ())) if q > 0 else 0
        above = factors.get(q + 1, []) if q < top else []
        torsion = tuple(f for f in above if f != 1)
        out[q] = HomologyGroup(C.dim(q) - rank_q - len(above), torsion, complete=q < top)
    return out


def cyclic_invariants(orders):
    """Invariant factors of the sum of Z/n over ``orders`` (n in {2, 3, 4,
    6}): the i-th largest factor takes the i-th largest power of each prime."""
    powers = {}
    for n in orders:
        for p in (2, 3):
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e:
                powers.setdefault(p, []).append(e)
    out = [1] * max(map(len, powers.values()), default=0)
    for p, exps in powers.items():
        for i, e in enumerate(sorted(exps, reverse=True)):
            out[i] *= p**e
    return tuple(sorted(out))


def random_unimodular(rng, n):
    """A random integer matrix of determinant +-1 and its inverse."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((-2, -1, 1, 2))
        for k in range(n):  # U <- (1 + a e_ij) U, V <- V (1 - a e_ij)
            U[i][k] += a * U[j][k]
            V[k][j] -= a * V[k][i]
    return U, V


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def torsion_complex(rng, top):
    """A complex through degree ``top``, conjugated by random unimodular
    bases, that is a sum of free cells and pieces Z --n--> Z, with its known
    homology.  Pieces from degree top + 1 are cut away with that degree, so
    the top group is a truncated upper bound."""
    free = [rng.randint(0, 2) for _ in range(top + 2)]
    pieces = [(q, rng.choice((1, 2, 3, 4, 6))) for q in range(1, top + 2) for _ in range(rng.randint(0, 3))]
    cells = {q: [("free", i) for i in range(free[q])] for q in range(top + 2)}
    for i, (q, n) in enumerate(pieces):
        cells[q].append(("x", i))
        cells[q - 1].append(("y", i))
    for q in cells:
        rng.shuffle(cells[q])
    changes = {q: random_unimodular(rng, len(cells[q])) for q in range(top + 1)}
    diffs = {}
    for q in range(1, top + 1):
        rows, cols = cells[q - 1], cells[q]
        dense = [[0] * len(cols) for _ in rows]
        for i, (q2, n) in enumerate(pieces):
            if q2 == q:
                dense[rows.index(("y", i))][cols.index(("x", i))] = n
        if rows and cols:
            dense = matmul(matmul(changes[q - 1][0], dense), changes[q][1])
        diffs[q] = SparseIntMatrix(len(rows), len(cols))
        diffs[q].data = from_dense(dense).data
    known = {}
    for q in range(top + 1):
        if q < top:
            orders = [n for q2, n in pieces if q2 == q + 1 and n != 1]
            known[q] = HomologyGroup(free[q], cyclic_invariants(orders))
        else:
            cut = sum(1 for q2, _ in pieces if q2 == top + 1)
            known[q] = HomologyGroup(free[q] + cut, (), complete=False)
    return GradedComplex({q: cells[q] for q in range(top + 1)}, diffs), known


def assert_no_unit_and_no_zero(red):
    """The unit pass's postcondition on one reducer; returns its entries."""
    entries = [v for row in red.rows.values() for v in row.values()]
    assert all(v not in (0, 1, -1) for v in entries)
    return len(entries)


class TestUnitElimination:
    def test_random_torsion_complexes(self, monkeypatch):
        # every Smith loop starts from a residue without units, in homology
        # and in the single-matrix passes of the invariant_factors reference
        run = _Reducer.run
        runs = []

        def spy(self):
            runs.append(assert_no_unit_and_no_zero(self))
            return run(self)

        monkeypatch.setattr(_Reducer, "run", spy)
        rng = random.Random(25)
        left = 0
        for _ in range(240):
            C, known = torsion_complex(rng, rng.randint(1, 4))
            groups = homology(C)
            assert groups == known
            assert groups == per_differential_homology(C)
            for red in _eliminate_units(C.diffs).values():
                left += assert_no_unit_and_no_zero(red)
        assert left  # some complexes leave non-unit residues for Smith
        assert len(runs) > 480 and any(runs)

    def test_only_the_unit_pass_uses_the_heap(self):
        # the pass returns once every heap has run dry, and the Smith loop's
        # row operations push nothing, so no entry is left after run
        rng = random.Random(28)
        cases = [{0: from_dense([[rng.choice((0, 2, -2, 3, 4, -6, 9)) for _ in range(8)] for _ in range(8)])} for _ in range(200)]
        cases += [torsion_complex(rng, rng.randint(1, 4))[0].diffs for _ in range(40)]
        for diffs in cases:
            reducers = _eliminate_units(diffs).values()
            assert not any(red.heap for red in reducers)
            for red in reducers:
                red.run()
                assert not red.rows and not red.heap

    def test_pivot_deletes_its_cells_from_the_neighbouring_differentials(self):
        # d3 w = 3z - z', d2 z = x + y, d2 z' = 3x + 3y, d1 x = 2a, d1 y = -2a:
        # the pivot at (z', w) of d3 deletes column z' of d2, and the pivot
        # at (x, z) of d2 then deletes column x of d1
        C = GradedComplex(
            {0: "a", 1: "xy", 2: ("z", "z'"), 3: "w"},
            {1: from_dense([[2, -2]]), 2: from_dense([[1, 3], [1, 3]]), 3: from_dense([[3], [-1]])},
        )
        out = _eliminate_units(C.diffs)
        assert [(len(red.diagonal), red.rows) for red in out.values()] == [(0, {0: {1: -2}}), (1, {}), (1, {})]
        # d3 w = 2z - 2z', d2 z = d2 z' = x: the pivot at (x, z') of d2 deletes row z' of d3
        C = GradedComplex({1: "x", 2: ("z", "z'"), 3: "w"}, {2: from_dense([[1, 1]]), 3: from_dense([[2], [-2]])})
        out = _eliminate_units(C.diffs)
        assert [(len(red.diagonal), len(red.rows)) for red in out.values()] == [(1, 0), (0, 1)]
        assert homology(C)[2] == HomologyGroup(0, (2,))

    def test_inputs_are_not_mutated(self):
        # rows are shared with the input until their first write: Schur
        # updates, downward column deletions and non-unit row reductions
        # each write a copy, never the complex's own rows
        rng = random.Random(25)
        complexes = [torsion_complex(rng, rng.randint(1, 4))[0] for _ in range(240)]
        complexes.append(build_word_complex(4, None, 3))
        for C in complexes:
            before = copy.deepcopy({q: M.data for q, M in C.diffs.items()})
            homology(C)
            assert {q: M.data for q, M in C.diffs.items()} == before
            _eliminate_units(C.diffs)
            assert {q: M.data for q, M in C.diffs.items()} == before
            for M in C.diffs.values():
                invariant_factors(M)
            assert {q: M.data for q, M in C.diffs.items()} == before

    def test_residues_hold_no_zero(self):
        # the Schur update of the pivot at (0, 0) cancels the entry at (1, 1);
        # a stored 0 there could become a zero pivot in the Smith loop
        C = GradedComplex({0: ("a", "b"), 1: ("x", "y", "z")}, {1: from_dense([[1, 1, 2], [1, 1, 4]])})
        (red,) = _eliminate_units(C.diffs).values()
        assert red.diagonal == [1] and red.rows == {1: {2: 2}}
        groups = homology(C)
        assert groups[0] == HomologyGroup(0, (2,)) and groups[1].rank == 1


class TestWordComplexes:
    def test_arity_two_dims(self):
        C = build_word_complex(2, 3)
        assert [C.dim(d) for d in range(4)] == [2, 2, 2, 2]

    def test_arity_three_degree_zero(self):
        assert build_word_complex(3, 0).dim(0) == 6

    def test_arity_zero(self):
        C = build_word_complex(0, 2)
        assert [C.dim(d) for d in range(3)] == [1, 0, 0]
        groups = homology(C)
        assert groups[0].rank == 1 and groups[1].rank == 0

    def test_full_complex_is_a_point(self):
        C = build_word_complex(2, 6)
        groups = homology(C)
        assert groups[0].rank == 1 and not groups[0].torsion
        assert all(groups[q].rank == 0 and not groups[q].torsion for q in range(1, 6))

    def test_stage_two_circle(self):
        C = build_word_complex(2, 3, max_complexity=2)
        groups = homology(C)
        assert [groups[q].rank for q in range(3)] == [1, 1, 0]
        assert all(not groups[q].torsion for q in range(3))

    def test_stage_one_two_points(self):
        C = build_word_complex(2, 2, max_complexity=1)
        groups = homology(C)
        assert groups[0].rank == 2 and groups[1].rank == 0

    def test_stage_two_arity_three_betti(self):
        C = build_word_complex(3, 4, max_complexity=2)
        groups = homology(C)
        assert [groups[q].rank for q in range(4)] == [1, 3, 2, 0]
        assert all(not groups[q].torsion for q in range(4))
