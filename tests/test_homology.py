import itertools
import math
import random

import pytest

from seqop.combinatorics import Surjection
from seqop.homology import (
    ChainComplexError,
    GradedComplex,
    SparseIntMatrix,
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
        # the shortest live row holds no unit: the whole-matrix scan takes a
        # unit from another row when there is one, else the least entry
        picked = []
        scan = _Reducer._scan_pivot

        def spy(self):
            r, c = scan(self)
            picked.append(abs(self.rows[r][c]))
            return r, c

        monkeypatch.setattr(_Reducer, "_scan_pivot", spy)
        units_elsewhere = [[2, 0, 0], [1, 3, 5], [0, 1, 7]]
        no_unit = [[4, 6, 0], [6, 9, 15], [0, 10, 4]]
        for dense in (units_elsewhere, no_unit):
            assert invariant_factors(from_dense(dense)) == determinantal_factors(dense)
        assert picked[0] == 1 and 4 in picked

        rng = random.Random(1)
        for _ in range(40):
            r, c = rng.randint(2, 5), rng.randint(2, 5)
            values = (0, 0, 2, -2, 3, -3, 4, 6, -9) if rng.random() < 0.5 else (0, 0, 2, -3, 4, -6, 1)
            dense = [[rng.choice(values) for _ in range(c)] for _ in range(r)]
            assert invariant_factors(from_dense(dense)) == determinantal_factors(dense)
        assert 1 in picked[2:] and any(v > 1 for v in picked[2:])


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


class TestWordComplexes:
    def test_arity_two_dims(self):
        C = build_word_complex(2, 3)
        assert [C.dim(d) for d in range(4)] == [2, 2, 2, 2]

    def test_arity_three_degree_zero(self):
        assert build_word_complex(3, 0).dim(0) == 6

    def test_arity_zero(self):
        C = build_word_complex(0, 2)
        assert [C.dim(d) for d in range(3)] == [1, 0, 0]
        groups = homology(C, 1)
        assert groups[0].rank == 1 and groups[1].rank == 0

    def test_full_complex_is_a_point(self):
        C = build_word_complex(2, 6)
        groups = homology(C, 5)
        assert groups[0].rank == 1 and not groups[0].torsion
        assert all(groups[q].rank == 0 and not groups[q].torsion for q in range(1, 6))

    def test_stage_two_circle(self):
        C = build_word_complex(2, 3, max_complexity=2)
        groups = homology(C, 2)
        assert [groups[q].rank for q in range(3)] == [1, 1, 0]
        assert all(not groups[q].torsion for q in range(3))

    def test_stage_one_two_points(self):
        C = build_word_complex(2, 2, max_complexity=1)
        groups = homology(C, 1)
        assert groups[0].rank == 2 and groups[1].rank == 0

    def test_stage_two_arity_three_betti(self):
        C = build_word_complex(3, 4, max_complexity=2)
        groups = homology(C, 3)
        assert [groups[q].rank for q in range(4)] == [1, 3, 2, 0]
        assert all(not groups[q].torsion for q in range(4))
