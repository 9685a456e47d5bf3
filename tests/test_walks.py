import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup.lattice import fold_octant, l1, symmetry_orbit
from loopsoup.walks import (ENDPOINT_SWEEP_MAX_STEPS, WalkCountTable,
                            count_walks_diagonal, verify_dominance,
                            walk_endpoint_counts)

O = (0, 0)


class TestBruteForce:
    """Spot values of the enumeration oracle, the endpoint sweep."""

    def test_two_step_loops(self):
        assert walk_endpoint_counts(2)[(0, 0)] == 4

    def test_four_step_loops(self):
        assert walk_endpoint_counts(4)[(0, 0)] == 36

    def test_two_steps_to_diagonal(self):
        assert walk_endpoint_counts(2)[(1, 1)] == 2

    def test_parity_blocks_odd_loops(self):
        assert (0, 0) not in walk_endpoint_counts(3)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            walk_endpoint_counts(ENDPOINT_SWEEP_MAX_STEPS + 1)


class TestDpTable:
    def test_origin_loops(self):
        assert WalkCountTable.build(6).count(6, (0, 0)) == 400

    def test_spot_value_vs_bruteforce(self):
        assert WalkCountTable.build(4).count(4, (2, 0)) == 16

    def test_interior_recursion(self):
        t = WalkCountTable.build(5)
        nbrs = [(2, 0), (0, 0), (1, 1), (1, -1)]
        assert t.count(5, (1, 0)) == sum(t.count(4, y) for y in nbrs)

    def test_column_sums(self):
        t = WalkCountTable.build(8)
        for n in range(9):
            total = sum(w * len(symmetry_orbit(p)) for p, w in t.level_items(n))
            assert total == 4 ** n

    def test_closed_loops_match_formula(self, big_walk_table):
        for n in range(1, 101):
            assert big_walk_table.count(2 * n, O) == count_walks_diagonal(2 * n, O)


class TestClosedForms:
    def test_small_loop_counts(self):
        assert count_walks_diagonal(2, O) == 4
        assert count_walks_diagonal(4, O) == 36

    def test_large_loop_count_exact(self):
        assert count_walks_diagonal(20, O) == 184756 ** 2 == 34134779536

    def test_diagonal_two_step(self):
        assert count_walks_diagonal(2, (1, 1)) == 2

    def test_diagonal_reduces_to_loop_count(self):
        for n in range(1, 9):
            assert count_walks_diagonal(2 * n, O) == math.comb(2 * n, n) ** 2

    def test_diagonal_spot_value(self):
        assert count_walks_diagonal(4, (2, 0)) == 16


class TestOracleEquivalence:
    def test_three_way_agreement(self):
        for n in range(0, 9):
            tally = walk_endpoint_counts(n)
            table = WalkCountTable.build(n) if n else None
            for x, w in tally.items():
                assert count_walks_diagonal(n, x) == w
                if table is not None:
                    assert table.count(n, x) == w

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.integers(-10, 10), st.integers(-10, 10))
    def test_diagonal_symmetry(self, n, x1, x2):
        w = count_walks_diagonal(n, (x1, x2))
        for p in symmetry_orbit((x1, x2)):
            assert count_walks_diagonal(n, p) == w

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(-12, 12), st.integers(-12, 12))
    def test_parity_and_range(self, n, x1, x2):
        w = count_walks_diagonal(n, (x1, x2))
        if (n - l1((x1, x2))) % 2 or n < l1((x1, x2)):
            assert w == 0
        elif n == l1((x1, x2)):
            assert w >= 1


class TestDominance:
    def test_no_violations(self):
        rep = verify_dominance(10)
        assert rep.ok and rep.checked > 0

    def test_spot_value(self):
        t = WalkCountTable.build(8)
        assert t.count(8, (2, 2)) <= t.count(8, (0, 0)) == 4900

    def test_origin_is_never_a_violation(self):
        rep = verify_dominance(8)
        assert all(p != (0, 0) for _, p, _, _ in rep.violations)


class TestLattice:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_fold_idempotent(self, a, b):
        f = fold_octant((a, b))
        assert fold_octant(f) == f
        assert f[0] >= f[1] >= 0
        assert l1(f) == l1((a, b))
