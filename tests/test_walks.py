import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup.lattice import (diagonal_coords, fold_octant, l1,
                              symmetry_orbit)
from loopsoup.walks import (BRUTE_FORCE_MAX_STEPS, WalkCountTable,
                            count_loops_closed_form, count_walks_bruteforce,
                            count_walks_diagonal, verify_dominance,
                            walk_endpoint_counts)


class TestBruteForce:
    def test_two_step_loops(self):
        assert count_walks_bruteforce(2, (0, 0)) == 4

    def test_four_step_loops(self):
        assert count_walks_bruteforce(4, (0, 0)) == 36

    def test_two_steps_to_diagonal(self):
        assert count_walks_bruteforce(2, (1, 1)) == 2

    def test_parity_blocks_odd_loops(self):
        assert count_walks_bruteforce(3, (0, 0)) == 0

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            count_walks_bruteforce(BRUTE_FORCE_MAX_STEPS + 1, (0, 0))

    def test_matches_endpoint_tally(self):
        for n in range(0, 7):
            tally = walk_endpoint_counts(n)
            for x in [(0, 0), (1, 0), (2, 1), (n, 0), (1, 1)]:
                assert count_walks_bruteforce(n, x) == tally.get(x, 0)


class TestDpTable:
    def test_origin_loops(self):
        assert WalkCountTable.build(6, 6).count(6, (0, 0)) == 400

    def test_spot_value_vs_bruteforce(self):
        assert WalkCountTable.build(4, 4).count(4, (2, 0)) == 16

    def test_interior_recursion(self):
        t = WalkCountTable.build(5, 5)
        nbrs = [(2, 0), (0, 0), (1, 1), (1, -1)]
        assert t.count(5, (1, 0)) == sum(t.count(4, y) for y in nbrs)

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            WalkCountTable.build(5, 4)

    def test_column_sums(self):
        t = WalkCountTable.build(8, 8)
        for n in range(9):
            total = sum(w * len(symmetry_orbit(p)) for p, w in t.level_items(n))
            assert total == 4 ** n

    def test_closed_loops_match_formula(self, big_walk_table):
        for n in range(1, 101):
            assert big_walk_table.origin_loop_count(n) \
                == count_loops_closed_form(n)


class TestClosedForms:
    def test_small_loop_counts(self):
        assert count_loops_closed_form(1) == 4
        assert count_loops_closed_form(2) == 36

    def test_large_loop_count_exact(self):
        assert count_loops_closed_form(10) == 184756 ** 2 == 34134779536

    def test_diagonal_two_step(self):
        assert count_walks_diagonal(2, (1, 1)) == 2

    def test_diagonal_reduces_to_loop_count(self):
        for n in range(1, 9):
            assert count_walks_diagonal(2 * n, (0, 0)) \
                == count_loops_closed_form(n)

    def test_diagonal_spot_value(self):
        assert count_walks_diagonal(4, (2, 0)) == 16


class TestOracleEquivalence:
    def test_three_way_agreement(self):
        for n in range(0, 9):
            tally = walk_endpoint_counts(n)
            table = WalkCountTable.build(n, n) if n else None
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
        rep = verify_dominance(10, 10)
        assert rep.ok and rep.checked > 0

    def test_spot_value(self):
        t = WalkCountTable.build(8, 8)
        assert t.count(8, (2, 2)) <= t.count(8, (0, 0)) == 4900

    def test_origin_is_never_a_violation(self):
        rep = verify_dominance(8, 8)
        assert all(p != (0, 0) for _, p, _, _ in rep.violations)


class TestLattice:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_fold_idempotent(self, a, b):
        f = fold_octant((a, b))
        assert fold_octant(f) == f
        assert f[0] >= f[1] >= 0
        assert l1(f) == l1((a, b))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_diagonal_coords_parity(self, a, b):
        s, d = diagonal_coords((a, b))
        assert (s + d) % 2 == 0
        assert max(abs(s), abs(d)) == l1((a, b))
