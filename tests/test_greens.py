import math
from fractions import Fraction

import numpy as np
import pytest

from loopsoup import greens
from loopsoup.lattice import fold_octant
from loopsoup.records import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_NOT_MET
from loopsoup.series import (SeriesTruncationError, exp_tail_bound,
                             loop_series_gram, loop_term_array, step_weight)
from loopsoup.walks import count_walks_diagonal


class TestGreensValue:
    def test_above_first_term_at_unit_kappa(self):
        v, _ = greens.greens_value(1.0, (0, 0))
        assert v > 1.0

    def test_origin_enclosure_at_small_kappa(self):
        v, _ = greens.greens_value(0.01, (0, 0))
        assert 2.041 <= v <= 3.466

    def test_gap_exceeds_three_quarters(self):
        goo, _ = greens.greens_value(0.1, (0, 0))
        gox, _ = greens.greens_value(0.1, (1, 0))
        assert goo - gox >= 0.75

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            greens.greens_value(-0.5, (0, 0))

    def test_value_matches_table(self):
        # x is evaluated alone; a table of radius |x| agrees within its
        # own error estimate
        eps = np.finfo(np.float64).eps
        for kappa in (1.0, 0.05, 1e-4):
            for x in ((0, 0), (1, 0), (-3, 2), (5, -7), (-12, -12)):
                t = greens.greens_table(kappa, max(1, abs(x[0]) + abs(x[1])))
                v, err = greens.greens_value(kappa, x)
                assert abs(v - t.value(x)) <= t.tail_bound
                assert err >= 16 * eps * t.origin()

    def test_truncation_self_consistency(self):
        # closed form against the walk series on every even point of the table
        eps = np.finfo(np.float64).eps
        for kappa in (1.0, 0.1, 0.01, 1e-3):
            t = greens.greens_table(kappa, 12)
            res = loop_series_gram(kappa, 6, 1e-12)
            for a in range(7):
                for b in range(a + 1):
                    x = (a + b, a - b)
                    series = res.gram[a, b] + (x == (0, 0))
                    allow = (res.tail_bound + t.tail_bound
                             + res.m_trunc * eps * t.origin())
                    assert abs(t.value(x) - series) <= allow

    def test_unreachable_truncation_raises(self):
        with pytest.raises(SeriesTruncationError):
            loop_series_gram(1e-9, 0, 1e-10, m_ceiling=10_000)

    def test_matches_exact_partial_sum_plus_tail(self, big_walk_table):
        beta = 1.0 / 4.25
        for x in ((0, 0), (1, 0), (2, 2), (5, 0)):
            partial = sum(beta ** n * big_walk_table.count(n, x)
                          for n in range(0, 201))
            v, _ = greens.greens_value(0.25, x)
            assert partial <= v + 1e-12
            assert v - partial <= exp_tail_bound(0.25, 100)


class TestGreensTable:
    def test_swap_symmetry(self):
        t = greens.greens_table(0.1, 10)
        for x in ((3, 1), (2, 5), (4, 4)):
            assert t.value(x) == t.value((x[1], x[0]))
            assert t.value(x) == t.value((-x[0], x[1]))

    def test_pointwise_monotone_in_kappa(self):
        t1 = greens.greens_table(0.1, 10)
        t2 = greens.greens_table(0.2, 10)
        assert all(t2.value(p) < t1.value(p) for p in t1.points())

    def test_medium_distance_gap(self):
        t = greens.greens_table(0.01, 5)
        assert t.origin() - t.value((4, 0)) >= math.log(4) / math.pi

    def test_decay_with_distance(self):
        t = greens.greens_table(0.25, 16)
        for r in (8, 16):
            assert t.value((r, 0)) < t.value((r // 2, 0))

    def test_lattice_equation_at_tiny_kappa(self):
        # G(x) - beta sum_{y ~ x} G(y) = 1{x = o}, where the series cannot reach
        t = greens.greens_table(1e-6, 16)
        beta = step_weight(1e-6)
        for x in t.points():
            if sum(x) < 16:
                nbrs = ((x[0] + 1, x[1]), (x[0] - 1, x[1]),
                        (x[0], x[1] + 1), (x[0], x[1] - 1))
                lhs = t.value(x) - beta * sum(t.value(y) for y in nbrs)
                assert lhs == pytest.approx(float(x == (0, 0)), abs=1e-12)

    def test_odd_point_neighbor_identity(self):
        t = greens.greens_table(0.3, 6)
        beta = step_weight(0.3)
        lhs = t.value((3, 2))
        rhs = beta * sum(t.value(y) for y in ((4, 2), (2, 2), (3, 3), (3, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_values_fold_onto_octant(self):
        # irregular points with negative coordinates, in no particular order
        t = greens.greens_table(0.2, 16)
        pts = np.array([(3, -2), (-1, 0), (0, 0), (-4, -3), (2, 5)])
        octant = dict(zip(t.points(), t.values(*np.array(t.points()).T).tolist()))
        d = pts[:, None] - pts[None]
        g = t.values(d[..., 0], d[..., 1])
        assert g.shape == (5, 5)
        for x, gx in zip(map(tuple, d.reshape(-1, 2).tolist()), g.ravel()):
            assert gx == t.value(x) == octant[fold_octant(x)]
        with pytest.raises(ValueError):
            t.values([0, 9], [0, -8])
        with pytest.raises(ValueError):
            t.value((-17, 0))


class TestMuGammaO:
    def test_exp_mu_equals_greens(self):
        mu = greens.mu_gamma_o(0.01)
        assert math.exp(mu.value) == pytest.approx(
            greens.greens_value(0.01, (0, 0))[0], rel=1e-14)
        assert mu.method == "elliptic"

    def test_enclosure_endpoints(self):
        enc = greens.mu_enclosure(0.01)
        lo = math.log(math.log(100) / math.pi + 1 - 4 / (3 * math.pi))
        hi = math.log(math.log(100) / math.pi + 2)
        assert enc == pytest.approx((lo, hi))
        assert enc[0] <= greens.mu_gamma_o(0.01).value <= enc[1]

    def test_deep_kappa_loglog_window(self):
        mu = greens.mu_gamma_o(math.exp(-30))
        lo, hi = greens.mu_enclosure(math.exp(-30))
        assert lo <= mu.value <= hi
        assert abs(mu.value - math.log(30)) < 2.0


class TestRootedIntensity:
    def test_lower_bound_first_term(self):
        for kappa in (1.0, 0.25, 0.05):
            assert greens.rooted_intensity(kappa) > 2.0 / (4 + kappa) ** 2

    def test_monotone_in_kappa(self):
        vals = [greens.rooted_intensity(k) for k in (1.0, 0.5, 0.1)]
        assert vals[0] < vals[1] < vals[2]

    def test_bracketed_by_partial_sums(self):
        # sum_{m<=N} t_m/(2m) <= intensity <= that + the certified tail
        for kappa in (2.5, 1.0, 0.1, 0.01):
            n = math.ceil(40.0 / kappa)
            t = loop_term_array(kappa, n)
            head = float((t / (2.0 * np.arange(1, n + 1))).sum())
            v = greens.rooted_intensity(kappa)
            assert head <= v <= head + exp_tail_bound(kappa, n) / (2.0 * (n + 1))

    def test_catalan_limit(self):
        catalan = 0.915965594177219015054603514932384110774
        v = greens.rooted_intensity(1e-12)
        assert v == pytest.approx(math.log(4.0) - 4.0 * catalan / math.pi, rel=1e-10)


class TestLoopTerms:
    def test_against_exact_terms(self):
        # t_m = beta^{2m} C(2m, m)^2 in exact rationals of the rounded beta;
        # exp(log_loop_term) is good only to about |log t_m| eps
        for kappa in (4.0, 1.0, 0.1, 1e-4):
            b2 = Fraction(step_weight(kappa)) ** 2
            exact, c, p = [], 1, Fraction(1)
            for m in range(1, 501):
                c, p = c * (2 * m) * (2 * m - 1) // (m * m), p * b2
                exact.append(float(c * c * p))
            ref = np.array(exact)
            t = loop_term_array(kappa, len(ref))[ref > 0]
            assert np.abs(t / ref[ref > 0] - 1.0).max() <= 1e-13


class TestBoundReports:
    def test_grid_bounds_all_hold(self):
        verdicts = greens.check_green_bounds([0.1, 0.01], radius=12)
        assert verdicts
        assert not [v for v in verdicts if v.verdict == VERDICT_FAILS]
        held = {v.check for v in verdicts if v.verdict == VERDICT_HOLDS}
        assert {"partial-sum-lower", "origin-lower", "origin-upper",
                "gap-three-quarters", "gap-log-over-pi",
                "diag-neighbor-lower", "mu-enclosure"} <= held

    def test_asymptotic_rows_flagged(self):
        verdicts = greens.check_green_bounds([0.1], radius=20)
        flagged = {v.check for v in verdicts if v.verdict == VERDICT_NOT_MET}
        assert "far-point-half" in flagged
        assert "short-walk-contrib" in flagged

    def test_unit_kappa_upper_enclosure_not_met(self):
        verdicts = greens.check_green_bounds([2.0], radius=6)
        row = [v for v in verdicts if v.check == "origin-upper"][0]
        assert row.verdict == VERDICT_NOT_MET


class TestAppendix:
    def test_stirling_at_one(self):
        lo = math.sqrt(2 * math.pi) * math.exp(-1)
        hi = lo * math.exp(1.0 / 12)
        assert lo <= 1.0 <= hi

    def test_report_holds(self):
        rep = greens.verify_appendix_bounds(60)
        assert rep.ok
        assert math.isfinite(rep.c_star)

    def test_local_probability_spot_value(self):
        # four 4-step walks reach (3,1): P(S_4=(3,1)) = 4/256
        assert count_walks_diagonal(4, (3, 1)) == 4

    def test_c_star_stability(self, big_walk_table):
        c50 = greens.verify_appendix_bounds(50, big_walk_table).c_star
        c100 = greens.verify_appendix_bounds(100, big_walk_table).c_star
        assert abs(c100 - c50) <= 0.1 * max(abs(c50), 1e-9)
