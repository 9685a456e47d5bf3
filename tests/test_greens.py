import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from loopsoup import greens, series
from loopsoup.lattice import fold_octant, l1
from loopsoup.records import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_NOT_MET
from loopsoup.series import (ResourceCeilingError, SeriesTruncationError,
                             exp_tail_bound, geometric_tail_bound, loop_series_gram,
                             loop_term_array, step_weight)
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

    @pytest.mark.parametrize("kappa", [1e-30, 1e-300])
    def test_potential_kernel_at_vanishing_kappa(self, kappa):
        # G(o) - G(x) tends to the potential kernel a(x) as kappa -> 0, whose
        # closed forms are McCrea and Whipple's (1940), within the two
        # points' error estimates.  The remainder is O(kappa), so kappa = 1e-12
        # (2e-11) is left out: there it exceeds the quadrature's estimate
        closed = {(1, 0): 1.0, (1, 1): 4 / math.pi, (2, 0): 4 - 8 / math.pi,
                  (2, 1): 8 / math.pi - 1, (2, 2): 16 / (3 * math.pi),
                  (3, 0): 17 - 48 / math.pi}
        g_o, err_o = greens.greens_value(kappa, (0, 0))
        for x, a in closed.items():
            g_x, err_x = greens.greens_value(kappa, x)
            assert abs(g_o - g_x - a) <= err_o + err_x, (x, g_o - g_x - a)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            greens.greens_value(-0.5, (0, 0))
        with pytest.raises(ValueError, match="kappa must be > 0"):
            greens.green_origin(0.0)
        for kappa in (series.KAPPA_MAX * 1.001, 1e9, 1e200, math.nan):
            with pytest.raises(ValueError, match="kappa must be > 0 and <= 1000"):
                greens.mu_gamma_o(kappa)

    def test_mu_at_kappa_max_against_decimal_agm(self):
        # mu = log G(o) ~ 4 kappa^-2 keeps about eps kappa^2 / 4 of relative
        # precision: 1.1e-11 at KAPPA_MAX = 1e3, 2.9e-9 at 1e4
        with localcontext() as ctx:
            ctx.prec = 50
            for kappa in (1e-6, 1.0, series.KAPPA_MAX):
                k = Decimal(kappa)
                a, b = Decimal(1), (k * (8 + k)).sqrt() / (4 + k)
                for _ in range(60):
                    a, b = (a + b) / 2, (a * b).sqrt()
                exact = -a.ln()
                mu = Decimal(greens.mu_gamma_o(kappa).value)
                assert abs(mu / exact - 1) <= Decimal("1e-9"), kappa

    def test_origin_against_elliptic_integral(self):
        # G(o) = 1/AGM(1, k') against (2/pi) K(1 - k'^2) through the
        # complement of the parameter; kappa = 1 is where a loop until
        # a == b would never end
        from scipy.special import ellipkm1
        for kappa in [*np.logspace(-14, 2, 240), 1.0]:
            ref = 2.0 / math.pi * ellipkm1(kappa * (8 + kappa) / (4 + kappa) ** 2)
            assert abs(greens.green_origin(kappa) / ref - 1.0) <= 2e-15

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

    def test_grid_and_per_point_products_agree(self, monkeypatch):
        # each path of greens_at against the other within 8 eps G(o); the
        # radius-126 octant takes the grid product, and is forced onto the
        # per-point one, and 200 points spread over a 2**20 square take the
        # per-point product, checked against the grid product over their
        # distinct a and distinct b (the grid spanning them would not fit)
        eps = np.finfo(np.float64).eps
        grids, real_grid, limit = [], greens._greens_grid, greens._GRID_PER_POINT
        monkeypatch.setattr(greens, "_greens_grid",
                            lambda *args: grids.append(1) or real_grid(*args))
        octant = greens.greens_table(1.0, 126).octant()
        xy = np.random.default_rng(7).integers(0, 1 << 20, size=(200, 2))
        wide = xy.max(axis=1), xy.min(axis=1)
        for (a, b), kappas, takes_grid in ((octant, (1.0, 0.01, 1e-6), True),
                                           (wide, (1e-10, 1e-12), False)):
            for kappa in kappas:
                grids.clear()
                g = greens.greens_at(kappa, a, b)
                assert bool(grids) == takes_grid
                if takes_grid:
                    monkeypatch.setattr(greens, "_GRID_PER_POINT", 0)
                    other = greens.greens_at(kappa, a, b)
                    monkeypatch.setattr(greens, "_GRID_PER_POINT", limit)
                else:
                    (ua, ia), (ub, ib) = (np.unique(c, return_inverse=True)
                                          for c in (a, b))
                    other = real_grid(kappa, ua, ub, 32)[ia, ib]
                assert np.abs(g - other).max() <= 8 * eps * greens.green_origin(kappa)

    def test_table_scratch_stays_in_row_blocks(self):
        # the grid and its 16-node twin, plus row blocks of r^a and the
        # (nodes x b) cosines: no per-point kernel, list of points or square
        build = greens._greens_table_cached.__wrapped__
        build(1e-4, 8)
        tracemalloc.start()
        try:
            t = build(1e-4, 510)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t._g.shape == (511, 256)
        assert peak < 4 * t._g.nbytes

    def test_radius_ceiling(self):
        with pytest.raises(ResourceCeilingError, match="MAX_RADIUS 4094"):
            greens.greens_table(0.5, greens.MAX_RADIUS + 1)

    def test_series_work_guard_refuses_up_front(self, monkeypatch):
        # radius 4094 at kappa = 1e-4 would take about 3.1e12 gram products;
        # the guard refuses before any table is built
        monkeypatch.setattr(greens, "greens_table", None)
        with pytest.raises(ResourceCeilingError, match="gram products"):
            greens.check_green_bounds([0.5, 1e-4], greens.MAX_RADIUS)

    def test_gram_blocks_stay_within_their_entries(self):
        # at a_max = 50 the rows of a 2^20 half-length block took 428 MB; a
        # block's rows now hold at most _FW_ENTRIES floats
        tracemalloc.start()
        try:
            loop_series_gram(1e-4, 50, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * series._FW_ENTRIES


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
        # t_m = beta^{2m} C(2m, m)^2 in exact rationals of the rounded beta
        for kappa in (4.0, 1.0, 0.1, 1e-4):
            b2 = Fraction(step_weight(kappa)) ** 2
            exact, c, p = [], 1, Fraction(1)
            for m in range(1, 501):
                c, p = c * (2 * m) * (2 * m - 1) // (m * m), p * b2
                exact.append(float(c * c * p))
            ref = np.array(exact)
            t = loop_term_array(kappa, len(ref))[ref > 0]
            assert np.abs(t / ref[ref > 0] - 1.0).max() <= 1e-13
        # far out, against 40-digit terms: the running product's rounding
        # grows about linearly in m (5.1e-13 at m = 120,000)
        t, b = loop_term_array(1e-3, 120_000), Decimal(step_weight(1e-3))
        with localcontext() as ctx:
            ctx.prec = 40
            for m in np.unique(np.geomspace(1, 120_000, 20).astype(int)).tolist():
                exact = Decimal(comb(2 * m, m)) ** 2 * b ** (2 * m)
                assert abs(Decimal(float(t[m - 1])) / exact - 1) <= Decimal("1e-12")

    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 2.5, 12.0, 100.0, 1000.0])
    def test_geometric_tail_bound_holds(self, kappa):
        # G(o) - 1 - sum_{j<=m} t_j against the bound, wherever that exact
        # tail stands above the partial sums' rounding; 4 exp(-m kappa/4)
        # is below it from kappa ~ 10 on (at kappa = 100, m = 1: 3.1e-7
        # against 5.6e-11)
        n = max(8, int(60.0 / kappa))
        tail = greens.green_origin(kappa) - 1.0 - np.concatenate(
            [[0.0], np.cumsum(loop_term_array(kappa, n))])
        ms = [m for m in {0, 1, 2, *np.geomspace(1, n, 40).astype(int).tolist()}
              if tail[m] > 1e-11]
        assert len(ms) >= 2
        for m in ms:
            assert tail[m] <= geometric_tail_bound(kappa, m), (m, tail[m])
        if kappa == 100.0:
            assert tail[1] > 1e3 * exp_tail_bound(kappa, 1)

    @pytest.mark.parametrize("kappa,tol", [(2.5, 1e-12), (0.5, 1e-12), (0.01, 1e-12),
                                           (1e-3, 1e-12), (1000.0, 1e-10)])
    def test_loop_moments_against_the_series(self, kappa, tol):
        # S_k = sum_m m^k t_m, summed out to q^n ~ e^-60, where the terms
        # have long vanished; at kappa = 1000, S0 = G(o) - 1 ~ 4e-6 loses
        # digits to the subtraction (1.1e-11)
        q = (4.0 * step_weight(kappa)) ** 2
        n = int(60.0 / -math.log(q)) + 10
        t = loop_term_array(kappa, n)
        m = np.arange(1, n + 1, dtype=np.float64)
        s = greens.loop_moments(kappa)
        for k in range(3):
            exact = math.fsum(m ** k * t)
            assert abs(s[k] - exact) <= tol * exact, (k, s[k], exact)
        assert s[0] == greens.green_origin(kappa) - 1.0


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

    def test_pointwise_rows_in_blocks(self, monkeypatch):
        # the gap rows and the series cross-check taken one grid row at a
        # time give the verdicts of the whole octant in one block (41 x 21
        # entries), first extremes and all; the tables come from the cache,
        # built before the patch
        grid, radius = [2.0, 0.1, 0.01], 40
        whole = greens.check_green_bounds(grid, radius)
        monkeypatch.setattr(greens, "_CHUNK_ENTRIES", radius // 2 + 1)
        blocked = greens.check_green_bounds(grid, radius)
        assert blocked == whole
        rows = {v.check for v in whole}
        assert {"gap-three-quarters", "gap-log-over-pi", "far-point-half"} <= rows
        series = [v for v in whole if v.check == "greens-series-cross-check"]
        assert len(series) == 3 and all(v.lhs > 0.0 for v in series)

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

    def test_c_star_stability(self):
        c50 = greens.verify_appendix_bounds(50).c_star
        c100 = greens.verify_appendix_bounds(100).c_star
        assert abs(c100 - c50) <= 0.1 * max(abs(c50), 1e-9)

    @pytest.mark.parametrize("n_max", [60, 100, 200])
    def test_scan_matches_the_exact_table(self, big_walk_table, n_max):
        # the closed-form scan, a max over |x| at each n, against every
        # octant point of the exact walk table at each n
        worst = -math.inf
        for n in range(3, n_max + 1):
            for p, w in big_walk_table.level_items(n):
                r = l1(p)
                if r >= 3:
                    gauss = (2.0 / n) * math.exp(-r * r / (2.0 * n))
                    worst = max(worst, n * r * r * (w / 4 ** n - gauss))
        raw = greens.local_clt_scan_max(n_max)
        assert abs(raw - worst) <= 1e-12 * abs(worst)
