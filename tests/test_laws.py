import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import greens, laws
from loopsoup.records import VERDICT_FAILS, VERDICT_NOT_MET


class TestPointLaw:
    def test_u_zero(self):
        assert laws.prob_uncovered(0.3, [(0, 0)], 0.0) == 1.0

    def test_matches_exponential_of_mu(self):
        mu = greens.mu_gamma_o(0.3).value
        for u in (0.5, 1.0, 3.7):
            assert laws.prob_uncovered(0.3, [(0, 0)], u) \
                == pytest.approx(math.exp(-u * mu), rel=1e-13)

    def test_u_star_normalization(self):
        us = laws.u_star(0.3, 50)
        assert 50 * laws.prob_uncovered(0.3, [(0, 0)], us) == pytest.approx(1.0)

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError):
            laws.prob_uncovered(0.3, [(0, 0)], -1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_semigroup(self, u, v):
        def p(t):
            return laws.prob_uncovered(0.5, [(0, 0)], t)
        assert p(u) * p(v) == pytest.approx(p(u + v), rel=1e-10)


class TestPairLaws:
    def test_u_zero(self):
        assert laws.prob_uncovered(0.5, [(0, 0), (2, 1)], 0.0) == 1.0
        assert laws.prob_no_shared_loop(0.5, (2, 1), 0.0) == 1.0

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            laws.prob_uncovered(0.5, [(0, 0), (0, 0)], 1.0)
        with pytest.raises(ValueError):
            laws.prob_no_shared_loop(0.5, (0, 0), 1.0)

    def test_identity_chain(self):
        for kappa in (1.0, 0.25, 0.05):
            for x in ((1, 0), (1, 1), (3, 0), (5, 2)):
                for u in (0.5, 1.0, 2.0):
                    pair = laws.prob_uncovered(kappa, [(0, 0), x], u)
                    pt = laws.prob_uncovered(kappa, [(0, 0)], u)
                    nosh = laws.prob_no_shared_loop(kappa, x, u)
                    assert pair == pytest.approx(pt * pt / nosh, rel=1e-12)

    def test_sandwich(self):
        for u in (0.5, 1.0, 2.0):
            pt = laws.prob_uncovered(0.25, [(0, 0)], u)
            pair = laws.prob_uncovered(0.25, [(0, 0), (1, 1)], u)
            assert pt * pt <= pair <= pt

    def test_monotone_in_distance(self):
        u = 1.5
        vals = [laws.prob_uncovered(0.25, [(0, 0), (r, 0)], u) for r in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_far_pair_decorrelates(self):
        # at |x| = 4/kappa the shared-loop correction is below 1%
        for kappa in (1.0, 0.5, 0.25, 0.1):
            r = int(4 / kappa)
            pt = laws.prob_uncovered(kappa, [(0, 0)], 1.0)
            pair = laws.prob_uncovered(kappa, [(0, 0), (r, 0)], 1.0)
            assert pair / (pt * pt) - 1.0 < 0.01


class TestDeterminantLaw:
    def test_one_point_is_power_of_green_origin(self):
        goo = greens.green_origin(0.3)
        for u in (0.5, 1.0, 3.7):
            assert laws.prob_uncovered(0.3, [(4, -7)], u) \
                == pytest.approx(goo ** (-u), rel=1e-12)

    def test_pair_is_power_of_two_by_two_determinant(self):
        for kappa in (1.0, 0.25, 1e-4):
            t = greens.greens_table(kappa, 7)
            goo, gox = t.origin(), t.value((3, -4))
            for u in (0.5, 2.0):
                assert laws.prob_uncovered(kappa, [(1, 1), (4, -3)], u) \
                    == pytest.approx((goo * goo - gox * gox) ** (-u), rel=1e-12)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            laws.prob_uncovered(0.5, [(1, 2), (0, 0), (1, 2)], 1.0)

    def test_green_matrix_matches_table(self, rng):
        # one quadrature per distinct displacement against a table of radius
        # diam(B), to 1e-15 relative to the largest entry G(o): BLAS row
        # blocking may move the last bit, and entries near 1e-19 (kappa = 1,
        # |x| ~ 30) carry the quadrature's cancellation, not its accuracy
        grid = [(i, j) for i in range(-16, 17) for j in range(-16, 17)]
        sets = [[(3, -7)],
                [(0, 0), (4, 4), (-4, -4), (4, -4), (-4, 4), (0, 8), (8, 0)],
                [grid[i] for i in rng.choice(len(grid), 40, replace=False)]]
        for kappa in (1.0, 0.05, 1e-4):
            for pts in sets:
                diam = laws.TargetSet(tuple(pts)).max_l1_diameter()
                d = np.array(pts)[:, None] - np.array(pts)[None]
                table = greens.greens_table(kappa, max(1, diam))
                ref = table.values(d[..., 0], d[..., 1])
                g = laws.green_matrix(kappa, pts)
                assert np.abs(g - ref).max() <= 1e-15 * ref[0, 0]
        with pytest.raises(ValueError, match=r"2\*\*30"):
            laws.green_matrix(0.5, [(0, 0), (1 << 32, 0)])

    def test_green_matrix_scratch(self):
        # G_B overwrites its displacement keys in place, so np.unique's sorted
        # copy is the only other |B|^2 array; with a separate gather (three),
        # CoverEngine(0.01, BoxTarget(41)) peaked about 21 MiB higher in RSS
        pts = [(i, j) for i in range(41) for j in range(41)]
        laws.green_matrix(0.01, pts[:3])
        tracemalloc.start()
        try:
            g = laws.green_matrix(0.01, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * g.nbytes

    def test_cover_law_one_point(self):
        u = np.array([0.0, 0.3, 1.0, 4.0])
        goo = greens.green_origin(0.5)
        assert np.allclose(laws.cover_law(0.5, [(2, 3)])(u), 1.0 - goo ** (-u),
                           rtol=0, atol=1e-14)

    def test_cover_law_rounding_bound(self):
        # the float sum against the same terms summed at 50 digits
        mpmath = pytest.importorskip("mpmath")
        law = laws.cover_law(0.5, [(0, 0), (1, 0), (0, 2), (3, 1), (-2, 2)])
        assert len(law.terms) == 32
        bounds = []
        for u in (1e-3, 0.05, 0.5, 2.0, 8.0):
            with mpmath.workdps(50):
                exact = mpmath.fsum(mpmath.mpf(s) * mpmath.exp(-mpmath.mpf(d) * u)
                                    for s, d in law.terms)
            bounds.append(float(law.rounding_bound(u)))
            assert abs(float(law(u)) - float(exact)) <= bounds[-1]
        # the alternating sum cancels near u = 0 only
        assert bounds == sorted(bounds, reverse=True) and bounds[-1] < 1e-12

    def test_cover_law_rejects_seventeen_points(self):
        laws.cover_law(0.5, [(i, 0) for i in range(16)])
        with pytest.raises(ValueError):
            laws.cover_law(0.5, [(i, 0) for i in range(17)])


class TestUStarAndExpectations:
    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            laws.u_star(0.5, 1)

    def test_doubles_under_squaring(self):
        assert laws.u_star(0.5, 100 ** 2) \
            == pytest.approx(2 * laws.u_star(0.5, 100))

    def test_expected_uncovered_identity(self):
        assert laws.expected_uncovered(0.5, 10_000, 0.5) == pytest.approx(100.0)

    def test_expected_uncovered_epsilon_limit(self):
        assert laws.expected_uncovered(0.5, 10_000, 1e-9) == pytest.approx(1.0)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            laws.expected_uncovered(0.5, 100, 1.5)

    def test_epsilon_policy(self):
        mu = 0.5
        assert laws.resolve_epsilon("auto100", mu) == pytest.approx(0.02)
        assert laws.resolve_epsilon("auto400", mu) == pytest.approx(0.005)
        assert laws.resolve_epsilon("0.25", mu) == 0.25
        for bad in ("1.5", "0", "nan", "auto"):
            with pytest.raises(ValueError):
                laws.resolve_epsilon(bad, mu)


class TestPairBound:
    def test_medium_regime_selection(self):
        _, regime, hyp = laws.pair_bound(0.1, (5, 0), 0.1, 64)
        assert regime == "medium"
        assert hyp is False  # kappa^-1 = 10 << e^30

    def test_large_regime_selection(self):
        _, regime, _ = laws.pair_bound(0.5, (30, 0), 0.1, 64)
        assert regime == "large"

    def test_all_regime_for_close_points(self):
        _, regime, _ = laws.pair_bound(0.5, (1, 0), 0.1, 64)
        assert regime == "all"

    def test_returns_both_sides_when_hypotheses_unmet(self):
        bound, _, hyp = laws.pair_bound(0.1, (5, 0), 0.1, 64)
        assert bound > 0 and hyp is False

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            laws.pair_bound(0.1, (0, 0), 0.1, 64)


class TestQuasiIndependence:
    def test_singleton_formula(self):
        mu = greens.mu_gamma_o(0.5).value
        k = laws.TargetSet(((0, 0),))
        bound, ok = laws.quasi_independence_bound(0.5, k, 2.0, 100)
        assert bound == pytest.approx(2 * 2.0 * 100 ** (-1 / mu))
        assert ok  # no pairs to violate separation

    def test_close_pair_fails_separation(self):
        k = laws.TargetSet(((0, 0), (1, 0)))
        _, ok = laws.quasi_independence_bound(0.5, k, 1.0, 10_000)
        assert not ok

    def test_rejects_small_u(self):
        with pytest.raises(ValueError):
            laws.quasi_independence_bound(0.5, laws.TargetSet(((0, 0),)), 0.5, 10)


class TestHClass:
    def test_close_pair_not_in_class(self):
        k = laws.TargetSet(((0, 0), (1, 0)))
        assert not laws.in_h_class(0.5, 10_000, k, 0.05)


class TestSecondMoment:
    def test_partition_complete(self):
        a = laws.box_set(8)
        rep = laws.second_moment_report(0.5, a, 0.05)
        total = sum(rep.class_pair_counts.values())
        assert total == a.size * (a.size - 1)

    def test_histogram_matches_direct_sum(self):
        a = laws.box_set(6)
        rep = laws.second_moment_report(0.5, a, 0.05)
        tab = greens.greens_table(0.5, a.max_l1_diameter())
        goo = tab.origin()
        direct = 0.0
        pts = a.points()
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                if i == j:
                    continue
                gox = tab.value((p[0] - q[0], p[1] - q[1]))
                direct += (goo * goo - gox * gox) ** (-rep.u_eval)
        assert rep.all_pairs_sum == pytest.approx(direct, rel=1e-9)

    def test_max_l1_diameter(self, rng):
        # the bounding box's L1 extent would give 15 here
        assert laws.TargetSet(((0, 0), (5, 5), (10, 0))).max_l1_diameter() == 10
        for side in (1, 2, 5, 16):
            assert laws.box_set(side).max_l1_diameter() == 2 * (side - 1)
        for k in (1, 2, 9, 60):
            pts = {tuple(p) for p in rng.integers(-50, 50, size=(k, 2)).tolist()}
            brute = max(abs(a - c) + abs(b - d) for a, b in pts for c, d in pts)
            assert laws.TargetSet(tuple(pts)).max_l1_diameter() == brute

    def test_pair_distance_counts_brute_force(self):
        def brute(pts):
            out = Counter()
            for i, p in enumerate(pts):
                for q in pts[i + 1:]:
                    dx, dy = abs(p[0] - q[0]), abs(p[1] - q[1])
                    out[(max(dx, dy), min(dx, dy))] += 1
            return dict(out)

        # irregular with negative coordinates, one row, one column, and two
        # points far apart on one axis (a padded length 3^2 5^6 keeps it fast)
        rng = np.random.default_rng(11)
        cells = rng.choice(70 * 50, size=700, replace=False)
        irregular = [(int(c % 70) - 40, int(c // 70) - 17) for c in cells]
        row = [(int(x), 5) for x in rng.choice(400, size=90, replace=False) - 200]
        column = [(y, x) for x, y in row]
        for pts in (irregular, row, column, [(0, 0), (0, 70_312)]):
            assert laws.TargetSet(tuple(pts)).pair_distance_counts() == brute(pts)
        assert laws.TargetSet(((3, -2),)).pair_distance_counts() == {}

        # an odd box against (s - |dx|)(s - |dy|) ordered pairs per displacement
        s = 37
        closed = Counter()
        for dx in range(-s + 1, s):
            for dy in range(-s + 1, s):
                if (dx, dy) != (0, 0):
                    a, b = abs(dx), abs(dy)
                    closed[(max(a, b), min(a, b))] += (s - a) * (s - b)
        assert laws.box_set(s).pair_distance_counts() == {
            k: v // 2 for k, v in closed.items()}

        # a padded grid over the ceiling is refused before it is allocated
        with pytest.raises(ValueError, match="cells"):
            laws.TargetSet(((0, 0), (10 ** 6, 10 ** 6))).pair_distance_counts()

    def test_guard(self):
        with pytest.raises(ValueError):
            laws.second_moment_report(0.5, laws.box_set(101), 0.05)

    def test_asymptotic_rows_flagged(self):
        rep = laws.second_moment_report(0.5, laws.box_set(8), 0.05)
        by_check = {v.check: v for v in rep.verdicts}
        assert by_check["pair-sum-medium-1"].verdict == VERDICT_NOT_MET
        assert by_check["kappa-inverse-upper"].verdict == VERDICT_NOT_MET

    def test_no_failures_on_reference_box(self):
        mu = greens.mu_gamma_o(0.5).value
        eps = 1.0 / (100.0 * mu)
        rep = laws.second_moment_report(0.5, laws.box_set(16), eps)
        assert not [v for v in rep.verdicts if v.verdict == VERDICT_FAILS]


class TestSimpleCdfs:
    def test_gumbel_values(self):
        assert laws.gumbel_cdf(0.0) == pytest.approx(math.exp(-1))
        assert laws.gumbel_cdf(50.0) == pytest.approx(1.0)
        assert laws.gumbel_cdf(-math.log(math.log(2))) == pytest.approx(0.5)

    def test_gumbel_monotone(self):
        zs = np.linspace(-5, 5, 101)
        vals = [laws.gumbel_cdf(z) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_one_point_law(self):
        assert laws.one_point_law(0.0) == 0.0
        assert laws.one_point_law(math.log(2)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            laws.one_point_law(-0.1)
