import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import greens, lattice, laws
from loopsoup.lattice import PAIR_GRID_CELLS, BoxTarget, fft_length
from loopsoup.records import VERDICT_FAILS, VERDICT_NOT_MET
from loopsoup.series import ResourceCeilingError


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

    def test_rejects_negative_u(self):
        # (1 - (G(x)/G(o))^2)^u is above 1 for u < 0
        with pytest.raises(ValueError, match="u must be >= 0"):
            laws.prob_no_shared_loop(0.5, (1, 0), -1.0)

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

    @pytest.mark.parametrize("pts", [laws.box_set(2).points(), laws.box_set(3).points(),
                                     [(0, 0), (1, 0), (0, 2)]])
    @pytest.mark.parametrize("kappa", [1.0, 1e-6, 1e-300])
    def test_determinant_lemma(self, pts, kappa):
        # G_B = G(o) 11^T - D_B with D_B = G(o) - G_B, so by the matrix
        # determinant lemma det G_B = det(-D_B) (1 + G(o) 1^T (-D_B)^-1 1)
        g = laws.green_matrix(kappa, pts)
        minus_d, one = g - g[0, 0], np.ones(len(g))
        lemma = np.linalg.det(minus_d) * (
            1.0 + g[0, 0] * one @ np.linalg.solve(minus_d, one))
        assert lemma == pytest.approx(math.exp(float(laws._log_det(g))), rel=1e-12)

    @pytest.mark.parametrize("kappa", [1e-30, 1e-300])
    def test_determinant_as_kappa_vanishes(self, kappa):
        # D_B tends to the potential kernel a_B, so det G_B / G(o) = c_B +
        # det(-a_B) / G(o) + O(kappa), c_B the sum of the cofactors of -a_B;
        # on box:2, a = 1 at distance 1 and 4/pi on the diagonal.  At kappa =
        # 1e-12 the O(kappa) remainder reads 6.8e-12, so it is left out
        pts = laws.box_set(2).points()
        dist = np.abs(np.array(pts)[:, None] - np.array(pts)[None]).sum(axis=-1)
        minus_a, one = -np.choose(dist, [0.0, 1.0, 4 / math.pi]), np.ones(len(pts))
        det_a = np.linalg.det(minus_a)
        c_b = det_a * one @ np.linalg.solve(minus_a, one)
        assert c_b == pytest.approx(4.7127, abs=1e-4)
        assert det_a == pytest.approx(-3.8565, abs=1e-4)
        g = laws.green_matrix(kappa, pts)
        assert math.exp(float(laws._log_det(g))) / g[0, 0] == pytest.approx(
            c_b + det_a / g[0, 0], rel=1e-11)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            laws.prob_uncovered(0.5, [(1, 2), (0, 0), (1, 2)], 1.0)

    def test_green_matrix_matches_table(self, rng, monkeypatch):
        # G_B against a table of radius diam(B), to 1e-15 relative to the
        # largest entry G(o): BLAS blocking may move the last bit, and
        # entries near 1e-19 (kappa = 1, |x| ~ 30) carry the quadrature's
        # cancellation, not its accuracy.  The point, the 7 spread points, 40
        # points of a 33 x 33 grid and a line of 30 points 7 apart take the
        # grid product; 12 points spread over a 1024^2 square the per-point one
        grids, real_grid = [], greens._greens_grid
        monkeypatch.setattr(greens, "_greens_grid",
                            lambda *args: grids.append(1) or real_grid(*args))
        grid = [(i, j) for i in range(-16, 17) for j in range(-16, 17)]
        wide = np.random.default_rng(11).integers(-512, 512, size=(12, 2))
        sets = [([(3, -7)], True),
                ([(0, 0), (4, 4), (-4, -4), (4, -4), (-4, 4), (0, 8), (8, 0)], True),
                ([grid[i] for i in rng.choice(len(grid), 40, replace=False)], True),
                ([(7 * i, 0) for i in range(30)], True),
                (wide.tolist(), False)]
        for kappa in (1.0, 0.05, 1e-4):
            for pts, takes_grid in sets:
                diam = laws.TargetSet(tuple(pts)).max_l1_diameter()
                d = np.array(pts)[:, None] - np.array(pts)[None]
                table = greens.greens_table(kappa, max(1, diam))
                ref = table.values(d[..., 0], d[..., 1])
                grids.clear()
                g = laws.green_matrix(kappa, pts)
                assert bool(grids) == takes_grid, len(pts)
                assert np.abs(g - ref).max() <= 1e-15 * ref[0, 0]
                assert (np.diag(g) == greens.green_origin(kappa)).all()
        with pytest.raises(ValueError, match=r"2\*\*30"):
            laws.green_matrix(0.5, [(0, 0), (1 << 32, 0)])

    def test_green_matrix_scratch(self):
        # G_B is filled in row blocks of about 2^18 pairs, so beside it only
        # one block's displacements, keys and values are live, about 1.4 G_B
        # at box:41; a second |B|^2 array would reach 2 G_B
        pts = [(i, j) for i in range(41) for j in range(41)]
        laws.green_matrix(0.01, pts[:3])
        tracemalloc.start()
        try:
            g = laws.green_matrix(0.01, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * g.nbytes
        # 1,681 points take several row blocks, each filling its transpose
        d = np.array(pts)[:, None] - np.array(pts)[None]
        ref = greens.greens_table(0.01, 80).values(d[..., 0], d[..., 1])
        assert np.abs(g - ref).max() <= 1e-15 * ref[0, 0]

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

    def test_epsilon_policy(self):
        mu = 0.5
        assert laws.resolve_epsilon("auto100", mu) == pytest.approx(0.02)
        assert laws.resolve_epsilon("auto400", mu) == pytest.approx(0.005)
        assert laws.resolve_epsilon("0.25", mu) == 0.25
        for bad in ("1.5", "0", "nan", "auto"):
            with pytest.raises(ValueError):
                laws.resolve_epsilon(bad, mu)
        with pytest.raises(ValueError, match="auto100 = 2 must lie"):
            laws.resolve_epsilon("auto100", 0.005)   # mu at kappa ~ 20


def _smooth(n):
    # no prime factor above 5
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


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
        assert sum(rep.class_sums.values()) == pytest.approx(direct, rel=1e-9)

    def test_max_l1_diameter(self, rng):
        # the bounding box's L1 extent would give 15 here
        assert laws.TargetSet(((0, 0), (5, 5), (10, 0))).max_l1_diameter() == 10
        for side in (1, 2, 5, 16):
            assert laws.box_set(side).max_l1_diameter() == 2 * (side - 1)
        for k in (1, 2, 9, 60):
            pts = {tuple(p) for p in rng.integers(-50, 50, size=(k, 2)).tolist()}
            brute = max(abs(a - c) + abs(b - d) for a, b in pts for c, d in pts)
            assert laws.TargetSet(tuple(pts)).max_l1_diameter() == brute

    @staticmethod
    def _assert_histogram(A, expected):
        # pair_distance_counts gives a {(a, b): count} histogram as three
        # int64 arrays in ascending (a, b) order
        keys = sorted(expected)
        want = ([k[0] for k in keys], [k[1] for k in keys], [expected[k] for k in keys])
        got = A.pair_distance_counts()
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, np.array(w, dtype=np.int64))

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
        # a 54 x 23 bounding box: 2 * 54 - 1 = 107, a prime, runs on 108
        cells = np.random.default_rng(54).choice(54 * 23 - 2, size=300, replace=False) + 1
        prime = [(0, 0), (53, 22)] + [(int(c % 54), int(c // 54)) for c in cells]
        for pts in (irregular, row, column, [(0, 0), (0, 70_312)], prime):
            self._assert_histogram(laws.TargetSet(tuple(pts)), brute(pts))
        # one point has no pair: three empty arrays
        self._assert_histogram(laws.TargetSet(((3, -2),)), {})

        # boxes against (s - |dx|)(s - |dy|) ordered pairs per displacement:
        # an odd side, and 16 and 64, whose 2s - 1 = 31 and 127 are prime
        for s in (37, 16, 64):
            closed = Counter()
            for dx in range(-s + 1, s):
                for dy in range(-s + 1, s):
                    if (dx, dy) != (0, 0):
                        a, b = abs(dx), abs(dy)
                        closed[(max(a, b), min(a, b))] += (s - a) * (s - b)
            self._assert_histogram(laws.box_set(s), {k: v // 2 for k, v in closed.items()})

        # a padded grid over the ceiling is refused before it is allocated
        with pytest.raises(ValueError, match="cells"):
            laws.TargetSet(((0, 0), (10 ** 6, 10 ** 6))).pair_distance_counts()

    def test_fft_length_is_smooth_and_short(self):
        for n in range(1, 4096):
            m = fft_length(n)
            # 1.11 n fails only at 7, 13 and 21 (8, 15 and 24)
            assert _smooth(m) and n <= m <= max(1.11 * n, n + 3), n
            assert not any(_smooth(k) for k in range(n, m)), n
        assert fft_length(4095) == 4096 and fft_length(4097) == 4320

    def test_every_box_passes_the_guard(self, monkeypatch):
        # the guard counts the unpadded (2sx - 1)(2sy - 1) cells and runs
        # before any allocation: a stand-in fft_length that raises marks the
        # sets it lets through, so nothing is allocated here
        class Passed(Exception):
            pass

        def passed(n):
            raise Passed

        monkeypatch.setattr(lattice, "fft_length", passed)
        # two opposite corners span a side x side bounding box, as the box does
        for side in range(1, BoxTarget.MAX_SIDE + 1):
            with pytest.raises(Passed):
                laws.TargetSet(tuple({(0, 0), (side - 1, side - 1)})).pair_distance_counts()
        # 4095 x 4097 cells pass, though padded to 4096 x 4320 they would not
        with pytest.raises(Passed):
            laws.TargetSet(((0, 0), (2047, 2048))).pair_distance_counts()
        assert 4095 * 4097 <= PAIR_GRID_CELLS < 4096 * 4320
        for far in ((2048, 2048), (2047, 2049)):
            with pytest.raises(ValueError, match="cells"):
                laws.TargetSet(((0, 0), far)).pair_distance_counts()

    def test_pair_histogram_never_takes_a_prime_fft_length(self, monkeypatch):
        # every FFT the histogram runs, on box sides 1..64, has lengths with
        # no prime factor above 5, so a prime length cannot come back silently
        lengths = []

        def spy(fft):
            def wrapped(a, s=None, *args, **kwargs):
                lengths.extend(a.shape[-2:] if s is None else s)
                return fft(a, s, *args, **kwargs)
            return wrapped

        for name in ("rfft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, spy(getattr(np.fft, name)))
        for side in range(1, 65):
            laws.box_set(side).pair_distance_counts()
        assert len(lengths) == 2 * 2 * 64 and 127 not in lengths
        assert all(map(_smooth, lengths))

    def test_guard(self):
        # a documented limit, so a resource ceiling (exit 3), not a ValueError
        with pytest.raises(ResourceCeilingError, match="pair-sum guard 65536"):
            laws.second_moment_report(0.5, laws.box_set(257), 0.05)

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
