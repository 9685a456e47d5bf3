import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, poisson

from loopsoup import cover, greens, laws, sampler, series
from loopsoup.lattice import Box, STEP_DX, STEP_DY, l1
from loopsoup.series import ResourceCeilingError, SeriesTruncationError


def _walker_alias(probs):
    """Walker's alias construction, one small/large pair at a time."""
    k = len(probs)
    q = probs * k
    J = np.zeros(k, dtype=np.int64)
    smaller = [i for i in range(k) if q[i] < 1.0]
    larger = [i for i in range(k) if q[i] >= 1.0]
    while smaller and larger:
        small, large = smaller.pop(), larger.pop()
        J[small] = large
        q[large] -= 1.0 - q[small]
        (smaller if q[large] < 1.0 else larger).append(large)
    return J, q


class TestLengthDistribution:
    def test_pmf_normalized(self):
        d = sampler.length_pmf(0.5, 1e-8)
        assert d.weights.sum() == pytest.approx(d.total_mass)
        assert d.n_trunc * 0.5 >= 0.5

    def test_weight_ratio(self):
        d = sampler.length_pmf(0.3, 1e-8)
        beta = 1.0 / 4.3
        assert d.weights[1] / d.weights[0] == pytest.approx(4.5 * beta * beta)

    def test_total_mass_vs_intensity(self):
        d = sampler.length_pmf(0.4, 1e-10)
        full = greens.rooted_intensity(0.4)
        assert d.total_mass <= full + 1e-15
        assert full - d.total_mass <= sampler.tail_mass(0.4, d.n_trunc)

    def test_truncation_ceiling(self):
        with pytest.raises(SeriesTruncationError):
            sampler.length_pmf(1e-7, 1e-12)
        # at kappa = 1e-7 a tolerance of 1e-10 asks for more than 2^22
        # half-lengths, and one of 1e-6 for fewer
        with pytest.raises(SeriesTruncationError):
            sampler.required_n_trunc(1e-7, 1e-10)
        assert sampler.required_n_trunc(1e-7, 1e-6) == 1_709_482

    @pytest.mark.parametrize("kappa", [2.5, 0.5, 0.1, 0.01, 1e-3, 1e-4, 3e-5])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_truncation_is_smallest(self, kappa, tol):
        n = sampler.required_n_trunc(kappa, tol)
        assert sampler.tail_mass(kappa, n) <= tol
        assert n == 1 or sampler.tail_mass(kappa, n - 1) > tol

    def test_truncation_reaches_its_ceiling(self):
        # the smallest N at kappa = 2.5e-6 fits 2^22
        assert sampler.length_pmf(2.5e-6, 1e-10).n_trunc == 3_648_536

    def test_truncation_at_large_kappa(self):
        # at kappa = 100 one half-length omits a mass of 7.7e-8, which the
        # bound 4 exp(-N kappa/4) put at 1.4e-11
        d = sampler.length_pmf(100.0, 1e-10)
        assert d.n_trunc >= 2
        omitted = greens.rooted_intensity(100.0) - d.total_mass
        assert omitted <= sampler.tail_mass(100.0, d.n_trunc) <= 1e-10

    def test_soup_half_lengths_match_weights(self):
        # the per-half-length Poisson counts of one window soup of about
        # 100,000 loops, against weights / total_mass (bins under 20 expected
        # pooled, where the chi-square law of the statistic holds well)
        d = sampler.length_pmf(0.5, 1e-8)
        win = Box(0, 0, 9, 9)
        soup = sampler.sample_window_soup(
            4, 0.5, win, 100_000 / (win.area * d.total_mass), 1e-8)
        counts = np.bincount(soup.half_length, minlength=d.n_trunc + 1)[1:]
        expected = len(soup) * d.weights / d.total_mass
        big = expected >= 20
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        assert chi2.sf(stat, len(exp) - 1) > 0.001

    def test_alias_stack_matches_walker_loop(self, rng):
        # every row of a (..., k) stack gets exactly the table of Walker's
        # one-pair-at-a-time loop, and a table reproduces its row: mass of
        # column c = (q_c + the shortfalls 1 - q_j of the j aliased to c) / k
        probs = rng.random((3, 4, 40)) ** 6
        probs[0, 0] = 1.0
        probs[1, 2, :30] = 0.0
        probs /= probs.sum(axis=-1, keepdims=True)
        scaled = probs.copy()
        J, q = sampler._alias_setup(scaled)
        assert J.shape == q.shape == probs.shape and np.shares_memory(q, scaled)
        for idx in np.ndindex(3, 4):
            j1, q1 = _walker_alias(probs[idx])
            assert np.array_equal(j1, J[idx]) and np.array_equal(q1, q[idx])
            qq = np.minimum(q[idx], 1.0)
            mass = qq + np.bincount(J[idx], 1.0 - qq, minlength=40)
            assert np.allclose(mass / 40, probs[idx], rtol=0, atol=1e-14)
        d = sampler.length_pmf(0.01, 1e-10)               # 6,817 columns
        pmf = d.weights / d.total_mass
        for got, want in zip(sampler._alias_setup(pmf.copy()), _walker_alias(pmf)):
            assert np.array_equal(got, want)


class TestBridges:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2 ** 31))
    def test_closure(self, m, seed):
        rng = np.random.default_rng(seed)
        steps = sampler.bridge_steps(rng, m, 4)
        assert (STEP_DX[steps].sum(axis=1) == 0).all()
        assert (STEP_DY[steps].sum(axis=1) == 0).all()

    def test_two_step_loops_uniform(self, rng):
        # the 4 two-step loops are EW, WE, NS, SN with probability 1/4 each
        steps = sampler.bridge_steps(rng, 1, 100_000)
        codes = steps[:, 0] * 4 + steps[:, 1]
        counts = np.bincount(codes, minlength=16)
        hit = {int(c) for c in np.nonzero(counts)[0]}
        assert hit == {0 * 4 + 2, 2 * 4 + 0, 1 * 4 + 3, 3 * 4 + 1}
        stat = (((counts[sorted(hit)] - 25_000) ** 2) / 25_000).sum()
        assert chi2.sf(stat, 3) > 0.001

    def test_four_step_loops_uniform(self, rng):
        # 36 rooted loops of length 4, all equally likely
        steps = sampler.bridge_steps(rng, 2, 100_000).astype(np.int64)
        codes = ((steps[:, 0] * 4 + steps[:, 1]) * 4 + steps[:, 2]) * 4 + steps[:, 3]
        counts = np.bincount(codes, minlength=256)
        support = np.nonzero(counts)[0]
        assert len(support) == 36
        expected = 100_000 / 36
        stat = (((counts[support] - expected) ** 2) / expected).sum()
        assert chi2.sf(stat, 35) > 0.001

    @staticmethod
    def _urn_walks(rng, m):
        """Step codes of the lockstep urn's loops, (g, 2 max(m) - 1), -1 past
        a loop's end, and each loop's number of positions."""
        codes = np.full((len(m), 2 * m[0] - 1), -1)
        positions = np.ones(len(m), dtype=np.int64)
        lookup = np.full((3, 3), -1)
        lookup[STEP_DX + 1, STEP_DY + 1] = np.arange(4)
        for i, (live, dx, dy) in enumerate(sampler.urn_steps(rng, m)):
            codes[:live, i] = lookup[dx + 1, dy + 1]
            positions[:live] += 1
        return codes, positions

    def test_urn_loops_close(self, rng):
        # one fold mixing half-lengths: 2m positions, and the forced last
        # step from the final position returns to the root
        m = np.repeat([3, 2, 1], 500)
        codes, positions = self._urn_walks(rng, m)
        assert np.array_equal(positions, 2 * m)
        # code -1, past a loop's end, reads the appended zero step
        x = np.append(STEP_DX, 0)[codes].sum(axis=1)
        y = np.append(STEP_DY, 0)[codes].sum(axis=1)
        assert (np.abs(x) + np.abs(y) == 1).all()

    @pytest.mark.parametrize("m, walks", [(2, 36), (3, 400)])
    def test_urn_loops_uniform(self, rng, m, walks):
        # every closed 2m-step walk, C(2m, m)^2 of them, equally likely
        codes, _ = self._urn_walks(rng, np.full(20_000, m))
        key = codes @ 4 ** np.arange(2 * m - 1)
        counts = np.bincount(key, minlength=4 ** (2 * m - 1))
        support = np.flatnonzero(counts)
        assert len(support) == walks
        expected = 20_000 / walks
        stat = (((counts[support] - expected) ** 2) / expected).sum()
        assert chi2.sf(stat, walks - 1) > 1e-3

    def test_urn_two_step_loops_uniform(self, rng):
        codes, _ = self._urn_walks(rng, np.ones(20_000, dtype=np.int64))
        counts = np.bincount(codes[:, 0], minlength=4)
        stat = (((counts - 5_000) ** 2) / 5_000).sum()
        assert chi2.sf(stat, 3) > 1e-3

    def test_trace_examples(self, rng):
        x, y = sampler.loop_vertices([0], [0], np.array([[0, 1, 2, 3]], dtype=np.int8))
        assert x.tolist() == [[0, 1, 1, 0]] and y.tolist() == [[0, 0, 1, 1]]
        x, y = sampler.loop_vertices([5], [-2], sampler.bridge_steps(rng, 1, 1))
        two = set(zip(x[0].tolist(), y[0].tolist()))
        assert len(two) == 2 and (5, -2) in two

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2 ** 31))
    def test_trace_size_and_excursion(self, m, seed):
        rng = np.random.default_rng(seed)
        x, y = sampler.loop_vertices([3], [4], sampler.bridge_steps(rng, m, 1))
        tr = set(zip(x[0].tolist(), y[0].tolist()))
        assert 2 <= len(tr) <= 2 * m
        assert max(abs(a - 3) + abs(b - 4) for a, b in tr) <= m

    def test_pack_roundtrip(self, rng):
        for m in (1, 2, 3, 17):
            steps = sampler.bridge_steps(rng, m, 1)[0]
            assert np.array_equal(
                sampler.unpack_steps(sampler.pack_steps(steps).tobytes(), 2 * m),
                steps)

    def test_pack_batch_roundtrip(self, rng):
        # a (g, 2m) batch packs row by row: each row is the single-row packing
        for m in (1, 2, 3, 17):
            steps = sampler.bridge_steps(rng, m, 9)
            packed = sampler.pack_steps(steps)
            assert packed.shape == (9, (2 * m + 3) // 4)
            assert np.array_equal(sampler.unpack_steps(packed, 2 * m), steps)
            for row, codes in zip(packed, steps):
                assert row.tobytes() == sampler.pack_steps(codes).tobytes()


class TestWindowSoup:
    def test_zero_horizon_empty(self):
        soup = sampler.sample_window_soup(1, 0.5, Box(0, 0, 3, 3), 0.0, 1e-6)
        assert len(soup) == 0

    def test_roots_and_timestamps_in_range(self):
        soup = sampler.sample_window_soup(1, 0.5, Box(-2, -2, 2, 2), 3.0, 1e-6)
        assert (soup.window.distance(soup.root_x, soup.root_y) == 0).all()
        assert (soup.timestamp >= 0).all() and (soup.timestamp <= 3.0).all()

    def test_deterministic(self):
        a = sampler.sample_window_soup(9, 0.5, Box(0, 0, 4, 4), 2.0, 1e-6)
        b = sampler.sample_window_soup(9, 0.5, Box(0, 0, 4, 4), 2.0, 1e-6)
        assert np.array_equal(a.timestamp, b.timestamp)
        assert np.array_equal(a.half_length, b.half_length)
        assert a.steps_packed == b.steps_packed

    def test_far_window_deterministic(self):
        win = Box(100_000, -100_000, 100_006, -99_995)
        a = sampler.sample_window_soup(4, 0.5, win, 3.0, 1e-6)
        b = sampler.sample_window_soup(4, 0.5, win, 3.0, 1e-6)
        assert len(a) > 0
        for f in ("root_x", "root_y", "half_length", "timestamp"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes()
        assert a.steps_packed == b.steps_packed
        assert (win.distance(a.root_x, a.root_y) == 0).all()
        with pytest.raises(ValueError, match="int32"):
            sampler.sample_window_soup(4, 0.5, Box(0, 0, 2 ** 31, 0), 3.0, 1e-6)

    def test_extension_keeps_sample_as_prefix(self):
        base = sampler.sample_window_soup(5, 0.5, Box(-3, -2, 4, 3), 1.5, 1e-6)
        ext = sampler.extend_soup(base, 2.0)
        again = sampler.extend_soup(ext, 0.5)
        for short, long in ((base, ext), (ext, again)):
            k = len(short)
            assert len(long) > k
            for f in ("root_x", "root_y", "half_length", "timestamp"):
                assert getattr(long, f)[:k].tobytes() == getattr(short, f).tobytes()
            assert long.steps_packed[:k] == short.steps_packed

    def test_loop_ceiling(self):
        # 1e9 on four roots expects about 5.5e8 loops; extensions are checked too
        soup = sampler.sample_window_soup(2, 0.5, Box(0, 0, 1, 1), 1.0, 1e-6)
        with pytest.raises(ResourceCeilingError):
            sampler.sample_window_soup(2, 0.5, Box(0, 0, 1, 1), 1e9, 1e-6)
        with pytest.raises(ResourceCeilingError):
            sampler.extend_soup(soup, 1e9)

    def test_slice_cost_follows_loops_not_window_area(self):
        # a 3,162^2 window at horizon 1e-9 expects about 0.006 loops; one
        # draw per window cell would take 0.5 s and a 200 MB peak
        sampler.length_pmf(0.5, 1e-8)   # the cached length law is not counted
        tracemalloc.start()
        try:
            soup = sampler.sample_window_soup(1, 0.5, (0, 0, 3161, 3161), 1e-9, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(soup) == 0 and peak < 1 << 20
        # the loops of a slice stay in x-major root order
        soup = sampler.sample_window_soup(2, 0.5, Box(-4, 3, 5, 12), 3.0, 1e-6)
        cell = (soup.root_x.astype(np.int64) + 4) * 10 + (soup.root_y - 3)
        assert len(soup) > 10 and (np.diff(cell) >= 0).all()

    def test_extensions_reuse_the_length_law(self, monkeypatch):
        # the length law is built once per soup
        sampler.length_pmf.cache_clear()
        calls = []
        build = sampler.LengthDistribution.build
        monkeypatch.setattr(sampler.LengthDistribution, "build",
                            lambda *args: calls.append(args) or build(*args))
        soup = sampler.sample_window_soup(3, 2.5, Box(0, 0, 3, 3), 1.0, 1e-8)
        for _ in range(3):
            soup = sampler.extend_soup(soup, 1.0)
        assert len(calls) == 1 and soup.n_slices == 4

    def test_root_counts_poisson(self):
        # per-root loop counts of one large soup against Poisson(T mass),
        # roots tallied through the x-major placement of the window
        d = sampler.length_pmf(0.5, 1e-6)
        win = Box(-30, 5, 29, 64)
        horizon = 2.0 / d.total_mass
        soup = sampler.sample_window_soup(11, 0.5, win, horizon, 1e-6)
        cell = (soup.root_x.astype(np.int64) - win.x0) * win.height \
            + (soup.root_y - win.y0)
        per_root = np.bincount(cell, minlength=win.area)
        observed = np.bincount(per_root)
        expected = win.area * poisson.pmf(np.arange(len(observed)),
                                          horizon * d.total_mass)
        big = expected >= 5
        obs = np.append(observed[big], win.area - observed[big].sum())
        exp = np.append(expected[big], win.area - expected[big].sum())
        stat = float(((obs - exp) ** 2 / exp).sum())
        assert chi2.sf(stat, len(exp) - 1) > 0.001

    def test_mean_loop_count(self):
        # aggregate 60 disjoint-seed soups: mean count within 3 SE of
        # |window| * horizon * total_mass
        d = sampler.length_pmf(0.5, 1e-6)
        box = Box(0, 0, 4, 4)
        expect = box.area * 2.0 * d.total_mass
        counts = [len(sampler.sample_window_soup(s, 0.5, box, 2.0, 1e-6))
                  for s in range(60)]
        se = math.sqrt(expect / 60)  # Poisson variance
        assert abs(np.mean(counts) - expect) <= 3 * se

    def test_extension_disjoint_and_equal_in_law(self):
        base = sampler.sample_window_soup(3, 0.5, Box(0, 0, 3, 3), 1.0, 1e-6)
        ext = sampler.extend_soup(base, 1.5)
        assert ext.time_horizon == 2.5
        new = ext.timestamp[len(base):]
        assert (new > 1.0).all() and (new <= 2.5).all()
        assert sampler.extend_soup(base, 0.0) is base

    def test_extension_count_law(self):
        # loop counts of sample(T)+extend(T) match Poisson(2T mass) moments
        d = sampler.length_pmf(0.6, 1e-6)
        box = Box(0, 0, 2, 2)
        lam = box.area * 2.0 * d.total_mass
        counts = []
        for s in range(120):
            soup = sampler.extend_soup(
                sampler.sample_window_soup(s, 0.6, box, 1.0, 1e-6), 1.0)
            counts.append(len(soup))
        mean = float(np.mean(counts))
        var = float(np.var(counts))
        assert abs(mean - lam) <= 3 * math.sqrt(lam / 120)
        assert abs(var - lam) <= 5 * lam / math.sqrt(120)

    def test_one_point_avoidance_against_law(self):
        # raw window-soup path (no thinning): P(o uncovered at u) = G^{-u};
        # coarse replica count because this is the slow structural route,
        # cross-checked at scale through the cover engine elsewhere
        kappa, u, reps = 2.0, 1.0, 200
        d = sampler.length_pmf(kappa, 1e-6)
        win = Box(-d.n_trunc, -d.n_trunc, d.n_trunc, d.n_trunc)
        misses = 0
        for s in range(reps):
            soup = sampler.sample_window_soup(s, kappa, win, u, 1e-6)
            misses += not np.isfinite(
                cover.first_cover_times_from_soup(soup, [(0, 0)])[0])
        p = laws.prob_uncovered(kappa, [(0, 0)], u)
        # the loops past n_trunc that reach o, rooted within m of it, are
        # the window's only omission
        bias = u * sampler.tail_envelope_rate(kappa, d.n_trunc, Box(0, 0, 0, 0))
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(misses / reps - p) <= 3 * se + bias


class TestTailEnvelope:
    @pytest.mark.parametrize("kappa,box", [
        (0.5, Box(0, 0, 15, 15)), (1e-4, Box(0, 0, 15, 15)),
        (1e-4, Box(0, 0, 63, 63)), (1e-4, Box(0, 0, 1, 1)),
        (1e-4, Box(0, 0, 2998, 0)),
    ])
    def test_dominates_the_tail_intensity(self, kappa, box):
        # w_m rect_m = t_m rect_m / (2m) <= C q^m for every m > n, C =
        # rect_{n+1} / (2 pi (n+1)^2), q = (4/(4 + kappa))^2, with exact
        # terms up to m = n + 120/kappa, where q^m has fallen by e^-60; the
        # closed-form rate is the envelope's mass, so at least their sum
        n = sampler.length_pmf(kappa, 1e-10).n_trunc
        m = np.arange(n + 1, n + 1 + int(120 / kappa))
        rect = (box.width + 2 * m) * (box.height + 2 * m)
        intensity = series.loop_term_array(kappa, int(m[-1]))[n:] * rect / (2.0 * m)
        envelope = (rect[0] / (2.0 * math.pi * (n + 1) ** 2)
                    * np.exp(2.0 * m * math.log1p(-kappa / (4.0 + kappa))))
        assert (intensity <= envelope).all()
        rate = sampler.tail_envelope_rate(kappa, n, box)
        assert intensity.sum() <= rate
        assert rate == pytest.approx(envelope.sum(), rel=1e-9)

    def test_decreases_with_tolerance(self):
        t = Box(0, 0, 7, 7)
        coarse, fine = (sampler.tail_envelope_rate(0.5, sampler.length_pmf(0.5, tol).n_trunc, t)
                        for tol in (1e-6, 1e-10))
        assert fine < coarse
