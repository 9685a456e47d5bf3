import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from loopsoup import cover, laws, sampler
from loopsoup.cover import (BoxTarget, CoverEngine, EmpiricalDistribution,
                            PointsTarget, ResourceCeilingError,
                            cover_time_ensemble, first_cover_times_from_soup,
                            ks_distance, ks_threshold, make_target)
from loopsoup.lattice import Box
from loopsoup.series import SeriesTruncationError


class TestTargets:
    def test_make_target_box(self):
        t = make_target("box:3")
        assert isinstance(t, BoxTarget) and t.size == 9

    def test_make_target_points(self):
        t = make_target("points:(0,0);(2,-1)")
        assert isinstance(t, PointsTarget) and t.points() == [(0, 0), (2, -1)]

    def test_make_target_line(self):
        t = make_target("line:3x10")
        assert t.points() == [(0, 0), (10, 0), (20, 0)]

    def test_make_target_rejects_garbage(self):
        for bad in ("box:x", "points:0,0", "circle:3", "line:3"):
            with pytest.raises(ValueError):
                make_target(bad)

    def test_box_ring_roundtrip(self):
        t = BoxTarget(3)
        for delta in (1, 2, 5):
            n = t.box.ring_count(delta)
            rng = np.random.default_rng(0)
            x, y = t.root_coords(rng, np.full(4 * n, delta, dtype=np.int64))
            assert set(zip(x.tolist(), y.tolist())) \
                == set(t.box.ring_points(delta))
            assert (t.box.distance(x, y) == delta).all()
        # one draw over mixed rings: every cell sits on its own ring and
        # every ring is covered
        deltas = np.repeat(np.arange(6), 40 * t.box.ring_count(np.arange(6)))
        x, y = t.root_coords(np.random.default_rng(1), deltas)
        assert (t.box.distance(x, y) == deltas).all()
        for delta in range(6):
            on_ring = deltas == delta
            assert set(zip(x[on_ring].tolist(), y[on_ring].tolist())) \
                == set(t.box.ring_points(delta))
        assert t.box.ring_count(np.arange(6)).tolist() \
            == [t.box.ring_count(d) for d in range(6)]

    @pytest.mark.parametrize("side", [1, 3, 16])
    def test_ring_zero_is_the_box_in_vertex_order(self, side):
        t = BoxTarget(side)
        x, y = t.box.ring_cells(0, np.arange(t.box.area))
        assert np.array_equal(np.stack([x, y], axis=1), t.pts)
        for delta in (-1, np.array([0, 2, -1])):
            with pytest.raises(ValueError):
                t.box.ring_cells(delta, np.arange(3))

    def test_point_ring_cells_exact(self):
        # roots at delta are exactly the cells of the bounding box's ring
        single, pair = PointsTarget([(2, 3)]), PointsTarget([(0, 0), (3, -2)])
        assert (pair.box.x0, pair.box.y0, pair.box.x1, pair.box.y1) == (0, -2, 3, 0)
        for t in (single, pair):
            for delta in (1, 2, 4):
                rng = np.random.default_rng(1)
                n = 64 * int(t.box.ring_count(delta))
                x, y = t.root_coords(rng, np.full(n, delta, dtype=np.int64))
                assert set(zip(x.tolist(), y.tolist())) == set(t.box.ring_points(delta))
        for delta in (1, 2, 4):
            assert set(single.box.ring_points(delta)) == {
                (2 + dx, 3 + dy) for dx in range(-delta, delta + 1)
                for dy in range(-delta, delta + 1) if abs(dx) + abs(dy) == delta}

    def test_vertex_index(self):
        t = PointsTarget([(0, 0), (5, -3)])
        xs = np.array([0, 5, 1, -7])
        ys = np.array([0, -3, 1, 2])
        assert t.vertex_index(xs, ys).tolist() == [0, 1, -1, -1]

    def test_vertex_index_far_cells_do_not_collide(self):
        # a 24-bit key mapped (-1, 12582911) onto the point (0, -4194305)
        t = PointsTarget([(0, -4194305), (5, 5)])
        assert t.vertex_index(np.array([-1]), np.array([12582911])).tolist() == [-1]
        lim = PointsTarget.COORD_LIMIT
        far = PointsTarget([(lim, -lim), (-lim, lim)])
        xs = np.array([lim, -lim, lim - 1, lim + (1 << 23), -lim - (1 << 23)])
        ys = np.array([-lim, lim, -lim, -lim, lim])
        assert far.vertex_index(xs, ys).tolist() == [0, 1, -1, -1, -1]

    def test_points_target_rejects_unrepresentable_coordinates(self):
        lim = PointsTarget.COORD_LIMIT
        PointsTarget([(lim, -lim)])
        for bad in ((lim + 1, 0), (0, -lim - 1)):
            with pytest.raises(ValueError, match=r"2\*\*30"):
                PointsTarget([bad])
        # empty, a flat list, three coordinates, non-integers, duplicates
        for bad in ([], [0, 0, 1, 2], [(0, 0, 1)], [(0.5, 1)]):
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                PointsTarget(bad)
        with pytest.raises(ValueError, match="duplicate"):
            PointsTarget([(0, 0), (1, 2), (0, 0)])
        for side in (0, BoxTarget.MAX_SIDE + 1):
            with pytest.raises(ValueError, match="side"):
                BoxTarget(side)

    def test_one_set_type(self):
        # laws and cover share the class; a box lists its points x-major
        assert laws.TargetSet is PointsTarget
        assert isinstance(laws.box_set(5), BoxTarget)
        for s in (1, 4, 7):
            box = BoxTarget(s)
            assert box.vertex_index(*box.pts.T).tolist() == list(range(s * s))
            assert box.points() == [(i, j) for i in range(s) for j in range(s)]
        # a 6x6 box listed in shuffled order has the box's pair sums
        pts = BoxTarget(6).points()
        np.random.default_rng(3).shuffle(pts)
        spec = "points:" + ";".join(f"({a},{b})" for a, b in pts)
        shuffled = laws.second_moment_report(0.5, make_target(spec), 0.05)
        box = laws.second_moment_report(0.5, laws.box_set(6), 0.05)
        assert shuffled.class_pair_counts == box.class_pair_counts
        assert shuffled.class_sums == box.class_sums


class TestKs:
    def test_constant_cdf(self):
        emp = EmpiricalDistribution.from_samples([1.0, 2.0, 3.0])
        assert ks_distance(emp, lambda v: np.zeros_like(v)) == 1.0

    def test_own_ecdf_small(self):
        vals = np.array([0.1, 0.4, 0.9])
        emp = EmpiricalDistribution.from_samples(vals)
        d = ks_distance(emp, lambda v: np.searchsorted(vals, v, side="right") / 3)
        assert d <= 1 / 3 + 1e-12

    def test_exact_sample_calibration(self, rng):
        n = 100_000
        emp = EmpiricalDistribution.from_samples(rng.random(n))
        assert ks_distance(emp, lambda v: v) < 1.95 / math.sqrt(n)

    def test_ks_threshold_against_exact_quantile(self):
        # Stephens' scaling is within 0.15% of the exact quantile for
        # n >= 39, and conservative below
        from scipy.special import kolmogi
        from scipy.stats import kstwo
        for n in (1, 2, 10, 38, 39, 50, 192, 4000, 20_000, 100_000):
            # the constant is Kolmogorov's limit quantile, to the last bit
            assert ks_threshold(n) == float(kolmogi(1.0 - 0.999)) / (
                math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
            exact = kstwo.ppf(0.999, n)
            assert ks_threshold(n) >= exact if n <= 38 \
                else abs(ks_threshold(n) / exact - 1.0) <= 1.5e-3

    def test_cdf_evaluation(self):
        emp = EmpiricalDistribution.from_samples([1.0, 2.0])
        assert emp.cdf(0.5) == 0.0
        assert emp.cdf(1.0) == 0.5
        assert emp.cdf(5.0) == 1.0


class TestEngineAgainstLaws:
    """Ensembles against exact laws, by the engine the dispatch picks; the
    subclasses below rerun every test on each forced engine."""

    sampler = None

    def ensemble(self, seed, kappa, target, replicas):
        if self.sampler is None:
            return cover_time_ensemble(seed, kappa, target, replicas)
        s = CoverEngine(kappa, target, sampler=self.sampler).ensemble(seed, replicas)
        assert s.sampler == self.sampler
        return s

    def test_one_point_mean(self):
        s = self.ensemble(5, 0.25, PointsTarget([(0, 0)]), 20_000)
        z = s.scaled().values
        assert abs(z.mean() - 1.0) <= 3.0 / math.sqrt(20_000)

    def test_one_point_ks(self):
        s = self.ensemble(5, 0.25, PointsTarget([(0, 0)]), 20_000)
        d = ks_distance(s.scaled(), laws.one_point_law)
        assert d <= ks_threshold(20_000) + s.truncation_bias_bound

    def test_two_point_cdf_reconstruction(self):
        # P(T({o,x}) <= u) = 1 - 2 P(pt uncov) + P(pair uncov), exactly
        kappa, pts = 0.25, [(0, 0), (1, 1)]
        s = self.ensemble(6, kappa, PointsTarget(pts), 40_000)
        emp = s.values
        for u in (1.0, 2.0, 4.0):
            law = laws.cover_law(kappa, pts)(u)
            se = math.sqrt(max(law * (1 - law), 1e-9) / emp.count)
            bias = s.truncation_bias_rate * u
            assert abs(emp.cdf(u) - law) <= 3 * se + bias

    def test_three_point_determinant_law(self):
        # P(T(A) <= u) = sum_{B subset A} (-1)^|B| det(G_B)^{-u}, exactly
        kappa, pts = 0.5, [(0, 0), (1, 0), (0, 2)]
        s = self.ensemble(16, kappa, PointsTarget(pts), 20_000)
        emp = s.values
        for u in (0.5, 1.0, 2.0, 4.0):
            law = laws.cover_law(kappa, pts)(u)
            se = math.sqrt(max(law * (1 - law), 1e-9) / emp.count)
            bias = s.truncation_bias_rate * u
            assert abs(emp.cdf(u) - law) <= 3 * se + bias

    def test_sparse_set_determinant_law(self):
        # a set that is not a box: the ring engine draws on its bounding box
        kappa, pts = 0.5, [(0, 0), (6, 1), (2, 5)]
        s = self.ensemble(17, kappa, PointsTarget(pts), 20_000)
        emp = s.values
        for u in (0.5, 1.0, 2.0, 4.0):
            law = laws.cover_law(kappa, pts)(u)
            se = math.sqrt(max(law * (1 - law), 1e-9) / emp.count)
            bias = s.truncation_bias_rate * u
            assert abs(emp.cdf(u) - law) <= 3 * se + bias

    def test_translation_invariance(self):
        a = self.ensemble(7, 0.5, PointsTarget([(0, 0)]), 15_000)
        b = self.ensemble(8, 0.5, PointsTarget([(7, 3)]), 15_000)
        assert ks_2samp(a.values.values, b.values.values).pvalue > 0.001

    def test_engine_vs_plain_soup_path(self):
        # dual route: the engine vs explicit window soups
        kappa, reps = 2.5, 400
        engine_sample = self.ensemble(9, kappa,
                                      PointsTarget([(0, 0), (2, 0)]), reps)
        d = sampler.length_pmf(kappa, 1e-8)
        n = d.n_trunc
        win = Box(-n, -n, n + 2, n)
        direct = []
        for s in range(reps):
            soup = sampler.sample_window_soup(s, kappa, win, 30.0, 1e-8)
            t = first_cover_times_from_soup(soup, [(0, 0), (2, 0)]).max()
            if not math.isfinite(t):
                soup = sampler.extend_soup(soup, 210.0)
                t = first_cover_times_from_soup(soup, [(0, 0), (2, 0)]).max()
            direct.append(t)
        assert np.isfinite(direct).all()
        assert ks_2samp(engine_sample.values.values,
                        np.asarray(direct)).pvalue > 0.001


class TestRingEngineAgainstLaws(TestEngineAgainstLaws):
    """The ring engine on point sets, through their bounding boxes' rings;
    sets of more than 1,758 points, over the trace budget, still take it."""

    sampler = "ring"


class TestTraceChainAgainstLaws(TestEngineAgainstLaws):
    sampler = "trace"


def _no_green_matrix(*args):
    raise AssertionError("G_A built for a set over the trace setup budget")


def _no_length_law(*args):
    raise AssertionError("length law built for a forced trace chain")


def _no_greens_table(*args):
    raise AssertionError("Green's table built for G_A")


class TestTraceChain:
    """The exact trace-chain sampler; every test checks that it ran."""

    @pytest.mark.parametrize("spec,kappa,seed,grid", [
        ("box:3", 0.01, 21, (1.5, 2.5, 4.0)),
        ("box:4", 0.05, 22, (3.0, 4.0, 6.0)),
        ("box:4", 5e-6, 27, (1.5, 2.0, 3.0)),   # past the length law's ceiling
    ])
    def test_determinant_law(self, spec, kappa, seed, grid):
        target = make_target(spec)
        s = cover_time_ensemble(seed, kappa, target, 20_000)
        assert s.sampler == "trace" and s.truncation_bias_rate == 0.0
        law = laws.cover_law(kappa, target.points())
        for u in grid:
            assert law.rounding_bound(u) <= 1e-9
            p = float(law(u))
            se = math.sqrt(p * (1 - p) / s.values.count)
            assert abs(s.values.cdf(u) - p) <= 3 * se

    def test_against_forced_ring_engine(self):
        target = BoxTarget(8)
        trace = CoverEngine(0.05, target)
        ring = CoverEngine(0.05, target, sampler="ring")
        assert (trace.sampler, ring.sampler) == ("trace", "ring")
        a = trace.ensemble(31, 2000)
        b = ring.ensemble(32, 2000)
        assert ks_2samp(a.values.values, b.values.values).pvalue > 0.001

    def test_step_rate_counts_steps(self):
        # step_rate is the exact mean number of chain steps per unit time
        # (summing C's rows instead of its columns is 9% off at box:3, 15
        # se); box:8 has nine roots whose pivot is exactly 1, which draw no
        # loops (counting one step per unit time for each is 11 se off)
        for side, kappa, seed in ((3, 0.01, 23), (8, 0.05, 24)):
            engine = CoverEngine(kappa, BoxTarget(side))
            assert engine.sampler == "trace"
            rng = np.random.default_rng(seed)
            steps = np.array([engine.chain.slab(rng, np.full((64, side * side), np.inf),
                                                0.0, 1.0)
                              for _ in range(300)], dtype=np.float64)
            se = steps.std(ddof=1) / math.sqrt(len(steps))
            assert abs(steps.mean() - 64 * engine.step_rate) <= 5 * se

    def test_coarse_to_fine_order_cuts_steps(self):
        # the target's raster order leaves each root more lower neighbours,
        # into which its attempts are rejected
        target = BoxTarget(16)
        raster = cover.TraceChain(laws.green_matrix(0.01, target.points()), 0.01)
        assert CoverEngine(0.01, target).step_rate <= 0.7 * raster.step_rate

    def test_coarse_to_fine_order(self):
        pts = np.array(BoxTarget(4).points())
        assert pts[cover.coarse_to_fine(pts)][:4].tolist() == [[0, 0], [0, 2],
                                                               [2, 0], [2, 2]]
        sparse = np.array(make_target("points:(0,0);(3,1);(2,5);(6,4);(1,1)").points())
        for p in (pts, sparse):
            order = cover.coarse_to_fine(p)
            assert sorted(order.tolist()) == list(range(len(p)))
            for shift in ((7, -3), (-(1 << 30), (1 << 30) - 6)):
                assert (cover.coarse_to_fine(p + shift) == order).all()

    def test_pivots_of_one(self):
        # the centre of a 3x3 box comes after its four neighbours, so its
        # pivot is exactly 1; rounded below 1 it would give rng.poisson a
        # negative mean
        spec = "points:(0,0);(0,1);(0,2);(1,0);(1,2);(2,0);(2,1);(2,2);(1,1)"
        kappa, target = 1e-3, make_target(spec)
        e = CoverEngine(kappa, target)
        assert e.sampler == "trace" and (e.chain.log_g == 0.0).sum() == 1
        s = e.ensemble(25, 20_000)
        law = laws.cover_law(kappa, target.points())
        for u in (1.0, 2.0, 4.0):
            assert law.rounding_bound(u) <= 1e-9
            p = float(law(u))
            se = math.sqrt(p * (1 - p) / s.values.count)
            assert abs(s.values.cdf(u) - p) <= 3 * se

    def test_dispatch_by_work_estimate(self):
        for spec, kappa, chosen in (("box:16", 0.5, "ring"), ("box:16", 0.1, "ring"),
                                    ("box:16", 0.01, "trace"),
                                    ("points:(0,0);(1,1)", 0.01, "trace")):
            e = CoverEngine(kappa, make_target(spec))
            assert e.sampler == chosen
            assert (e.step_rate < e.cell_rate) == (chosen == "trace")
            # the skip rule rests on step_rate >= step_floor
            forced = CoverEngine(kappa, e.target, sampler="trace")
            assert forced.step_rate >= forced.step_floor
        # roots with pivot 1 take no steps, so step_rate can fall below |A|
        # (box:8, kappa = 100: 56 against 64), not below step_floor
        e = CoverEngine(100.0, BoxTarget(8), sampler="trace")
        assert e.step_floor <= e.step_rate < e.target.size

    def test_trace_chain_below_the_length_ceiling(self, monkeypatch):
        # at kappa = 5e-6 the ring engine's length law passes its ceiling
        # (test_determinant_law runs the dispatch there): a forced trace
        # chain never builds the law, and a forced ring engine raises
        monkeypatch.setattr(cover, "length_pmf", _no_length_law)
        assert CoverEngine(5e-6, BoxTarget(4), sampler="trace").sampler == "trace"
        monkeypatch.undo()
        with pytest.raises(SeriesTruncationError):
            CoverEngine(5e-6, BoxTarget(4), sampler="ring")

    def test_setup_budget_edge(self, monkeypatch):
        # a set whose trace setup just fits takes the chain; one byte less
        # and it keeps the ring engine without building G_A
        target = BoxTarget(4)
        need = cover.trace_setup_bytes(16)
        monkeypatch.setattr(cover, "TRACE_SETUP_BYTES", need)
        assert CoverEngine(0.05, target).sampler == "trace"
        monkeypatch.setattr(cover, "TRACE_SETUP_BYTES", need - 1)
        monkeypatch.setattr(cover, "green_matrix", _no_green_matrix)
        e = CoverEngine(0.05, target)
        assert e.sampler == "ring" and e.step_rate == math.inf

    @pytest.mark.parametrize("kappa,target", [
        (0.01, BoxTarget(200)),   # 40,000 points: G_A alone would be 12.8 GB
    ])
    def test_sets_over_budget_keep_the_ring_engine(self, monkeypatch, kappa, target):
        monkeypatch.setattr(cover, "green_matrix", _no_green_matrix)
        e = CoverEngine(kappa, target)
        assert e.step_floor < e.cell_rate   # only the budget keeps the ring
        assert e.sampler == "ring" and e.step_rate == math.inf
        with pytest.raises(ResourceCeilingError):
            CoverEngine(kappa, target, sampler="trace")

    @pytest.mark.parametrize("spec,kappa", [
        ("points:(0,0);(2047,0)", 1.0), ("line:3x1000", 0.1)])
    def test_wide_sparse_sets_take_the_trace_chain(self, monkeypatch, spec, kappa):
        # G_A of a sparse set needs no Green's table, however wide the set
        monkeypatch.setattr(laws, "greens_table", _no_greens_table)
        assert CoverEngine(kappa, make_target(spec)).sampler == "trace"

    def test_forced_ring_engine_on_a_long_line(self):
        # 1,500 points over the trace budget; the ring engine's memory does
        # not grow with loops x |A|
        e = CoverEngine(0.5, make_target("line:1500x2"), sampler="ring")
        s = e.ensemble(41, 8)
        assert s.sampler == "ring" and np.isfinite(s.values.values).all()

    def test_clamped_negative_mass_is_rounding(self):
        # Q = I - G_A^{-1} is nonnegative; rounding leaves about -1e-15
        for spec, kappa in (("box:16", 0.01), ("box:8", 0.05)):
            chain = CoverEngine(kappa, make_target(spec)).chain
            assert chain is not None
            assert chain.clamped.max() < 1e-12

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValueError):
            CoverEngine(0.5, BoxTarget(2), sampler="series")


class TestPathwiseProperties:
    def test_monotone_in_target(self):
        kappa = 2.0
        d = sampler.length_pmf(kappa, 1e-6)
        n = d.n_trunc
        win = Box(-n, -n, n + 1, n + 1)
        small = [(0, 0)]
        big = [(0, 0), (1, 1)]
        for s in range(20):
            soup = sampler.sample_window_soup(s, kappa, win, 60.0, 1e-6)
            t_small = first_cover_times_from_soup(soup, small).max()
            t_big = first_cover_times_from_soup(soup, big).max()
            assert math.isfinite(t_big) and t_big >= t_small


class TestSlabSchedule:
    """The first slab ends at horizon0 = u* + 1/mu and later slabs, for the
    uncovered replicas only, are 1/mu, 2/mu, 4/mu, ... long."""

    @pytest.mark.parametrize("engine,seed", [("ring", 51), ("trace", 52)])
    def test_law_across_slab_edges(self, engine, seed):
        # the ECDF at and around the first two slab boundaries against the
        # exact determinant law
        e = CoverEngine(0.5, BoxTarget(3), sampler=engine)
        s = e.ensemble(seed, 20_000)
        assert s.sampler == engine
        law = laws.cover_law(0.5, e.target.points())
        h0, step = e.horizon0, 1.0 / e.mu
        for u in (h0 / 2, h0, h0 + step, h0 + 3 * step):
            assert law.rounding_bound(u) <= 1e-9
            p = float(law(u))
            se = math.sqrt(p * (1 - p) / s.values.count)
            assert abs(s.values.cdf(u) - p) <= 3 * se + s.truncation_bias_rate * u

    def test_traced_cells_stop_near_the_cover_time(self, monkeypatch):
        # box:16 at kappa = 0.5 needs about u* + 1.64/mu of soup per
        # replica (0.65 of 2 u*, the first horizon the engine once drew for
        # every replica); the cells it traces pin that
        e = CoverEngine(0.5, BoxTarget(16))
        assert e.sampler == "ring"
        cells = []
        index = e.target.vertex_index
        monkeypatch.setattr(e.target, "vertex_index",
                            lambda x, y: cells.append(len(x)) or index(x, y))
        e.ensemble(53, 512)
        assert sum(cells) / 512 < 0.7 * e.cell_rate * 2.0 * e.u_star


class TestRingSlab:
    """The ring engine's slab: loops laid out in descending half-length and
    traced in folds of at most _FOLD_LOOPS, one position at a time."""

    @pytest.mark.parametrize("spec", ["box:3", "points:(0,0);(3,1)"])
    def test_cell_rate_counts_cells(self, monkeypatch, spec):
        # cell_rate, summed by half-length, is the ring-class sum
        # sum_delta R(delta) 2 sum_{m >= max(delta, 1)} m w_m regrouped, and
        # the exact mean number of traced cells per unit time and replica
        e = CoverEngine(0.5, make_target(spec), sampler="ring")
        d = e.dist
        m = np.arange(1, d.n_trunc + 1)
        suffix = np.cumsum((m * d.weights)[::-1])[::-1]
        delta = np.arange(d.n_trunc + 1)
        by_ring = (e.target.box.ring_count(delta) * 2.0
                   * suffix[np.maximum(delta, 1) - 1]).sum()
        assert abs(e.cell_rate - by_ring) <= 1e-12 * by_ring
        cells = []
        index = e.target.vertex_index
        monkeypatch.setattr(e.target, "vertex_index",
                            lambda x, y: cells.append(len(x)) or index(x, y))
        rng = np.random.default_rng(61)
        rows, dt, per_slab = 16, 0.5, []
        for _ in range(400):
            cells.clear()
            e._ring_slab(rng, np.full((rows, e.target.size), np.inf), 0.0, dt)
            per_slab.append(sum(cells))
        per_slab = np.asarray(per_slab, dtype=np.float64)
        se = per_slab.std(ddof=1) / math.sqrt(len(per_slab))
        assert abs(per_slab.mean() - e.cell_rate * dt * rows) <= 5 * se

    def test_ring_slab_peak_memory(self):
        # a full batch of 4,094 replicas at box:16, kappa = 0.5: holding the
        # first slab's 3.7M loops whole peaked near 611 MB, and (loops, 2m)
        # coordinate arrays of one half-length at a time near 164 MB.  The
        # child reads its own high-water mark, VmHWM in kB: its ru_maxrss
        # keeps the test process's peak across exec
        code = ("from loopsoup.cover import BoxTarget, CoverEngine; "
                "s = CoverEngine(0.5, BoxTarget(16)).ensemble(7, 4094); "
                "print(s.sampler, *[line.split()[1] for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')])")
        env = dict(os.environ, PYTHONPATH=str(Path(cover.__file__).parent.parent),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out[0] == "ring" and int(out[1]) / 1024 < 150


def test_engine_and_soups_share_the_length_law(monkeypatch):
    # one build of the (kappa, tail_tol) law, for the engine and for soups
    sampler.length_pmf.cache_clear()
    calls = []
    build = sampler.LengthDistribution.build
    monkeypatch.setattr(sampler.LengthDistribution, "build",
                        lambda *args: calls.append(args) or build(*args))
    engine = CoverEngine(2.5, PointsTarget([(0, 0), (2, 0)]), sampler="ring")
    soup = sampler.sample_window_soup(3, 2.5, Box(0, 0, 3, 3), 1.0, cover.TAIL_TOL)
    sampler.extend_soup(soup, 1.0)
    law = sampler.length_pmf(2.5, cover.TAIL_TOL)
    assert len(calls) == 1 and engine.dist is law


class TestDeterminismAndGuards:
    def test_same_seed_identical(self):
        a = cover_time_ensemble(3, 0.5, PointsTarget([(0, 0)]), 5000)
        b = cover_time_ensemble(3, 0.5, PointsTarget([(0, 0)]), 5000)
        assert np.array_equal(a.values.values, b.values.values)

    def test_workers_do_not_change_results(self):
        a = cover_time_ensemble(3, 0.5, PointsTarget([(0, 0)]), 9000, workers=1)
        b = cover_time_ensemble(3, 0.5, PointsTarget([(0, 0)]), 9000, workers=2)
        assert np.array_equal(a.values.values, b.values.values)

    def test_disjoint_seeds_same_law(self):
        a = cover_time_ensemble(1, 0.5, PointsTarget([(0, 0)]), 15_000)
        b = cover_time_ensemble(2, 0.5, PointsTarget([(0, 0)]), 15_000)
        assert ks_2samp(a.values.values, b.values.values).pvalue > 0.001

    def test_horizon_start_invariance(self):
        # a first slab ending at horizon0 or at 4 horizon0 gives the same law
        target = PointsTarget([(0, 0), (4, 0)])
        e1 = CoverEngine(0.5, target)
        e2 = CoverEngine(0.5, target)
        e2.horizon0 = 4.0 * e1.horizon0
        a = e1.ensemble(4, 15_000)
        b = e2.ensemble(5, 15_000)
        assert ks_2samp(a.values.values, b.values.values).pvalue > 0.001

    def test_work_guard(self):
        eng = CoverEngine(0.5, BoxTarget(8))
        with pytest.raises(ResourceCeilingError):
            eng.ensemble(1, 10_000_000_000, work_guard=5e11)

    def test_kappa_checked_first(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(ValueError, match="kappa must be > 0"):
                CoverEngine(kappa, BoxTarget(2))
            with pytest.raises(ValueError, match="kappa must be > 0"):
                sampler.length_pmf(kappa, 1e-8)

    def test_replicas_one(self):
        s = cover_time_ensemble(1, 0.5, PointsTarget([(0, 0)]), 1)
        assert s.values.count == 1


class TestExamples:
    def test_two_far_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            cover.run_example_many_sep(1.0, 2, 9, 100)   # odd
        with pytest.raises(ValueError):
            cover.run_example_many_sep(1.0, 2, 8, 100)   # < 10 kappa^-2

    def test_two_far_small_run(self):
        rep = cover.run_example_many_sep(1.0, 2, 10, 4000, seed=2)
        assert rep.ok
        assert rep.details["analytic_gap"] > 0

    def test_many_sep_reduces_to_singleton(self):
        rep = cover.run_example_many_sep(1.0, 1, 10, 4000, seed=2)
        emp = rep.ensembles["cover"].scaled()
        assert ks_distance(emp, laws.one_point_law) \
            <= ks_threshold(4000) + 1e-3

    def test_gumbel_scan_guard(self):
        with pytest.raises(ResourceCeilingError):
            cover.run_gumbel_scan(0.5, [8], 10_000_000_000, work_guard=1e9)
