import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from loopsoup import cover, laws, sampler, series
from loopsoup.cover import (BoxTarget, CoverEngine, EmpiricalDistribution,
                            PointsTarget, ResourceCeilingError,
                            first_cover_times_from_soup,
                            ks_distance, ks_threshold, make_target)
from loopsoup.lattice import Box, STEP_DX, STEP_DY
from loopsoup.records import VERDICT_HOLDS, VERDICT_NOT_MET
from loopsoup.series import SeriesTruncationError, loop_term_array


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

    @pytest.mark.parametrize("spec", ["box:3", "points:(0,0);(3,-2)"])
    def test_root_numbers_cover_the_reach_once(self, spec):
        # cell numbers r < rect[m] are the cells of the box grown by m, each
        # once, and those within L1 distance m of the box, the roots kept,
        # are the reach: reach[m] cells, found here by brute force
        e = CoverEngine(0.5, make_target(spec), sampler="ring")
        box = e.target.box
        reach = np.cumsum(box.ring_count(np.arange(6)))
        bx, by = (c.ravel() for c in np.meshgrid(np.arange(box.x0, box.x1 + 1),
                                                   np.arange(box.y0, box.y1 + 1)))
        for m in (1, 2, 5):
            rect = box.grown_area(m)
            assert rect == (box.width + 2 * m) * (box.height + 2 * m)
            x, y = e.target.root_coords(m, np.arange(rect))
            gx, gy = (c.ravel() for c in np.meshgrid(np.arange(box.x0 - m, box.x1 + m + 1),
                                                       np.arange(box.y0 - m, box.y1 + m + 1)))
            cells = list(zip(x.tolist(), y.tolist()))
            assert len(set(cells)) == rect
            assert set(cells) == set(zip(gx.tolist(), gy.tolist()))
            near = (np.abs(gx[:, None] - bx) + np.abs(gy[:, None] - by)).min(axis=1) <= m
            kept = box.distance(x, y) <= m
            assert kept.sum() == near.sum() == reach[m]
            assert {c for c, k in zip(cells, kept) if k} \
                == set(zip(gx[near].tolist(), gy[near].tolist()))

    @pytest.mark.parametrize("side", [1, 3, 16])
    def test_ring_zero_is_the_box_in_vertex_order(self, side):
        t = BoxTarget(side)
        x, y = t.box.grown_cells(0, np.arange(t.box.area))
        assert np.array_equal(np.stack([x, y], axis=1), t.pts)
        for m in (-1, np.array([0, 2, -1])):
            with pytest.raises(ValueError):
                t.box.grown_cells(m, np.arange(3))

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
        e = CoverEngine(kappa, target, sampler=self.sampler)
        builds, build = [], e._residual_chains
        e._residual_chains = lambda mask: builds.append(len(mask)) or build(mask)
        s = e.ensemble(seed, replicas)
        assert s.sampler == (self.sampler or e.sampler)
        # A is drawn up to t_residual, at most horizon0, and each replica
        # still uncovered there is finished on the chain of its own
        # uncovered set
        assert 0.0 < e.t_residual <= e.horizon0 and builds
        self.builds = builds
        return s

    def test_one_point_mean(self):
        s = self.ensemble(5, 0.25, PointsTarget([(0, 0)]), 20_000)
        z = s.scaled().values
        assert abs(z.mean() - 1.0) <= 3.0 / math.sqrt(20_000)

    def test_one_point_ks(self):
        s = self.ensemble(5, 0.25, PointsTarget([(0, 0)]), 20_000)
        d = ks_distance(s.scaled(), laws.one_point_law)
        assert d <= ks_threshold(20_000)

    def test_two_point_cdf_reconstruction(self):
        # P(T({o,x}) <= u) = 1 - 2 P(pt uncov) + P(pair uncov), exactly
        kappa, pts = 0.25, [(0, 0), (1, 1)]
        s = self.ensemble(6, kappa, PointsTarget(pts), 40_000)
        emp = s.values
        for u in (1.0, 2.0, 4.0):
            law = laws.cover_law(kappa, pts)(u)
            se = math.sqrt(max(law * (1 - law), 1e-9) / emp.count)
            assert abs(emp.cdf(u) - law) <= 3 * se

    def test_three_point_determinant_law(self):
        # P(T(A) <= u) = sum_{B subset A} (-1)^|B| det(G_B)^{-u}, exactly
        kappa, pts = 0.5, [(0, 0), (1, 0), (0, 2)]
        s = self.ensemble(16, kappa, PointsTarget(pts), 20_000)
        emp = s.values
        for u in (0.5, 1.0, 2.0, 4.0):
            law = laws.cover_law(kappa, pts)(u)
            se = math.sqrt(max(law * (1 - law), 1e-9) / emp.count)
            assert abs(emp.cdf(u) - law) <= 3 * se

    def test_sparse_set_determinant_law(self):
        # a set that is not a box: the ring engine draws on its bounding box
        kappa, pts = 0.5, [(0, 0), (6, 1), (2, 5)]
        s = self.ensemble(17, kappa, PointsTarget(pts), 20_000)
        emp = s.values
        for u in (0.5, 1.0, 2.0, 4.0):
            law = laws.cover_law(kappa, pts)(u)
            se = math.sqrt(max(law * (1 - law), 1e-9) / emp.count)
            assert abs(emp.cdf(u) - law) <= 3 * se

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

    def test_residual_is_built(self):
        # a two-point set starts the residual before horizon0: the replicas
        # still uncovered there finish on the chains of their own sets
        self.ensemble(6, 0.25, PointsTarget([(0, 0), (1, 1)]), 2000)
        assert self.builds

    @pytest.mark.parametrize("pts,kappa,seed", [
        ([(0, 0), (1, 0), (0, 2)], 0.5, 5), ([(0, 0), (3, 1), (5, 5)], 0.05, 6)])
    def test_exact_past_a_coarse_table(self, monkeypatch, pts, kappa, seed):
        # a table of tail mass 1e-2 ends at n_trunc = 4 and 19 and leaves
        # the longer loops to the envelope; a table that dropped them put
        # the first set at KS distance 0.068
        monkeypatch.setattr(cover, "TAIL_TOL", 1e-2)
        s = self.ensemble(seed, kappa, PointsTarget(pts), 20_000)
        assert ks_distance(s.values, laws.cover_law(kappa, pts)) <= ks_threshold(20_000)


class TestTraceChainAgainstLaws(TestEngineAgainstLaws):
    sampler = "trace"


def _no_green_matrix(*args):
    raise AssertionError("G_A built for a set over the trace setup budget")


def _no_chain_order(*args):
    raise AssertionError("a set over the trace setup budget ordered")


def _no_length_law(*args):
    raise AssertionError("length law built for a forced trace chain")


def _no_greens_table(*args):
    raise AssertionError("Green's table built for G_A")


def _child(code: str) -> list[str]:
    """Run code in a fresh single-threaded interpreter on this package and
    return its stdout's words.  hwm() there reads the child's own high-water
    mark, VmHWM, in bytes: its ru_maxrss would keep the test process's peak
    across exec."""
    hwm = ("def hwm():\n"
           "    return [int(line.split()[1]) * 1024 for line in open('/proc/self/status')\n"
           "            if line.startswith('VmHWM:')][0]\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cover.__file__).parent.parent),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", hwm + code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def _implied_rows(chain, keys):
    """(key, next vertex, probability) of the moves that a trace chain's
    alias rows imply, for those of the keys (t n + j) n + v that have a row,
    at _first[t, j] + v within root j's range of rows, which runs from its
    row at j to the next root's; a move that ends the excursion goes to -1."""
    n = chain.log_g.shape[1]
    first = chain._first.ravel()
    begin = first + np.arange(len(first)) % n
    at = first[keys // n] + keys % n
    inside = (at >= begin[keys // n]) & (at < np.append(begin[1:], len(chain._row))[keys // n])
    keys, at = keys[inside], at[inside]
    row = chain._row[at]
    keys, row = keys[row != 0], row[row != 0]
    width, off = row & 0xFFFF, row >> 16
    r = np.repeat(np.arange(len(keys)), width)
    at = np.repeat(off - np.cumsum(width) + width, width) + np.arange(width.sum())
    keep = np.minimum(chain._keep[at], 1.0)
    rr = np.concatenate([r, r])
    to = np.concatenate([chain._take[at], chain._alias[at]]).astype(np.int64)
    share = np.concatenate([keep, 1.0 - keep]) / np.concatenate([width[r], width[r]])
    pair, inverse = np.unique(rr * (n + 1) + to + 1, return_inverse=True)
    return keys[pair // (n + 1)], pair % (n + 1) - 1, np.bincount(inverse, share)


def _implied_moves(chain):
    """The mean moves per unit time that a chain's rows of table 0 imply:
    g_j - 1 excursions from each root j, of E_j[length] moves by one linear
    solve (a vertex without a row, which no move enters, stays put)."""
    n, moves = chain.log_g.shape[1], 0.0
    for j in np.flatnonzero(chain.log_g[0] > 0.0):
        key, w, prob = _implied_rows(chain, j * n + np.arange(n))
        step = np.zeros((n, n))
        np.add.at(step, (key[w >= 0] % n, w[w >= 0]), prob[w >= 0])
        length = np.linalg.solve(np.eye(n) - step, np.ones(n))
        moves += math.expm1(chain.log_g[0, j]) * length[j]
    return moves


def _l_shape():
    x, y = np.divmod(np.arange(64), 8)
    keep = (x < 4) | (y < 4)
    return PointsTarget(np.stack([x[keep], y[keep]], axis=1))


def _box_with_a_hole():
    x, y = np.divmod(np.arange(64), 8)
    keep = ~np.isin(x, (3, 4)) | ~np.isin(y, (3, 4))
    return PointsTarget(np.stack([x[keep], y[keep]], axis=1))


class TestTraceChain:
    """The exact trace-chain sampler; every test checks that it ran."""

    @pytest.mark.parametrize("spec,kappa,seed,grid", [
        ("box:3", 0.01, 21, (1.5, 2.5, 4.0)),
        ("box:4", 0.05, 22, (3.0, 4.0, 6.0)),
        ("box:4", 5e-6, 27, (1.5, 2.0, 3.0)),   # a length law of 2,019,995 terms
    ])
    def test_determinant_law(self, spec, kappa, seed, grid):
        target = make_target(spec)
        s = CoverEngine(kappa, target).ensemble(seed, 20_000)
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

    @pytest.mark.parametrize("spec,kappa", [
        ("box:8", 0.05), ("points:(0,0);(3,1);(5,5)", 0.5), ("box:8", 100.0)])
    def test_moves_per_unit_time(self, spec, kappa):
        # every move of an excursion conditioned to return is a visit, so
        # the moves per unit time are tr(G_A) - |A| = |A| (G(o) - 1); the
        # built rows imply it, root by root: (g_j - 1) excursions per unit
        # time of E_j[length] moves, one linear solve each (box:8 at kappa
        # = 100 has roots of pivot 1, which draw no loops)
        e = CoverEngine(kappa, make_target(spec), sampler="trace")
        g = laws.green_matrix(kappa, e.pts)
        assert abs(e.step_rate - (np.trace(g) - len(g))) <= 1e-12 * e.step_rate
        moves = _implied_moves(e.chain)
        assert abs(moves - e.step_rate) <= 1e-10 * e.step_rate

    @pytest.mark.parametrize("side,kappa,seed", [(3, 0.01, 23), (8, 0.05, 24)])
    def test_forced_chain_makes_step_rate_moves(self, side, kappa, seed):
        engine = CoverEngine(kappa, BoxTarget(side), sampler="trace")
        rng = np.random.default_rng(seed)
        moves = np.array([engine.chain.slab(rng, np.full((64, side * side), np.inf),
                                            0.0, 1.0, np.zeros(64, np.intp))
                          for _ in range(300)], dtype=np.float64)
        se = moves.std(ddof=1) / math.sqrt(len(moves))
        assert abs(moves.mean() - 64 * engine.step_rate) <= 4 * se

    @pytest.mark.parametrize("spec,kappa,sampler_,replicas,seed", [
        ("box:3", 0.01, None, 96, 61), ("box:8", 0.5, "trace", 200, 62),
        ("box:16", 0.01, None, 32, 63)])
    def test_narrow_walkers_do_not_change_results(self, monkeypatch, spec, kappa,
                                                  sampler_, replicas, seed):
        # numpy alone (width 0) and Python alone (width 2^30) make the moves
        # of the default mix: box:3 runs the dispatch, box:8 the residual's
        # padded stacks and box:16 a deep tail of narrow iterations
        e = CoverEngine(kappa, make_target(spec), sampler=sampler_)
        assert e.sampler == "trace"
        slab, moves = cover.TraceChain.slab, []

        def counted(*args):
            moves.append(slab(*args))
            return moves[-1]

        def run():
            moves.clear()
            return e.ensemble(seed, replicas).values.values, list(moves)

        monkeypatch.setattr(cover.TraceChain, "slab", counted)
        want, want_moves = run()
        assert len(want_moves) > 1
        for width in (0, 1 << 30):
            monkeypatch.setattr(cover, "_NARROW_WALKERS", width)
            got, got_moves = run()
            assert np.array_equal(got, want) and got_moves == want_moves

    def test_moves_do_not_depend_on_the_order(self):
        # conditioned to return, the chain in the target's raster order makes
        # the same moves as in the chain's order, boundary first
        target = make_target("points:(0,0);(1,0);(2,0);(0,1);(1,1);(2,1);(0,2);(1,2)")
        ordered = CoverEngine(0.05, target, sampler="trace")
        raster = cover.TraceChain(laws.green_matrix(0.05, target.points()), 0.05)
        moves = _implied_moves(raster)
        assert not np.array_equal(ordered.pts, target.pts)
        assert abs(moves - ordered.step_rate) <= 1e-10 * ordered.step_rate

    @pytest.mark.parametrize("spec", ["box:8", "L-shape", "hole",
                                      "points:(0,0);(3,1);(2,5);(6,4);(1,1)"])
    def test_separator_first_order(self, spec):
        # B first in A's order, then the interior separator-first: box:8's
        # interior, columns 1..6, is cut on column 3 first, ends at n
        target = {"L-shape": _l_shape, "hole": _box_with_a_hole}.get(
            spec, lambda: make_target(spec))()
        order, nbr, end = cover.chain_order(target, target.neighbours())
        n = target.size
        inside = (target.neighbours() >= 0).all(axis=1)
        nb = n - int(inside.sum())
        assert sorted(order.tolist()) == list(range(n))
        assert order[:nb].tolist() == np.flatnonzero(~inside).tolist()
        assert (end[:nb] == n).all() and (end > np.arange(n)).all() and (end <= n).all()
        if spec == "box:8":
            assert target.pts[order[nb:nb + 6]].tolist() == [[3, y] for y in range(1, 7)]
            assert (end[nb:nb + 6] == n).all() and end[nb + 6] < n
        for shift in ((7, -3), (-(1 << 30), (1 << 30) - 8)):
            moved = PointsTarget(target.pts + shift)
            for got, want in zip(cover.chain_order(moved, moved.neighbours()),
                                 (order, nbr, end)):
                assert np.array_equal(got, want)
        # past end_j the dense Cholesky h_j = C[:, j] / C_jj is rounding alone
        if nb < n:
            for kappa in (1.0, 0.01, 1e-4):
                c = np.linalg.cholesky(laws.green_matrix(kappa, target.pts[order]))
                h = c / np.diagonal(c)
                assert np.abs(h[np.arange(n)[:, None] >= end]).max() < 2e-12

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
        # by time: cell_rate _CELL_S against step_rate _STEP_S, where
        # step_rate = |A| (G(o) - 1) needs no G_A: where the ring engine wins
        # G_A is never built
        for spec, kappa, chosen in (("box:16", 0.5, "ring"), ("box:8", 0.5, "ring"),
                                    ("box:16", 0.1, "trace"), ("box:16", 0.05, "trace"),
                                    ("box:16", 0.01, "trace"),
                                    ("points:(0,0);(1,1)", 0.01, "trace")):
            target = make_target(spec)
            with pytest.MonkeyPatch.context() as mp:
                if chosen == "ring":
                    mp.setattr(cover, "green_matrix", _no_green_matrix)
                e = CoverEngine(kappa, target)
            assert e.sampler == chosen
            assert e.step_rate == target.size * math.expm1(e.mu)
            ring = CoverEngine(kappa, target, sampler="ring")
            assert ((e.step_rate * cover._STEP_S < ring.cell_rate * cover._CELL_S)
                    == (chosen == "trace"))

    def test_dispatch_skips_a_length_law_that_cannot_win(self, monkeypatch):
        # at kappa = 5e-6 the law has 2,019,995 terms; the trace chain's price
        # is below a floor of the ring engine's, so the law is never built
        monkeypatch.setattr(cover, "length_pmf", _no_length_law)
        e = CoverEngine(5e-6, BoxTarget(4))
        assert e.sampler == "trace" and e.dist is None

    @pytest.mark.parametrize("kappa", [2.5, 0.5, 0.01, 1e-4])
    @pytest.mark.parametrize("box", [Box(0, 0, 0, 0), Box(0, 0, 15, 15), Box(3, -2, 21, -2)])
    def test_cell_rate_floor(self, kappa, box):
        # the table's cells, sum_{m <= n_trunc} t_m reach_m with |P| / 4 for
        # reach_1, are a floor under the closed-form cell_rate, and the loops
        # past n_trunc add at most sum_{m > n_trunc} q^m / (pi m) rect_m,
        # summed out to q^m ~ e^-60
        corners = sorted({(box.x0, box.y0), (box.x1, box.y1)})
        e = CoverEngine(kappa, PointsTarget(corners), sampler="ring")
        assert e.target.box.area == box.area
        n = e.dist.n_trunc
        m = np.arange(1, n + 1)
        reach = box.area + np.cumsum(box.ring_count(m))
        reach[0] = len(_short_loops(e.target)) / 4   # half-length 1: the pairs P
        floor = float((2.0 * m * e.dist.weights * reach).sum())
        q = (4.0 / (4.0 + kappa)) ** 2
        past = np.arange(n + 1, n + 1 + int(60.0 / -math.log(q)), dtype=np.float64)
        cap = float((np.exp(past * math.log(q)) / (math.pi * past) * box.grown_area(past)).sum())
        assert floor * (1.0 - 1e-12) <= e.cell_rate <= floor * (1.0 + 1e-12) + cap

    def test_smallest_kappa_takes_the_trace_chain(self):
        # at KAPPA_MIN the ring engine's price, S2 ~ p'^-2, overflows to inf,
        # not nan, and nothing raises
        e = CoverEngine(series.KAPPA_MIN, BoxTarget(2))
        assert e.cell_rate == math.inf and e.sampler == "trace" and e.dist is None
        assert math.isfinite(e.step_rate) and math.isfinite(e.t_residual)

    def test_trace_chain_below_the_length_ceiling(self, monkeypatch):
        # at kappa = 2e-6 the ring engine's length law passes its ceiling:
        # a forced trace chain never builds the law, a forced ring engine
        # raises, and the dispatch takes the trace chain
        monkeypatch.setattr(cover, "length_pmf", _no_length_law)
        assert CoverEngine(2e-6, BoxTarget(4), sampler="trace").sampler == "trace"
        monkeypatch.undo()
        with pytest.raises(SeriesTruncationError):
            CoverEngine(2e-6, BoxTarget(4), sampler="ring")
        assert CoverEngine(2e-6, BoxTarget(4)).sampler == "trace"

    def test_setup_budget_edge(self, monkeypatch):
        # a set whose trace setup just fits takes the chain; one byte less
        # and it keeps the ring engine without building G_A (box:4 has 12
        # points of B)
        target = BoxTarget(4)
        need = cover.trace_setup_bytes(*cover.chain_order(target, target.neighbours())[1:])
        monkeypatch.setattr(cover, "TRACE_SETUP_BYTES", need)
        assert CoverEngine(0.05, target).sampler == "trace"
        monkeypatch.setattr(cover, "TRACE_SETUP_BYTES", need - 1)
        monkeypatch.setattr(cover, "green_matrix", _no_green_matrix)
        e = CoverEngine(0.05, target)
        assert e.sampler == "ring" and e.chain is None
        # its pairs number A in the set's order, not the refused chain's
        assert sorted(map(tuple, e.pairs.T.tolist())) == _short_loops(target)

    @pytest.mark.parametrize("side", [38, 42])
    def test_setup_peak_memory(self, side):
        # the rise of the peak RSS while the dispatch builds the chain stays
        # within trace_setup_bytes, on box:38 and on box:42, the largest box
        # within TRACE_SETUP_BYTES.  The child reads its own high-water mark
        # (``_child``) after a small chain has loaded what every build needs
        out = _child(
            "from loopsoup import cover; from loopsoup.cover import BoxTarget, CoverEngine\n"
            "CoverEngine(0.01, BoxTarget(4), sampler='trace')\n"
            f"target = BoxTarget({side})\n"
            "need = cover.trace_setup_bytes(*cover.chain_order(target, target.neighbours())[1:])\n"
            "before = hwm()\n"
            "e = CoverEngine(0.01, target)\n"
            "print(e.sampler, need, hwm() - before)")
        assert out[0] == "trace" and int(out[2]) <= int(out[1]) <= cover.TRACE_SETUP_BYTES
        if side == 42:   # and box:43 is over it
            wider = BoxTarget(43)
            assert (cover.trace_setup_bytes(*cover.chain_order(wider, wider.neighbours())[1:])
                    > cover.TRACE_SETUP_BYTES)

    @pytest.mark.parametrize("kappa,target", [
        (1e-3, BoxTarget(200)),   # 40,000 points: G_A alone would be 12.8 GB
    ])
    def test_sets_over_budget_keep_the_ring_engine(self, monkeypatch, kappa, target):
        # the n^2 term alone is over the budget: the set is not even ordered
        monkeypatch.setattr(cover, "green_matrix", _no_green_matrix)
        monkeypatch.setattr(cover, "chain_order", _no_chain_order)
        e = CoverEngine(kappa, target)
        # only the budget keeps the ring engine
        assert e.step_rate * cover._STEP_S < e.cell_rate * cover._CELL_S
        assert e.sampler == "ring" and e.chain is None
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

    @pytest.mark.parametrize("kappa", [1.0, 0.01, 1e-4])
    @pytest.mark.parametrize("spec", ["box:8", "box:16", "box:32", "L-shape", "hole"])
    def test_zero_pattern_of_q(self, spec, kappa):
        # Q(v, w) > 0 only for lattice neighbours and pairs in B; the built
        # rows are the h-transforms of that Q, with the interior's rows
        # 1/(4 + kappa) on the four neighbours and B's rows from G_A^{-1}
        target = {"L-shape": _l_shape, "hole": _box_with_a_hole}.get(
            spec, lambda: make_target(spec))()
        e = CoverEngine(kappa, target, sampler="trace")
        order, nbr, _ = cover.chain_order(target, target.neighbours())
        assert np.array_equal(target.pts[order], e.pts)
        g = laws.green_matrix(kappa, e.pts)
        n, p = len(g), 1.0 / (4.0 + kappa)
        inside = (nbr >= 0).all(axis=1)
        nb = n - int(inside.sum())
        assert inside[nb:].all() and not inside[:nb].any()   # B first
        pattern = np.zeros((n, n), dtype=bool)
        pattern[:nb, :nb] = True
        v, d = np.nonzero(nbr >= 0)
        pattern[v, nbr[v, d]] = True
        q = np.eye(n) - np.linalg.inv(g)
        assert np.abs(q[~pattern]).max() < 1e-13 * np.abs(q).max()
        exact = np.where(pattern, np.maximum(q, 0.0), 0.0)
        exact[nb:] = np.where(pattern[nb:], p, 0.0)
        # on D_j = {x_j..x_n}, h_j = C[:, j] / C_jj is harmonic for Q off
        # x_j, and sums to 1 - 1/g_j from x_j
        c = np.linalg.cholesky(g)
        h = c / np.diagonal(c)
        gj = np.diagonal(c) ** 2
        norm = h.copy()
        norm[np.arange(n), np.arange(n)] = 1.0 - 1.0 / gj
        lower = np.tril(np.ones((n, n), dtype=bool)) & (gj > 1.0 + 0.5 * p * p)
        assert np.abs(exact @ h - norm)[lower].max() <= 1e-12
        # every built row against the h-transform of exact, after the cut
        # of h at 1e-12; h is known to rounding of C_jj (its factors in the
        # two orientations differ by up to 1e-15), so a row of mass h_j(v)
        # is known to 1e-15 / h_j(v)
        key, w, prob = _implied_rows(e.chain, np.arange(n * n))
        j, v = key // n, key % n
        w = np.where(w < 0, j, w)
        row, inverse = np.unique(key, return_inverse=True)
        built = np.zeros((n, n), dtype=bool)   # [v, j]: row (j, v) is built
        built[row % n, row // n] = True
        assert np.all(h[built] > 0.5e-12)
        assert np.all(h[lower & ~built] < 2e-12)
        cut = np.where(built, h, 0.0)
        want = exact[v, w] * cut[w, j]
        total = np.bincount(inverse, want)
        assert np.all(total > 0.0)
        tol = np.where(inside[v], 1e-14, 1e-12) / np.minimum(total[inverse], 1.0)
        assert np.all(np.abs(prob - want / total[inverse]) <= tol)
        # and nothing the h-transform moves to is missing from the rows
        full = (exact[row % n] * cut[:, row // n].T).sum(axis=1)
        assert np.all(np.abs(total / full - 1.0) <= 1e-12)

    def test_alias_rows_draw_their_weights(self, monkeypatch):
        # the tables of box:8's rows, narrow and wide, draw exactly the
        # normalised weights they are built from
        stacks, build = [], sampler._alias_setup

        def spy(probs):
            row = probs.copy()
            J, q = build(probs)
            stacks.append((row, J, np.minimum(q, 1.0)))
            return J, q

        monkeypatch.setattr(cover, "_alias_setup", spy)
        CoverEngine(0.05, BoxTarget(8), sampler="trace")
        assert sorted(row.shape[1] for row, _, _ in stacks) == [4, 29]
        for row, J, keep in stacks:
            k = row.shape[1]
            mass = keep.copy()
            np.add.at(mass, (np.repeat(np.arange(len(row)), k), J.ravel()), (1.0 - keep).ravel())
            assert np.abs(mass / k - row).max() <= 1e-15

    def test_clamped_negative_mass_is_rounding(self):
        # Q = I - G_A^{-1} is nonnegative; rounding leaves about -1e-15.  B's
        # rows take Q_BB from one |B| x |B| solve and Q(b, x) = 1/(4 +
        # kappa) for interior neighbours x, and set the rest of Q on B x I to
        # 0: in G_A^{-1} that mass is rounding too
        for spec, kappa in (("box:16", 0.01), ("box:8", 0.05), ("box:32", 1e-4)):
            e = CoverEngine(kappa, make_target(spec), sampler="trace")
            assert e.chain.clamped.max() < 1e-12
            _, nbr, _ = cover.chain_order(e.target, e.target.neighbours())
            g = laws.green_matrix(kappa, e.pts)
            nb = int((nbr < 0).any(axis=1).sum())
            q = np.eye(len(g)) - np.linalg.inv(g)
            rest = np.abs(q[:nb, nb:])
            b, d = np.nonzero(nbr[:nb] >= nb)
            rest[b, nbr[b, d] - nb] = 0.0
            # about 1e-15 at each of box:32's 900 interior points
            assert rest.sum(axis=1).max() < 1e-11

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValueError):
            CoverEngine(0.5, BoxTarget(2), sampler="series")


class TestPathwiseProperties:
    # A = (0,0);(3,0);(0,3) and (9,1), outside the window: A's bounding box
    # holds non-points, and loops rooted outside it reach A
    POINTS = [(0, 0), (3, 0), (0, 3), (9, 1)]

    @staticmethod
    def _soup(seed):
        return sampler.sample_window_soup(seed, 0.05, Box(-7, -7, 7, 7), 10.0, 1e-6)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_against_loop_by_loop_decode(self, seed):
        soup = self._soup(seed)
        best = np.full(len(self.POINTS), np.inf)
        outside = wide = 0
        for i, steps in enumerate(soup.steps_packed):
            m = int(soup.half_length[i])
            codes = sampler.unpack_steps(steps, 2 * m)
            x = int(soup.root_x[i]) + np.cumsum(np.r_[0, STEP_DX[codes]])
            y = int(soup.root_y[i]) + np.cumsum(np.r_[0, STEP_DY[codes]])
            visited = set(zip(x.tolist(), y.tolist()))
            wide += len(steps) >= 2
            for k, p in enumerate(self.POINTS):
                if p in visited:
                    best[k] = min(best[k], soup.timestamp[i])
                    outside += not (0 <= soup.root_x[i] <= 9 and 0 <= soup.root_y[i] <= 3)
        assert wide > len(soup) // 5 and outside > 0 and np.isfinite(best).sum() >= 3
        assert np.array_equal(first_cover_times_from_soup(soup, self.POINTS), best)

    def test_decodes_only_the_loops_that_can_reach_a(self, monkeypatch):
        # a loop of half-length m stays within m of its root: the loops rooted
        # farther than that from A's bounding box are never decoded
        soup = self._soup(3)
        decoded = []
        unpack = cover.unpack_steps
        monkeypatch.setattr(cover, "unpack_steps",
                            lambda raw, n: decoded.append(len(raw)) or unpack(raw, n))
        first_cover_times_from_soup(soup, self.POINTS)
        near = Box(0, 0, 9, 3).distance(soup.root_x, soup.root_y) <= soup.half_length
        nbytes = np.array([len(steps) for steps in soup.steps_packed])
        # one decode of exactly the kept loops' bytes
        assert len(decoded) == 1
        assert 0 < decoded[0] == nbytes[near].sum() < nbytes.sum()

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
    """Either engine draws A in one slab, [0, t_residual), t_residual at
    most horizon0 = u* + 1/mu, and finishes each replica on the trace chain
    of its uncovered set F, for the uncovered replicas only, on slabs that
    end at horizon0 and then 1/mu, 2/mu, 4/mu, ... further."""

    @pytest.mark.parametrize("spec,kappa,sampler_", [
        ("box:16", 0.5, None), ("box:16", 0.01, None), ("box:3", 0.01, None),
        ("points:(0,0)", 0.25, "ring"), ("points:(0,0)", 0.25, "trace")])
    def test_each_batch_draws_a_once(self, monkeypatch, spec, kappa, sampler_):
        # one ring slab, or one slab of the chain on A, per batch, whatever
        # the batch size; a small batch budget makes several batches
        e = CoverEngine(kappa, make_target(spec), sampler=sampler_)
        monkeypatch.setattr(e, "_batch_size", lambda: 24)
        draws, batches = [], []
        owner, name = (e, "_ring_slab") if e.chain is None else (e.chain, "slab")
        draw, batch = getattr(owner, name), e._cover_batch

        def spy(rng, state, t0, t1, *tables):
            draws.append((len(state), t0, t1))
            return draw(rng, state, t0, t1, *tables)

        monkeypatch.setattr(owner, name, spy)
        monkeypatch.setattr(e, "_cover_batch",
                            lambda rng, b: batches.append(b) or batch(rng, b))
        e.ensemble(65, 100)
        assert batches == [24, 24, 24, 24, 4]
        assert draws == [(b, 0.0, e.t_residual) for b in batches]

    @pytest.mark.parametrize("spec", ["points:(0,0)", "points:(0,0);(1,1)", "box:3",
                                      "box:16"])
    @pytest.mark.parametrize("kappa", [0.01, 0.5])
    def test_t_residual_is_at_most_horizon0(self, spec, kappa):
        # 0 < t_residual <= horizon0 for the dispatch and both forced
        # engines; one point draws A up to horizon0 = 1/mu
        for sampler_ in (None, "ring", "trace"):
            e = CoverEngine(kappa, make_target(spec), sampler=sampler_)
            assert 0.0 < e.t_residual <= e.horizon0, sampler_
            if e.target.size == 1:
                assert e.t_residual == e.horizon0 == 1.0 / e.mu

    @pytest.mark.parametrize("engine,seed", [("ring", 51), ("trace", 52)])
    def test_law_across_slab_edges(self, monkeypatch, engine, seed):
        # the ECDF at and around the first two slab boundaries against the
        # exact determinant law; both engines start the residual before
        # horizon0, the trace chain at u*, where its cost model would draw
        # A up to horizon0
        e = CoverEngine(0.5, BoxTarget(3), sampler=engine)
        if engine == "trace":
            assert e.t_residual == e.horizon0
            e.t_residual = e.u_star
        builds, build = [], e._residual_chains
        monkeypatch.setattr(e, "_residual_chains",
                            lambda mask: builds.append(len(mask)) or build(mask))
        s = e.ensemble(seed, 80_000)
        assert s.sampler == engine and e.t_residual < e.horizon0 and builds
        law = laws.cover_law(0.5, e.target.points())
        h0, step = e.horizon0, 1.0 / e.mu
        # 3.5 SE at each of four u: a family-wise false-failure rate below
        # 0.19% (Bonferroni), a level fixed in advance
        for u in (h0 / 2, h0, h0 + step, h0 + 3 * step):
            assert law.rounding_bound(u) <= 1e-9
            p = float(law(u))
            se = math.sqrt(p * (1 - p) / s.values.count)
            assert abs(s.values.cdf(u) - p) <= 3.5 * se

    def test_residual_start_by_cost_model(self):
        # E|F| = S1(t_residual) = e^c = rate_s / (mu point_s): the first
        # phase's seconds per unit time, step_rate _STEP_S or cell_rate
        # _CELL_S, against the engine's price per point of F, where
        # t_residual falls inside (0, horizon0); on sets too small for that
        # A is drawn up to horizon0
        for kappa, engine in ((0.01, "trace"), (0.5, "ring")):
            e = CoverEngine(kappa, BoxTarget(16))
            assert e.sampler == engine and 0.0 < e.t_residual < e.horizon0
            rate_s = (e.step_rate * cover._STEP_S if engine == "trace"
                      else e.cell_rate * cover._CELL_S)
            assert math.isclose(e.target.size * math.exp(-e.mu * e.t_residual),
                                rate_s / (e.mu * cover._POINT_S[engine]))
        for spec, kappa in (("points:(0,0);(1,1)", 0.01), ("points:(0,0)", 0.01),
                            ("box:3", 0.01)):
            e = CoverEngine(kappa, make_target(spec))
            assert e.t_residual == e.horizon0

    def test_residual_start_ignores_batch_budgets(self, monkeypatch):
        # the batch size follows from t_residual, never the other way: a
        # sixteenth of any batch budget leaves t_residual where it was
        cases = (("box:16", 0.01), ("box:16", 0.5), ("box:8", 0.01))
        start = [CoverEngine(kappa, make_target(spec)).t_residual
                 for spec, kappa in cases]
        for name in ("_BATCH_BYTES", "REPLICA_BLOCK"):
            monkeypatch.setattr(cover, name, getattr(cover, name) // 16)
            assert [CoverEngine(kappa, make_target(spec)).t_residual
                    for spec, kappa in cases] == start, name
            monkeypatch.undo()

    def test_cost_model_meets_the_measured_best_c(self):
        # the c that ran fastest with t_residual forced (one core, 2-core
        # Xeon VM; ranges where two c's tied): the model's c lies within 0.5
        # of each, and no one price per point of F for both engines does, as
        # the ring engine wants it below 15.6 us and box:16 at kappa = 0.01
        # above 23.7 us
        lo, hi = 0.0, math.inf
        for spec, kappa, sampler_, best in (
                ("box:16", 0.5, None, (1.5, 1.5)), ("box:16", 0.01, None, (1.0, 1.5)),
                ("box:8", 0.01, None, (0.0, 0.0)), ("box:16", 0.05, "trace", (1.0, 1.0)),
                ("box:32", 1e-3, None, (2.5, 2.5))):
            e = CoverEngine(kappa, make_target(spec), sampler=sampler_)
            c = e.mu * (e.u_star - e.t_residual)
            assert best[0] - 0.5 <= c <= best[1] + 0.5, (spec, kappa, c)
            rate_s = (e.cell_rate * cover._CELL_S if e.chain is None
                      else e.step_rate * cover._STEP_S)
            # a constant price p gives c = log(rate_s / (mu p))
            lo = max(lo, rate_s / e.mu * math.exp(-best[1] - 0.5))
            hi = min(hi, rate_s / e.mu * math.exp(-best[0] + 0.5))
        assert lo > hi

    @pytest.mark.parametrize("side", [200, 2048])
    def test_residual_of_large_sets_starts_at_bounded_f(self, monkeypatch, side):
        # on large ring-engine sets the cost model asks for more points of F
        # than a row can price linearly (404 at box:200, 46 at box:64); they
        # start the residual at E|F| = _RESIDUAL_MEAN_F, whose Poisson count
        # almost never fills a chunk of _RESIDUAL_BYTES alone, without any G_A
        monkeypatch.setattr(cover, "green_matrix", _no_green_matrix)
        e = CoverEngine(0.5, BoxTarget(side))
        assert e.sampler == "ring" and 0.0 < e.t_residual < e.horizon0
        assert math.isclose(e.target.size * math.exp(-e.mu * e.t_residual),
                            cover._RESIDUAL_MEAN_F)
        # a batch's state fits _BATCH_BYTES, down to one replica at box:2048
        assert e._batch_size() == {200: 52, 2048: 1}[side]

    def test_residual_build_of_a_large_set_fits_its_budget(self):
        # rows of box:200 with Poisson(_RESIDUAL_MEAN_F) uncovered points,
        # as at its t_residual: each chunk's build peaks within twelve
        # times _RESIDUAL_BYTES (its comment: within 5)
        e = CoverEngine(0.5, BoxTarget(200))
        rng = np.random.default_rng(7)
        mask = np.zeros((e._batch_size(), e.target.size), dtype=bool)
        for row, k in zip(mask, rng.poisson(cover._RESIDUAL_MEAN_F, len(mask))):
            row[rng.choice(e.target.size, k, replace=False)] = True
        chunks = cover._chunks(mask.sum(axis=1), cover._RESIDUAL_BYTES // 8)
        assert len(chunks) > 1
        tracemalloc.start()
        try:
            for chunk in chunks:
                tracemalloc.reset_peak()
                chain, state = e._residual_chains(mask[chunk])
                assert state.shape == (len(chunk), mask[chunk].sum(axis=1).max())
                del chain, state
                assert tracemalloc.get_traced_memory()[1] <= 12 * cover._RESIDUAL_BYTES
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("side,kappa,replicas,engine", [
        (8, 0.01, 2048, "trace"), (64, 0.5, 1024, "ring")])
    def test_batch_peak_memory(self, side, kappa, replicas, engine):
        # the rise of the peak RSS over an ensemble, its engine built, stays
        # within _BATCH_BYTES plus 12 MiB of scratch that does not grow with
        # the batch: a ring fold's (7.4-7.8 MiB by tracemalloc) or a residual
        # chunk's build (within 5 _RESIDUAL_BYTES).  At box:8 the chain's
        # walkers bound the batch (918 replicas, rose 12.3 MiB), at box:64 the
        # ring engine's state (24.7 MiB; a copy of the state's uncovered rows
        # at the residual's start took it to 34.5).  The child reads its own
        # high-water mark (``_child``) after small ensembles of both engines
        # have loaded what every run needs
        out = _child("from loopsoup.cover import BoxTarget, CoverEngine\n"
                     "for s in ('ring', 'trace'):\n"
                     "    CoverEngine(0.01, BoxTarget(4), sampler=s).ensemble(1, 64)\n"
                     f"e = CoverEngine({kappa}, BoxTarget({side}))\n"
                     "before = hwm()\n"
                     f"e.ensemble(7, {replicas})\n"
                     "print(e.sampler, e._batch_size(), hwm() - before)")
        assert out[0] == engine and int(out[1]) < replicas
        assert int(out[2]) <= cover._BATCH_BYTES + (12 << 20)

    @pytest.mark.parametrize("spec,kappa,sampler_,replicas,seed", [
        ("box:16", 0.01, None, 2000, 54), ("box:8", 0.5, "trace", 4000, 55),
        ("box:16", 0.5, None, 4000, 63), ("points:(0,0);(3,1);(5,5)", 0.5, "ring", 8000, 64)])
    def test_uncovered_count_moments_at_t_residual(self, monkeypatch, spec, kappa,
                                                   sampler_, replicas, seed):
        # N = |F| at t_residual: E N = S1 = |A| G(o)^-t and E N(N - 1) = S2
        # = sum over x != y of (G(o)^2 - G(x - y)^2)^-t, exactly, each
        # within 4 standard errors
        e = CoverEngine(kappa, make_target(spec), sampler=sampler_)
        t = e.t_residual
        assert 0.0 < t < e.horizon0
        sizes, build = [], e._residual_chains
        monkeypatch.setattr(e, "_residual_chains",
                            lambda mask: sizes.append(mask.sum(axis=1)) or build(mask))
        e.ensemble(seed, replicas)
        n = np.zeros(replicas)
        found = np.concatenate(sizes)
        n[:len(found)] = found   # replicas covered before t_residual have N = 0
        g = laws.green_matrix(kappa, e.target.points())
        goo = g[0, 0]
        pair = (goo ** 2 - g ** 2)[~np.eye(len(g), dtype=bool)]
        for got, law in ((n, len(g) * goo ** -t), (n * (n - 1), (pair ** -t).sum())):
            se = got.std(ddof=1) / math.sqrt(replicas)
            assert abs(got.mean() - law) <= 4 * se, (got.mean(), law, se)

    @pytest.mark.parametrize("start", ["zero", "u_star", "horizon0"])
    def test_residual_determinant_law(self, monkeypatch, start):
        # the residual from t = 0 (F = A), from u* and from horizon0, against
        # the exact law
        kappa, target = 0.01, BoxTarget(3)
        e = CoverEngine(kappa, target)
        e.t_residual = {"zero": 0.0, "u_star": e.u_star, "horizon0": e.horizon0}[start]
        builds, build = [], e._residual_chains
        monkeypatch.setattr(e, "_residual_chains",
                            lambda mask: builds.append(len(mask)) or build(mask))
        s = e.ensemble(56, 20_000)
        assert s.sampler == "trace" and sum(builds) > 0
        law = laws.cover_law(kappa, target.points())
        assert ks_distance(s.values, law) <= ks_threshold(20_000)

    @pytest.mark.parametrize("kappa,seed", [(1e-12, 58), (1e-300, 59)],
                             ids=["1e-12", "1e-300"])
    def test_dispatch_meets_the_law_as_kappa_vanishes(self, kappa, seed):
        # the kappa -> 0 end of the regime axis, where the law of mu T moves
        # toward Exp(1) and only the trace chain can run
        target = BoxTarget(3)
        s = CoverEngine(kappa, target).ensemble(seed, 4000)
        assert s.sampler == "trace"
        assert ks_distance(s.values, laws.cover_law(kappa, target.points())) \
            <= ks_threshold(4000)

    def test_traced_cells_stop_near_the_cover_time(self, monkeypatch):
        # box:16 at kappa = 0.5 needs about u* + 1.64/mu of soup per
        # replica (0.65 of 2 u*, the first horizon the engine once drew for
        # every replica); the cells it traces pin that
        e = CoverEngine(0.5, BoxTarget(16))
        assert e.sampler == "ring"
        cells, slab = [], e._ring_slab
        monkeypatch.setattr(e, "_ring_slab", lambda *args: cells.append(slab(*args)))
        e.ensemble(53, 512)
        assert sum(cells) / 512 < 0.7 * e.cell_rate * 2.0 * e.u_star


def _short_loops(target) -> list[tuple[int, int]]:
    """The loops of half-length 1, one per (root, direction), that meet A,
    by brute force over the box grown by 2: the root's vertex and its
    neighbour's, or the one vertex of A the loop visits and -1."""
    box, index = target.box, {p: v for v, p in enumerate(target.points())}
    loops = []
    for x in range(box.x0 - 2, box.x1 + 3):
        for y in range(box.y0 - 2, box.y1 + 3):
            for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                a, b = index.get((x, y), -1), index.get((x + dx, y + dy), -1)
                if max(a, b) >= 0:
                    loops.append((a, b) if a >= 0 else (b, a))
    return sorted(loops)


class TestRingSlab:
    """The ring engine's slab: loops of half-length 1 drawn as the pairs P
    of vertices they visit, the rest laid out in descending half-length,
    their roots drawn per half-length, and traced in folds of at most
    _FOLD_LOOPS, one position at a time."""

    @pytest.mark.parametrize("spec", ["box:3", "points:(0,0);(1,0);(0,1)",
                                      "points:(0,0);(3,1)"])
    def test_pairs_are_the_short_loops_that_meet_a(self, spec):
        e = CoverEngine(0.5, make_target(spec), sampler="ring")
        assert sorted(map(tuple, e.pairs.T.tolist())) == _short_loops(e.target)

    @pytest.mark.parametrize("spec", ["box:3", "points:(0,0);(3,1)"])
    def test_cell_rate_counts_cells(self, spec):
        # cell_rate, summed by half-length, is the ring-class sum
        # sum_delta R(delta) 2 sum_{m >= max(delta, 1)} m w_m regrouped, out
        # past n_trunc to m = 2,000, where the terms have vanished, less t_1
        # (reach_1 - |P| / 4) for the half-length-1 loops that miss A; and
        # the mean number of cells folded per unit time and replica, the
        # envelope's loops past n_trunc inside the price
        e = CoverEngine(0.5, make_target(spec), sampler="ring")
        terms = loop_term_array(0.5, 2000)   # 2m w_m = t_m
        suffix = np.cumsum(terms[::-1])[::-1]
        delta = np.arange(2001)
        by_ring = (e.target.box.ring_count(delta) * suffix[np.maximum(delta, 1) - 1]).sum()
        by_ring -= terms[0] * (e.target.box.area + e.target.box.ring_count(1)
                               - len(_short_loops(e.target)) / 4)
        assert abs(e.cell_rate - by_ring) <= 1e-12 * by_ring
        rng = np.random.default_rng(61)
        rows, dt = 16, 0.5
        per_slab = [e._ring_slab(rng, np.full((rows, e.target.size), np.inf), 0.0, dt)
                    for _ in range(400)]
        per_slab = np.asarray(per_slab, dtype=np.float64)
        se = per_slab.std(ddof=1) / math.sqrt(len(per_slab))
        assert abs(per_slab.mean() - e.cell_rate * dt * rows) <= 5 * se

    @pytest.mark.parametrize("spec,rows,seed,kappa", [
        *(pytest.param(spec, rows, seed, 0.5, id=f"{spec}-{rows}-{seed}")
          for spec, rows, seed in (("box:8", 4000, 57), ("box:16", 4000, 58),
                                   ("points:(0,0);(3,1);(5,5)", 8000, 59),
                                   ("line:4x6", 8000, 62))),
        ("box:8", 4000, 66, 20.0), ("points:(0,0);(1,0);(0,1)", 8000, 67, 20.0)])
    def test_uncovered_count_moments(self, spec, rows, seed, kappa):
        # N, the points uncovered by one slab [0, u), u = 0.7 u*: E N = S1 =
        # |A| G(o)^-u and E N(N - 1) = S2 = sum over x != y of (G(o)^2 -
        # G(x - y)^2)^-u, each within 4 standard errors; at kappa = 20 the
        # pairs P carry 98% of the loops on box:8 and 95% on the L
        e = CoverEngine(kappa, make_target(spec), sampler="ring")
        u = 0.7 * e.u_star
        state = np.full((rows, e.target.size), np.inf)
        e._ring_slab(np.random.default_rng(seed), state, 0.0, u)
        n = np.isinf(state).sum(axis=1).astype(np.float64)
        g = laws.green_matrix(kappa, e.target.points())
        goo = g[0, 0]
        pair = (goo ** 2 - g ** 2)[~np.eye(len(g), dtype=bool)]
        for got, law in ((n, len(g) * goo ** -u), (n * (n - 1), (pair ** -u).sum())):
            se = got.std(ddof=1) / math.sqrt(rows)
            assert abs(got.mean() - law) <= 4 * se, (got.mean(), law, se)

    def test_ring_slab_peak_memory(self):
        # a full batch of 4,094 replicas at box:16, kappa = 0.5: holding the
        # first slab's 3.7M loops whole peaked near 611 MB, and (loops, 2m)
        # coordinate arrays of one half-length at a time near 164 MB.  The
        # child reads its own high-water mark (``_child``)
        out = _child("from loopsoup.cover import BoxTarget, CoverEngine\n"
                     "s = CoverEngine(0.5, BoxTarget(16)).ensemble(7, 4094)\n"
                     "print(s.sampler, hwm())")
        assert out[0] == "ring" and int(out[1]) / 2 ** 20 < 150


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
        a = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(3, 5000)
        b = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(3, 5000)
        assert np.array_equal(a.values.values, b.values.values)

    def test_workers_do_not_change_results(self):
        a = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(3, 9000, workers=1)
        b = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(3, 9000, workers=2)
        assert np.array_equal(a.values.values, b.values.values)

    def test_pool_size_is_bounded_by_blocks_and_cpus(self, monkeypatch):
        # a process pool starts all its workers at the first job, so
        # --workers 5000 must not ask for 5000; the fake pool records its
        # size and runs the jobs inline, so no process is started here
        import concurrent.futures
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, job, args):
                return map(job, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for blocks, workers in ((3, 5000), (9, 5000), (9, 2), (1, 5000)):
            assert cover.run_blocks(str, list(range(blocks)), workers) == \
                [str(i) for i in range(blocks)]
        assert sizes == [3, 4, 2]
        # three replica blocks: the same values as one worker, from a pool of 3
        a = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(3, 9000, workers=1)
        b = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(3, 9000, workers=5000)
        assert sizes == [3, 4, 2, 3]
        assert np.array_equal(a.values.values, b.values.values)

    def test_disjoint_seeds_same_law(self):
        a = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(1, 15_000)
        b = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(2, 15_000)
        assert ks_2samp(a.values.values, b.values.values).pvalue > 0.001

    def test_horizon_start_invariance(self):
        # the residual's first slab ending at horizon0 or at 4 horizon0
        # gives the same law
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
        s = CoverEngine(0.5, PointsTarget([(0, 0)])).ensemble(1, 1)
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

    def test_many_sep_check_that_cannot_fail_is_not_asserted(self):
        # at kappa = 1 the gap budget alone is past 1, which no KS distance
        # exceeds; at kappa = 0.25 the allowance is below 1 and the check holds
        v, = cover.run_example_many_sep(1.0, 2, 10, 100, seed=2).verdicts
        assert v.rhs >= 1.0 and v.verdict == VERDICT_NOT_MET
        v, = cover.run_example_many_sep(0.25, 2, 160, 2000, seed=2).verdicts
        assert v.rhs < 1.0 and v.verdict == VERDICT_HOLDS

    def test_many_sep_reduces_to_singleton(self):
        rep = cover.run_example_many_sep(1.0, 1, 10, 4000, seed=2)
        emp = rep.ensembles["cover"].scaled()
        assert ks_distance(emp, laws.one_point_law) \
            <= ks_threshold(4000) + 1e-3

    def test_gumbel_scan_guard(self):
        with pytest.raises(ResourceCeilingError):
            cover.run_gumbel_scan(0.5, [8], 10_000_000_000, work_guard=1e9)
