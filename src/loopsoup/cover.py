"""Cover-time Monte Carlo for finite target sets (``lattice.PointsTarget``).

Two exact-in-law samplers of the soup's first-visit times on the target A
share one batch loop: per Poisson slab of time they fold loops into
per-(replica, vertex) minima of uniform timestamps.  mu T(A) - log|A| is
about Gumbel, so a replica is mostly covered by u* + O(1/mu): the first
slab ends at u* + 1/mu (at 1/mu for a single point), and each later slab,
drawn for the replicas still uncovered only, is 1/mu, 2/mu, 4/mu, ... long.
The soup's loops form a Poisson process in time, whose increments over
disjoint slabs are independent, so any fixed sequence of slab boundaries
is exact.

The trace chain (``TraceChain``) samples the trace of the soup on A itself:
the loop soup of the chain Q = I - G_A^{-1} (Le Jan 2011, *Markov paths,
loops and fields*), decomposed by each loop's lowest vertex in a
coarse-to-fine order of A through the Cholesky pivots of G_A.  It needs no
truncation, so its ``truncation_bias_rate`` is 0.

The ring engine samples the loops of the truncated soup that are able to
touch the target's bounding box: a loop of half-length m reaches at most m
from its root, so only roots within L1 distance m of the box matter.  It
draws, for m = 1..n_trunc, Poisson(w_m reach_m) loops per unit time and
replica, reach_m counting the cells within m of the box, each rooted on ring
delta <= m with probability proportional to the ring's size and uniformly on
it, with a uniform timestamp, and traces them one position at a time, in
lockstep.  This is the soup's intensity ring_count(delta) w_m
1{m >= max(delta, 1)} grouped by m; every target, boxes and sparse point
sets alike, uses its box's rings, with no acceptance step.  Discarding loops
that provably cannot intersect the target leaves the law of every coverage
functional unchanged, and the truncation carries a certified bias rate
(``sampler.truncation_bias_rate``) that reports add to their statistical
error.

``CoverEngine`` picks, per (kappa, A), the sampler with the smaller work
per unit time: the ring engine's expected traced cells (``cell_rate``)
against the trace chain's expected steps (``step_rate``), both times the
first horizon.  step_rate >= |A| (G(o) - 1/2), and where cell_rate is
not above that the ring engine is taken without factoring G_A.  Sets whose
trace setup (G_A and the alias tables, ``trace_setup_bytes``, which counts
|A| only) would exceed TRACE_SETUP_BYTES keep the ring engine.  At a
kappa whose half-length law passes its truncation ceiling only the trace
chain is left, and a set over that budget is refused.

Replicas are grouped in fixed-size blocks with independently keyed
streams; results merge by block index, so worker count never changes any
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .greens import mu_gamma_o
from .lattice import BoxTarget, Point, PointsTarget  # re-exported to callers
from .laws import (exp1_power_cdf, green_matrix, gumbel_cdf, one_point_law,
                   u_star)
from .records import VERDICT_FAILS, Verdict, verdict
from .rng import block_stream
from . import sampler as _sampler
from .sampler import (_alias_setup, length_pmf, loop_vertices, truncation_bias_rate,
                      unpack_steps, urn_steps)
from .series import (ResourceCeilingError,  # raised here, re-exported to callers
                     SeriesTruncationError)

REPLICA_BLOCK = 4096
TAIL_TOL = 1e-10  # omitted mass of the half-length law; sets the bias rate
#: Most bytes the trace chain's setup may hold; larger sets keep the ring
#: engine.  Any set of at most 1,758 points fits, whatever its spread; the
#: largest box is box:41 (1,681 points), whose G_A, factor, inverse and
#: alias tables take about 1 s on one core.
TRACE_SETUP_BYTES = 1 << 27
_CELL_BUDGET = 24_000_000
_FOLD_LOOPS = 1 << 16     # loops per ring-engine fold
_WALKER_BUDGET = 1 << 15   # loops plus excursions per trace-chain batch
_VISIT_BUDGET = 1 << 15    # logged trace-chain visits between folds
_MAX_SLABS = 48
# unused here, kept only for the benchmark's tracer, which patches it, until
# ROADMAP item 4 replaces the patches (as laws.TargetSet is)
balanced_signs = _sampler.balanced_signs


def make_target(spec: str):
    """Parse `box:<n>`, `points:(x,y);(x,y);...`, or `line:<k>x<sep>`."""
    kind, _, rest = spec.partition(":")
    cause = None
    try:
        if kind == "box":
            return BoxTarget(int(rest))
        if kind == "points":
            pts = []
            for tok in rest.split(";"):
                tok = tok.strip()
                if not (tok.startswith("(") and tok.endswith(")")):
                    raise ValueError(f"bad point {tok!r}")
                a, b = tok[1:-1].split(",")
                pts.append((int(a), int(b)))
            return PointsTarget(pts)
        if kind == "line":
            k, sep = rest.split("x")
            return PointsTarget([(i * int(sep), 0) for i in range(int(k))])
    except (ValueError, TypeError) as exc:
        cause = exc
    why = f": {cause}" if cause is not None else ""
    raise ValueError(f"bad set spec {spec!r}{why}; grammar: box:<n> | "
                     f"points:(x1,y1);(x2,y2);... | line:<k>x<sep>") from cause


# ---------------------------------------------------------------------------
# Empirical distributions and KS machinery


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted finite sample supporting exact CDF evaluation and KS distance."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        v = np.sort(np.asarray(values, dtype=np.float64))
        if v.size < 1:
            raise ValueError("need at least one sample")
        if not np.isfinite(v).all():
            raise ValueError("samples must be finite")
        return cls(values=v)

    @property
    def count(self) -> int:
        return int(self.values.size)

    def cdf(self, t: float) -> float:
        return float(np.searchsorted(self.values, t, side="right")) / self.count


def ks_distance(emp: EmpiricalDistribution, cdf) -> float:
    """Exact two-sided sup distance between the empirical CDF and cdf."""
    f = np.asarray(cdf(emp.values), dtype=np.float64)
    n = emp.count
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_threshold(n: int) -> float:
    """The 0.999 quantile of the KS distance of n exact draws: Kolmogorov's
    limit law's 0.999 quantile, 1.949474603504375, with Stephens' (1970)
    finite-n scaling sqrt(n) + 0.12 + 0.11/sqrt(n).  Within 0.15% of the
    exact quantile for n >= 39, and above it for n <= 38."""
    root = math.sqrt(n)
    return 1.949474603504375 / (root + 0.12 + 0.11 / root)


# ---------------------------------------------------------------------------
# The sampling engine


@dataclass
class CoverTimeSample:
    """An ensemble of cover times.  truncation_bias_rate is the ring
    engine's certified rate of discarded loops that could have hit the
    target; it is 0.0 on the trace chain, which is exact.  sampler names
    the engine that drew the values ("ring" or "trace")."""

    kappa: float
    target_label: str
    target_size: int
    replicas: int
    values: EmpiricalDistribution
    truncation_bias_rate: float
    seed: int
    mu: float
    u_star: float | None
    sampler: str

    @property
    def truncation_bias_bound(self) -> float:
        """CDF bias bound at the largest evaluated time."""
        return self.truncation_bias_rate * float(self.values.values.max())

    def scaled(self) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_samples(self.mu * self.values.values)


def trace_setup_bytes(size: int) -> int:
    """Peak bytes of the trace chain's setup for a set of `size` points:
    42 bytes per size * (size + 1) entry, set by G_A and its inverse with
    LAPACK's working copies, plus 4 MiB.  It bounds the rise of the
    process's peak RSS while the engine is built (one core, kappa = 0.01,
    the same in two runs) by about 20%: box:32 estimates 48.3 MB and rose
    41.6 MB, box:38 91.8 MB and 77.0 MB, box:41 122.9 MB and 99.6 MB."""
    return 42 * size * (size + 1) + (4 << 20)


def coarse_to_fine(points: np.ndarray) -> np.ndarray:
    """The trace chain's order of (n, 2) points: coarsest dyadic level of
    the offset (dx, dy) from the bounding box's corner (trailing zeros of
    dx | dy) first, then bit-reversed dx, then dy; it is translation-free."""
    d = (points - points.min(axis=0)).T
    v = np.stack([d[1], d[0], (d[0] | d[1]) & -(d[0] | d[1])])
    rev = np.zeros_like(v)
    for _ in range(int(v.max()).bit_length()):   # any common width orders alike
        rev, v = rev << 1 | v & 1, v >> 1
    return np.lexsort(rev)   # the last key, the level, first; then dx, dy


class TraceChain:
    """The soup's trace on A as the loop soup of the chain Q = I - G_A^{-1}.

    A is taken in the order x_1..x_n of ``coarse_to_fine`` and G_A = C C^T.
    The pivot g_j = C_jj^2 is the Green's function at x_j of Q killed on
    x_{<j}, and the loops whose lowest vertex is x_j have mass log g_j (so
    sum_j log g_j = log det G_A).  Per unit time and replica they number
    Poisson(log g_j); each is logseries(1 - 1/g_j) excursions of Q from x_j
    that return to x_j.  An excursion is drawn by rejection: an attempt
    that steps into x_{<j} or into Q's killing deficit is discarded with
    its visits and restarted from x_j.  Root j makes g_j attempts per unit
    time of 1 + sum_{l>j} C_lj / C_jj steps each, so step_rate, the sum of
    C_jj sum_{l>=j} C_lj over roots with g_j > 1, is the exact mean number
    of steps per unit time with rejections (box:16, kappa = 0.01: 1,735,
    and 2,734 in raster order).  g_j = 1 iff x_j's four neighbours precede
    it, else g_j >= 1 + (4+kappa)^-2, so pivots nearer 1 are set to 1.  The
    alias tables' row and column v are vertex v = 1..n and column 0 is the
    killing deficit: a step from root j fails iff it lands below j.
    """

    def __init__(self, g: np.ndarray, kappa: float):
        c = np.linalg.cholesky(g)
        pivot = np.diagonal(c)
        gj = np.where(pivot ** 2 < 1.0 + 0.5 / (4.0 + kappa) ** 2, 1.0, pivot ** 2)
        self.log_g = np.log(gj)
        self.p_return = 1.0 - 1.0 / gj
        self.step_rate = float((pivot * c.sum(axis=0))[gj > 1.0].sum())

    def build_tables(self, g: np.ndarray) -> None:
        """Alias tables of Q's rows, with the killing deficit as column 0.

        Q = I - G_A^{-1} and the deficit are written into one (n + 1, n + 1)
        table, which the alias construction then scales in place; the
        setup's peak is numpy's inversion of G_A.  Rounding leaves entries
        of about -1e-15 where Q is ~0; they are clamped to 0 and their mass
        per row is kept in ``clamped``."""
        n = len(g)
        table = np.zeros((n + 1, n + 1))
        q = table[1:, 1:]
        np.negative(np.linalg.inv(g), out=q)
        q[np.diag_indices(n)] += 1.0
        self.clamped = -np.minimum(q, 0.0).sum(axis=1)
        np.maximum(q, 0.0, out=q)
        table[1:, 0] = np.maximum(1.0 - q.sum(axis=1), 0.0)
        alias, keep = _alias_setup(table)
        self._alias, self._keep = alias.ravel(), keep.ravel()

    def slab(self, rng, state: np.ndarray, t0: float, t1: float) -> int:
        """Fold the loops with timestamps in [t0, t1) into state, a
        C-contiguous (rows, n) array of first-visit times in the chain's
        vertex order, in place; returns the number of chain steps."""
        if not state.flags.c_contiguous:
            raise ValueError("state must be C-contiguous")
        rows, n = state.shape
        flat = state.reshape(-1)
        counts = rng.poisson((t1 - t0) * self.log_g, size=(rows, n))
        cell = np.repeat(np.arange(rows * n), counts.ravel())   # row * n + root
        t = t0 + (t1 - t0) * rng.random(len(cell))
        np.minimum.at(flat, cell, t)
        root = cell % n
        loop = np.repeat(np.arange(len(cell)), rng.logseries(self.p_return[root]))
        # per excursion: the state offset of vertex v is base + v
        base, when, lo = (cell - root - 1)[loop], t[loop], root[loop] + 1
        attempt = np.zeros(len(loop), dtype=np.int64)
        walker, wlo, off = np.arange(len(loop)), lo, lo * (n + 1)
        log: list[tuple] = []   # (walker, next vertex, attempt) of every step
        logged, budget, steps = 0, _VISIT_BUDGET, 0
        while len(walker):
            steps += len(walker)
            u = rng.random(len(walker)) * (n + 1)
            col = u.astype(np.intp)
            at = off + col
            nxt = np.where(u - col < self._keep[at], col, self._alias[at])
            log.append((walker, nxt, attempt[walker]))
            logged += len(walker)
            fail = nxt < wlo
            attempt[walker[fail]] += 1
            live = nxt != wlo
            off = np.where(fail, wlo, nxt)[live] * (n + 1)
            walker, wlo = walker[live], wlo[live]
            if logged > budget or not len(walker):
                # fold the visits (steps past the root in the last attempt)
                # of finished excursions, less those after the vertex's first
                # visit so far; keep the rest of those under way
                w, v, a = (np.concatenate(x) for x in zip(*log))
                ok = (v > lo[w]) & (a == attempt[w])
                w, v, a = w[ok], v[ok], a[ok]
                at = base[w] + v
                ok = when[w] < flat[at]
                going = np.zeros(len(loop), dtype=bool)
                going[walker] = True
                done = ok & ~going[w]
                np.minimum.at(flat, at[done], when[w[done]])
                ok &= going[w]
                log = [(w[ok], v[ok], a[ok])]
                logged = int(ok.sum())
                budget = max(_VISIT_BUDGET, 2 * logged)
        return steps


class CoverEngine:
    """Cover-time sampling of one target at one kappa, by the trace chain
    or the ring engine, whichever has the smaller work estimate; sampler
    "ring" or "trace" forces one.  The ring engine's estimate, cell_rate =
    sum_m 2m w_m reach_m, is its exact mean number of traced cells per unit
    time and replica.  Ms per replica on one core, ring against trace:
    kappa = 0.5 on box:8, box:16 and box:32, 0.12, 0.40 and 1.53 against
    0.42, 2.4 and 11.5; box:16 at kappa = 0.1, 0.05 and 0.01, 0.77, 1.40 and
    11.4 against 2.3, 2.9 and 2.6.  The dispatch picks the faster engine at
    each, except the trace chain at box:16, kappa = 0.05."""

    def __init__(self, kappa: float, target, sampler: str | None = None):
        if sampler not in (None, "ring", "trace"):
            raise ValueError(f"unknown sampler {sampler!r}")
        self.kappa, self.target = kappa, target
        self.mu = mu_gamma_o(kappa).value
        # the ring engine's length law, where it may run and its truncation
        # fits the ceiling; without it only the trace chain is left
        self.dist, self.cell_rate, no_ring = None, math.inf, ""
        if sampler != "trace":
            try:
                self.dist = length_pmf(kappa, TAIL_TOL)
            except SeriesTruncationError as exc:
                if sampler == "ring":
                    raise
                no_ring = f", and the ring engine's {exc}"
        if self.dist is not None:
            n = self.dist.n_trunc
            # reach[m]: cells within L1 distance m of the box, the roots of
            # the loops of half-length m that can touch it
            self.reach = np.cumsum(target.box.ring_count(np.arange(n + 1)),
                                   dtype=np.float64)
            m = np.arange(1, n + 1)
            self.cell_rate = float((2.0 * m * self.dist.weights * self.reach[1:]).sum())
        # the end of the first slab; later slabs are 1/mu, 2/mu, ... long
        if target.size >= 2:
            self.u_star = u_star(kappa, target.size, self.mu)
            self.horizon0 = self.u_star + 1.0 / self.mu
        else:
            self.u_star = None
            self.horizon0 = 1.0 / self.mu
        self.chain, self.step_rate = None, math.inf
        # step_rate >= tr(G_A) - |A|, the loops' visits, plus one rejected
        # attempt per unit time at each root with g_j > 1, at least half of
        # the roots: below that floor the ring engine wins without G_A
        self.step_floor = target.size * (math.exp(self.mu) - 0.5)
        if sampler == "trace" or (sampler is None and self.step_floor < self.cell_rate):
            need = trace_setup_bytes(target.size)
            if need <= TRACE_SETUP_BYTES:
                g = green_matrix(kappa, target.pts[coarse_to_fine(target.pts)])
                chain = TraceChain(g, kappa)
                self.step_rate = chain.step_rate
                if sampler == "trace" or chain.step_rate < self.cell_rate:
                    chain.build_tables(g)
                    self.chain = chain
            elif sampler == "trace" or self.dist is None:
                raise ResourceCeilingError(
                    f"trace setup needs {need:.3g} bytes > {TRACE_SETUP_BYTES}{no_ring}")
        self.sampler = "ring" if self.chain is None else "trace"
        self.bias_rate = (truncation_bias_rate(self.dist, target.box)
                          if self.chain is None else 0.0)

    # -- ring engine ------------------------------------------------------

    def _ring_slab(self, rng, state: np.ndarray, t0: float, t1: float) -> None:
        """Fold the relevant loops with timestamps in [t0, t1) into state, a
        C-contiguous (rows, V) array of first-visit times, in place.

        Poisson(rows (t1 - t0) w_m reach[m]) loops of each half-length m, in
        descending half-length, _FOLD_LOOPS at a time.  A fold draws, in this
        order, each loop's ring delta <= m (by cell count), root (uniform on
        the ring), row and timestamp, then its steps (``urn_steps``); it folds
        the roots, then each position's cells as they are traced."""
        rows, V = state.shape
        flat = state.reshape(-1)
        counts = rng.poisson((rows * (t1 - t0)) * self.dist.weights * self.reach[1:])
        ends = np.cumsum(counts[::-1])   # where half-length n_trunc - k ends
        for a in range(0, ends[-1], _FOLD_LOOPS):
            m = self.dist.n_trunc - np.searchsorted(
                ends, np.arange(a, min(a + _FOLD_LOOPS, ends[-1])), side="right")
            delta = np.searchsorted(self.reach, rng.random(len(m)) * self.reach[m],
                                    side="right")
            x, y = self.target.root_coords(rng, delta)
            base = rng.integers(0, rows, size=len(m)) * V
            t = t0 + (t1 - t0) * rng.random(len(m))
            for live, dx, dy in chain([(len(m), 0, 0)], urn_steps(rng, m)):
                x[:live] += dx
                y[:live] += dy
                vi = self.target.vertex_index(x[:live], y[:live])
                hit = np.flatnonzero(vi >= 0)
                np.minimum.at(flat, base[hit] + vi[hit], t[hit])

    # -- public sampling --------------------------------------------------

    def _slab(self, rng, state: np.ndarray, t0: float, t1: float) -> None:
        if self.chain is not None:
            self.chain.slab(rng, state, t0, t1)
        else:
            self._ring_slab(rng, state, t0, t1)

    def _batch_size(self) -> int:
        """Replicas per batch, so that the ring engine's traced cells or the
        trace chain's loops and excursions in the first slab, the only one
        that draws for every replica of the batch, stay within budget."""
        if self.chain is None:
            per_rep = max(self.cell_rate * self.horizon0, 1.0)
            return int(min(REPLICA_BLOCK, max(16, _CELL_BUDGET // per_rep)))
        log_g = self.chain.log_g
        per_rep = self.horizon0 * float((log_g + np.expm1(log_g)).sum())
        return int(min(REPLICA_BLOCK, max(1, _WALKER_BUDGET // max(per_rep, 1.0))))

    def cover_times_block(self, rng, n_replicas: int) -> np.ndarray:
        out = np.empty(n_replicas)
        done = 0
        bs = self._batch_size()
        while done < n_replicas:
            b = min(bs, n_replicas - done)
            out[done:done + b] = self._cover_batch(rng, b)
            done += b
        return out

    def _cover_batch(self, rng, b: int) -> np.ndarray:
        """Cover times of b replicas.  The first slab, [0, horizon0), is
        drawn for all of them; each later slab only for the replicas still
        uncovered, 1/mu, 2/mu, 4/mu, ... long.  The boundaries are fixed in
        advance, so the slabs are independent pieces of one Poisson soup."""
        V = self.target.size
        state = np.full((b, V), np.inf)
        times = np.full(b, np.nan)
        active = np.arange(b)
        t0, t1, step = 0.0, self.horizon0, 1.0 / self.mu
        for _ in range(_MAX_SLABS):
            sub = state[active]   # a fresh C-contiguous copy
            self._slab(rng, sub, t0, t1)
            state[active] = sub
            worst = sub.max(axis=1)
            covered = np.isfinite(worst)
            times[active[covered]] = worst[covered]
            active = active[~covered]
            if len(active) == 0:
                return times
            t0, t1, step = t1, t1 + step, 2.0 * step
        raise ResourceCeilingError(
            f"target not covered within {_MAX_SLABS} slabs (horizon {t0:.6g})")

    def ensemble(self, seed: int, replicas: int, workers: int = 1,
                 work_guard: float | None = None) -> CoverTimeSample:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        # work up to the end of the second slab, which bounds the mean
        # horizon a replica is drawn to: about u* + 1.64/mu for a large set
        # and 1.71/mu for one point
        rate = self.cell_rate if self.chain is None else self.step_rate
        est = rate * (self.horizon0 + 1.0 / self.mu) * replicas
        if work_guard is not None and est > work_guard:
            raise ResourceCeilingError(
                f"estimated work {est:.3g} exceeds guard {work_guard:.3g}")
        label = f"cover/{self.target.label}/{self.kappa:g}"
        blocks = [(i, min(REPLICA_BLOCK, replicas - i * REPLICA_BLOCK))
                  for i in range((replicas + REPLICA_BLOCK - 1) // REPLICA_BLOCK)]
        parts = run_blocks(_cover_block_job, [(self, label, seed, bi, bn)
                                              for bi, bn in blocks], workers)
        values = np.concatenate(parts)
        return CoverTimeSample(
            kappa=self.kappa, target_label=self.target.label,
            target_size=self.target.size, replicas=replicas,
            values=EmpiricalDistribution.from_samples(values),
            truncation_bias_rate=self.bias_rate, seed=seed, mu=self.mu,
            u_star=self.u_star, sampler=self.sampler)


def _cover_block_job(args):
    engine, label, seed, block_index, n = args
    rng = block_stream(seed, label, block_index)
    return engine.cover_times_block(rng, n)


def run_blocks(job, arg_list, workers: int = 1):
    """Run per-block jobs and merge by block index (worker-count invariant)."""
    if workers <= 1 or len(arg_list) <= 1:
        return [job(a) for a in arg_list]
    import concurrent.futures as cf
    with cf.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(job, arg_list))


# ---------------------------------------------------------------------------
# Spec-level operations


def first_cover_times_from_soup(soup, points: list[Point]) -> np.ndarray:
    """Per-point first cover times under an explicit soup (inf if missed).

    The packed steps are joined once, and loops are decoded in half-length
    groups, by byte offsets, so the pathwise route stays usable as an oracle
    at thousands of loops.
    """
    target = PointsTarget(points)
    best = np.full(len(points), np.inf)
    hl = np.asarray(soup.half_length, dtype=np.int64)
    nbytes = (2 * hl + 3) // 4
    start = np.cumsum(nbytes) - nbytes
    buf = np.frombuffer(b"".join(soup.steps_packed), dtype=np.uint8)
    for m in np.unique(hl).tolist():
        idx = np.nonzero(hl == m)[0]
        raw = buf[start[idx, None] + np.arange((2 * m + 3) // 4)]
        px, py = loop_vertices(soup.root_x[idx], soup.root_y[idx],
                               unpack_steps(raw, 2 * m))
        vi = target.vertex_index(px.ravel(), py.ravel())
        hit = vi >= 0
        if hit.any():
            tt = np.repeat(soup.timestamp[idx], 2 * m)
            np.minimum.at(best, vi[hit], tt[hit])
    return best


def cover_time_ensemble(seed: int, kappa: float, target: PointsTarget, replicas: int,
                        workers: int = 1, work_guard: float | None = None) -> CoverTimeSample:
    return CoverEngine(kappa, target).ensemble(seed, replicas, workers, work_guard)


# ---------------------------------------------------------------------------
# Example experiments and scans


def _trend_verdict(check: str, params: str, distances: list[float],
                   allowance: float) -> Verdict:
    worst = max(b - a for a, b in zip(distances, distances[1:])) \
        if len(distances) > 1 else 0.0
    return verdict(check, "trend", params, worst, allowance, worst <= allowance)


@dataclass
class ExampleReport:
    label: str
    kappa: float
    verdicts: list[Verdict]
    ensembles: dict[str, CoverTimeSample]
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.verdict != VERDICT_FAILS for v in self.verdicts)


def analytic_two_point_gap(kappa: float, u: float, mu: float) -> float:
    """Decoupling gap bound 32 u e^{-2u} e^{-2/kappa} / mu at rescaled time u."""
    return 32.0 * u * math.exp(-2.0 * u) * math.exp(-2.0 / kappa) / mu


def run_example_many_sep(kappa: float, count: int, separation: int,
                         replicas: int, seed: int = 1,
                         workers: int = 1) -> ExampleReport:
    """k points on a line, pairwise separation >= 10 kappa^-2: the rescaled
    cover time tracks the maximum of k independent unit exponentials."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > 1 and (separation % 2 or separation < 10.0 / kappa ** 2):
        raise ValueError("separation must be even and >= 10 kappa^-2")
    target = PointsTarget([(i * separation, 0) for i in range(count)])
    sample = cover_time_ensemble(seed, kappa, target, replicas, workers=workers)
    scaled = sample.scaled()
    d = ks_distance(scaled, exp1_power_cdf(count))
    thr = ks_threshold(replicas)
    qs = np.quantile(scaled.values, [0.25, 0.5, 0.75, 0.9])
    gap = max(analytic_two_point_gap(kappa, float(u), sample.mu) for u in qs)
    gap_budget = gap * count * count
    bias = sample.truncation_bias_bound
    allowance = thr + gap_budget + bias
    verdicts = [verdict(f"cover-max-of-{count}-exponentials", "separated-points-law",
                        f"kappa={kappa:g},sep={separation},replicas={replicas}",
                        d, allowance, d <= allowance)]
    return ExampleReport(label=f"line:{count}x{separation}", kappa=kappa,
                         verdicts=verdicts, ensembles={"cover": sample},
                         details={"ks": d, "threshold": thr,
                                  "analytic_gap": gap_budget,
                                  "truncation_bias": bias})


def run_example_neighbors(kappa_grid, replicas: int, seed: int = 1,
                          workers: int = 1) -> ExampleReport:
    """Diagonal-neighbor pair {o, (1,1)}: the rescaled cover time approaches
    a single unit exponential as kappa decreases; asserted as a trend."""
    distances = []
    ensembles = {}
    for kappa in kappa_grid:
        target = PointsTarget([(0, 0), (1, 1)])
        sample = cover_time_ensemble(seed, kappa, target, replicas,
                                     workers=workers)
        distances.append(ks_distance(sample.scaled(), one_point_law))
        ensembles[f"kappa={kappa:g}"] = sample
    thr = ks_threshold(replicas)
    verdicts = [_trend_verdict("neighbor-pair-single-exponential-trend",
                               f"kappas={list(kappa_grid)},replicas={replicas}",
                               distances, 2.0 * thr)]
    return ExampleReport(label="neighbors", kappa=float(kappa_grid[-1]),
                         verdicts=verdicts, ensembles=ensembles,
                         details={"ks": distances, "threshold": thr})


def run_gumbel_scan(kappa: float, box_sides, replicas: int, seed: int = 1,
                    workers: int = 1, work_guard: float = 5e11) -> ExampleReport:
    """Boxes of growing side: KS distance of mu*T - log|A| to exp(-e^{-z}).

    The limit theorem's regime log(1/kappa) >= e^32 is numerically
    unreachable; this scan asserts only that the distance is nonincreasing
    in the box side within KS noise, and prints the theorem's rate
    bound for context.
    """
    distances = []
    ensembles = {}
    details = {}
    for side in box_sides:
        target = BoxTarget(side)
        sample = cover_time_ensemble(seed, kappa, target, replicas, workers, work_guard)
        z = sample.mu * sample.values.values - math.log(target.size)
        distances.append(ks_distance(EmpiricalDistribution.from_samples(z),
                                     gumbel_cdf))
        ensembles[f"box={side}"] = sample
        details[f"rate_bound_box={side}"] = \
            12.0 * target.size ** (-1.0 / (800.0 * sample.mu))
    thr = ks_threshold(replicas)
    regime = math.log(1.0 / kappa)
    verdicts = [
        verdict("gumbel-regime-hypothesis", "gumbel-limit", f"kappa={kappa:g}",
                regime, math.exp(32), regime >= math.exp(32), hypotheses_met=False),
        _trend_verdict("gumbel-distance-trend",
                       f"kappa={kappa:g},boxes={list(box_sides)},replicas={replicas}",
                       distances, 2.0 * thr),
    ]
    return ExampleReport(label="gumbel-scan", kappa=kappa, verdicts=verdicts,
                         ensembles=ensembles,
                         details={"ks": distances, "threshold": thr, **details})
