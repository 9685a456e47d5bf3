"""Cover-time Monte Carlo for finite target sets (``lattice.PointsTarget``).

Every replica runs one schedule of Poisson slabs of time, in each of which
loops are folded into per-(replica, vertex) minima of uniform timestamps.
One of two exact-in-law samplers of the soup's first-visit times on the
target A draws one slab, [0, t_residual), for every replica of a batch;
each replica still uncovered is then finished on the trace chain of its own
uncovered set.  mu T(A) - log|A| is about Gumbel, so a replica is mostly
covered by u* + O(1/mu): those later slabs end at horizon0 = u* + 1/mu (at
1/mu for a single point), then 1/mu, 2/mu, 4/mu, ... further, each drawn
for the replicas still uncovered only.  The soup's loops form a Poisson
process in time, whose increments over disjoint slabs are independent, so
any fixed sequence of slab boundaries is exact.

The trace chain (``TraceChain``) samples the trace of the soup on A itself:
the loop soup of the chain Q = I - G_A^{-1} (Le Jan 2011, *Markov paths,
loops and fields*), decomposed by each loop's lowest vertex in a
coarse-to-fine order of A through the Cholesky pivots of G_A.  It needs no
truncation.

The ring engine samples the loops of the soup that are able to touch the
target's bounding box (W x H): a loop of half-length m reaches at most m
from its root, so only the reach_m cells within L1 distance m of the box
matter as roots.  It draws them by Poisson thinning (Lewis and Shedler
1979): for m = 1..n_trunc, Poisson(w_m rect_m) proposals per unit time and
replica, each rooted uniformly on the rect_m = (W + 2m)(H + 2m) cells of
the box grown by m by one integer draw, of which it keeps those within m
of the box.  The kept loops are Poisson(w_m reach_m) and uniform on the
reach; rect_m - reach_m = 2m(m + 1), so more than half are kept.  Past
n_trunc the half-lengths come from a geometric envelope C q^m >= w_m rect_m
(``sampler.tail_envelope_rate``), thinned the same way, so no loop is
dropped and the engine is exact; TAIL_TOL only sets where the table ends.
Each loop gets a uniform timestamp, and they are traced one position at a
time, in lockstep.  Every target, boxes and sparse point sets alike, is
drawn on its bounding box.  Discarding loops that provably cannot intersect
the target leaves the law of every coverage functional unchanged.

The trace of the soup on a subset F of A is the loop soup of Q_F = I -
G_F^{-1}, so from a time t_residual fixed in advance a replica needs only
its uncovered set F.  t_residual = u* - c/mu where that lies in (0,
horizon0), else horizon0, so A is drawn for at most that long.  The chains
of a batch's F's are built in chunks of rows, G_F from ``greens_at`` on F's
displacements, and each chunk runs as one stack of tables.  c comes from
one cost model: the first phase costs _CELL_S cell_rate or _STEP_S
step_rate seconds per unit time and replica, and the residual its engine's
_POINT_S per point of F, E|F| = |A| G(o)^-t_residual = e^c, with e^c at
most _RESIDUAL_MEAN_F so that the rows of a large set stay small.

``CoverEngine`` picks, per (kappa, A), the sampler with the smaller time
per unit time: the ring engine's expected traced cells (``cell_rate``)
times _CELL_S against the trace chain's expected steps (``step_rate``)
times _STEP_S.  step_rate >= |A| (G(o) - 1/2), and where that floor, so
priced, is not below the ring engine's time the ring engine is taken
without factoring G_A.  Sets whose trace setup (G_A and the alias tables,
``trace_setup_bytes``, which counts |A| only) would exceed
TRACE_SETUP_BYTES keep the ring engine.  At a kappa whose half-length law
passes its truncation ceiling only the trace chain is left, and a set over
that budget is refused.

Replicas are grouped in fixed-size blocks with independently keyed
streams; results merge by block index, so worker count never changes any
number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .greens import greens_at, mu_gamma_o
from .lattice import BoxTarget, Point, PointsTarget  # re-exported to callers
from .laws import (exp1_power_cdf, green_matrix, gumbel_cdf, one_point_law,
                   u_star)
from .records import VERDICT_FAILS, Verdict, verdict
from .rng import block_stream
from . import sampler as _sampler
from .sampler import (_alias_setup, length_pmf, loop_vertices, tail_envelope_rate,
                      unpack_steps, urn_steps)
from .series import (ConfigError,  # raised here, re-exported to callers
                     ResourceCeilingError, SeriesTruncationError)

REPLICA_BLOCK = 4096
#: Largest tail mass past the ring engine's half-length table, where the
#: geometric envelope takes over: a cost choice, not a bias
TAIL_TOL = 1e-10
WORK_GUARD = 5e11  # default ceiling on a run's estimated cells or chain steps
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
#: The cost model of the dispatch and of the residual, on one core of a
#: 2-core Intel Xeon VM (numpy 2.4.6, OpenBLAS on one thread).  A cell the
#: ring engine traces costs about _CELL_S, root proposals included (38 ns
#: at box:16, kappa = 0.01, 72-91 ns at kappa = 0.5, where its loops are
#: short); a step of the trace chain on A about _STEP_S, lockstep overhead
#: included (165 ns on box:16, kappa = 0.01, on a kernel that counted
#: attempts per excursion; ``TraceChain.slab`` takes 143 ns).  A point of
#: F costs the residual about _POINT_S[engine], build included: the ring
#: engine's thousands of rows per batch share lockstep iterations and alias
#: passes, the trace chain's tens less so.  The c that ran fastest with
#: t_residual forced, 1.5 on the ring engine at box:16, kappa = 0.5, and on
#: the trace chain 1.0 at box:8 and 2.0-2.5 at box:16, kappa = 0.01, 2.0-2.5
#: at box:16, kappa = 0.05 and 3.5 at box:32, kappa = 1e-3, is met within
#: 0.5 by ring prices of 5.7-15.6 us and trace prices of 27.2-37.1 us.
_CELL_S = 80e-9
_STEP_S = 160e-9
_POINT_S = {"ring": 10e-6, "trace": 32e-6}
#: Bytes of a residual chunk's stacked (|F| + 1)^2 float64 tables; its
#: build peaks at about 9 times that (``trace_setup_bytes``)
_RESIDUAL_BYTES = 1 << 18
#: Most points of F the residual starts with on average, E|F| = e^c.  A
#: row's build is O(|F|^3), priced linearly only for small F, and a row of
#: |F| > 180 fills a chunk of _RESIDUAL_BYTES alone; a Poisson(64) count
#: passes 180 with probability below 1e-32.  Sets whose cost model asks
#: for more (box:200 at kappa = 0.5 asks for 113) start the residual later.
_RESIDUAL_MEAN_F = 64
# unused here, kept only for the benchmark's tracer, which patches it, until
# a tracer without patches replaces it (as laws.TargetSet is)
balanced_signs = _sampler.balanced_signs


def make_target(spec: str):
    """Parse `box:<n>`, `points:(x,y);(x,y);...`, or `line:<k>x<sep>`, the
    points (i sep, 0) for i < k, with k <= BoxTarget.MAX_SIDE^2 and
    max(k - 1, 1) |sep| <= PointsTarget.COORD_LIMIT checked before they are
    built; a bad spec raises ConfigError."""
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
            k, sep = (int(v) for v in rest.split("x"))
            if (k > BoxTarget.MAX_SIDE ** 2
                    or max(k - 1, 1) * abs(sep) > PointsTarget.COORD_LIMIT):
                raise ValueError(f"a line needs k <= {BoxTarget.MAX_SIDE ** 2} and "
                                 f"max(k - 1, 1) |sep| <= 2**30")
            i = np.arange(k, dtype=np.int64)
            return PointsTarget(np.stack([i * sep, np.zeros_like(i)], axis=1))
    except (ValueError, TypeError) as exc:
        cause = exc
    why = f": {cause}" if cause is not None else ""
    raise ConfigError(f"bad set spec {spec!r}{why}; grammar: box:<n> | "
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
    """An ensemble of cover times.  sampler names the engine that drew the
    values ("ring" or "trace") up to t_residual; from there each replica ran
    on the exact chain of its uncovered set.  Both engines are exact, so
    truncation_bias_rate is 0.0; the JSON sidecar and the benchmark's
    allowances still read it."""

    kappa: float
    target_label: str
    target_size: int
    replicas: int
    values: EmpiricalDistribution
    seed: int
    mu: float
    u_star: float | None
    sampler: str
    truncation_bias_rate = 0.0

    def scaled(self) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_samples(self.mu * self.values.values)


def trace_setup_bytes(size: int) -> int:
    """Peak bytes of the trace chain's setup for a set of `size` points:
    42 bytes per size * (size + 1) entry, set by G_A and its inverse with
    LAPACK's working copies, plus 4 MiB.  It bounds the rise of the
    process's peak RSS while the engine is built (one core, kappa = 0.01,
    the same in two runs) by about 20%: box:32 estimates 48.3 MB and rose
    41.6 MB, box:38 91.8 MB and 77.0 MB, box:41 122.9 MB and 99.6 MB.
    After the setup the engine keeps only the alias tables (12 bytes an
    entry).  The residual builds each G_F from ``greens_at`` on F's
    displacements, in chunks of rows whose stacked (|F| + 1)^2 tables, |F|
    the chunk's largest F, hold at most _RESIDUAL_BYTES as float64: the
    build peaks near 70 bytes per entry, about 2.3 MB (box:16, kappa =
    0.5, 3,716 rows of |F| <= 7 held 17.0 MB at eight times the budget),
    and a chunk keeps about 12 bytes per entry while it runs."""
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
    that return to x_j.  An excursion is drawn by rejection: an attempt that
    steps into x_{<j} or into Q's killing deficit fails and restarts from
    x_j, so its visits are the steps past x_j after the last failed one in
    ``slab``'s log, which is in time order.  Root j makes g_j attempts per
    unit time of 1 + sum_{l>j} C_lj / C_jj steps each, so step_rate, the sum
    of C_jj sum_{l>=j} C_lj over roots with g_j > 1, is the exact mean number
    of steps per unit time with rejections (box:16, kappa = 0.01: 1,735,
    and 2,734 in raster order).  g_j = 1 iff x_j's four neighbours precede
    it, else g_j >= 1 + (4+kappa)^-2, so pivots nearer 1 are set to 1.  The
    alias tables' row and column v are vertex v = 1..n and column 0 is the
    killing deficit: a step from root j fails iff it lands below j.

    g may be one (n, n) matrix or a (T, n, n) stack of them, one chain per
    table (step_rate is then their sum; the chain on A is table 0), and a
    set of k < n points is padded to n with identity rows and columns, whose
    pivots are 1 and which no step reaches.
    """

    def __init__(self, g: np.ndarray, kappa: float):
        c = np.linalg.cholesky(g.reshape(-1, *g.shape[-2:]))
        pivot = np.diagonal(c, axis1=1, axis2=2)
        gj = np.where(pivot ** 2 < 1.0 + 0.5 / (4.0 + kappa) ** 2, 1.0, pivot ** 2)
        self.log_g = np.log(gj)
        self.p_return = 1.0 - 1.0 / gj
        self.step_rate = float((pivot * c.sum(axis=1))[gj > 1.0].sum())

    def build_tables(self, g: np.ndarray) -> None:
        """Alias tables of Q's rows, with the killing deficit as column 0.

        Q = I - G^{-1} and the deficit are written into one (n + 1, n + 1)
        table per matrix, which the alias construction then scales in place;
        the setup's peak is numpy's inversion of G.  Rounding leaves entries
        of about -1e-15 where Q is ~0; they are clamped to 0 and their mass
        per row is kept in ``clamped``."""
        g = g.reshape(-1, *g.shape[-2:])
        tables, n = g.shape[:2]
        table = np.zeros((tables, n + 1, n + 1))
        q = table[:, 1:, 1:]
        np.negative(np.linalg.inv(g), out=q)
        q[:, np.arange(n), np.arange(n)] += 1.0
        self.clamped = -np.minimum(q, 0.0).sum(axis=2)
        np.maximum(q, 0.0, out=q)
        table[:, 1:, 0] = np.maximum(1.0 - q.sum(axis=2), 0.0)
        alias, keep = _alias_setup(table)
        self._alias, self._keep = alias.ravel(), keep.ravel()

    def slab(self, rng, state: np.ndarray, t0: float, t1: float,
             tables: np.ndarray) -> int:
        """Fold the loops with timestamps in [t0, t1) into state, a
        C-contiguous (rows, n) array of first-visit times in the chain's
        vertex order, in place, row r on table tables[r]; returns the number
        of chain steps."""
        if not state.flags.c_contiguous:
            raise ValueError("state must be C-contiguous")
        rows, n = state.shape
        flat = state.reshape(-1)
        counts = rng.poisson((t1 - t0) * self.log_g[tables])
        cell = np.repeat(np.arange(rows * n), counts.ravel())   # row * n + root
        t = t0 + (t1 - t0) * rng.random(len(cell))
        np.minimum.at(flat, cell, t)
        root = cell % n
        loop = np.repeat(np.arange(len(cell)),
                         rng.logseries(self.p_return[tables].ravel()[cell]))
        # per excursion: the state offset of vertex v is base + v, and row v
        # of its table starts at table + v (n + 1)
        base, when, lo = (cell - root - 1)[loop], t[loop], root[loop] + 1
        table = (tables * (n + 1) ** 2)[cell // n][loop]
        walker, wlo, off = np.arange(len(loop)), lo, table + lo * (n + 1)
        log: list[tuple] = []   # (walker, next vertex) of every step, in order
        logged, budget, steps = 0, _VISIT_BUDGET, 0
        while len(walker):
            steps += len(walker)
            u = rng.random(len(walker)) * (n + 1)
            col = u.astype(np.intp)
            at = off + col
            nxt = np.where(u - col < self._keep[at], col, self._alias[at])
            log.append((walker, nxt))
            logged += len(walker)
            live = nxt != wlo
            walker = walker[live]
            off = np.maximum(nxt, wlo)[live] * (n + 1) + table[walker]
            wlo = wlo[live]
            if logged > budget or not len(walker):
                # fold the visits of finished excursions (steps past the root
                # after the last failed one), less those after the vertex's
                # first visit so far; keep the rest of those under way
                w, v = (np.concatenate(x) for x in zip(*log))
                fail = v < lo[w]
                last = np.full(len(loop), -1)
                np.maximum.at(last, w[fail], np.flatnonzero(fail))
                ok = (v > lo[w]) & (np.arange(len(w)) > last[w])
                w, v = w[ok], v[ok]
                at = base[w] + v
                ok = when[w] < flat[at]
                going = np.zeros(len(loop), dtype=bool)
                going[walker] = True
                done = ok & ~going[w]
                np.minimum.at(flat, at[done], when[w[done]])
                ok &= going[w]
                log = [(w[ok], v[ok])]
                logged = int(ok.sum())
                budget = max(_VISIT_BUDGET, 2 * logged)
        return steps


class CoverEngine:
    """Cover-time sampling of one target at one kappa, by the trace chain
    or the ring engine, whichever has the smaller time estimate; sampler
    "ring" or "trace" forces one.  The ring engine is priced by its table's
    cells, cell_rate = sum_{m <= n_trunc} 2m w_m reach_m per unit time and
    replica; the loops past n_trunc, of mass below TAIL_TOL per root, are
    left out of the price.  Ms per replica on one core, engine build
    included, both engines with the residual, two runs of the median of three seeds
    (2,048 replicas; 512 at box:32 and at kappa = 0.01), ring against
    trace: kappa = 0.5 on box:8, box:16 and box:32, 0.067-0.087, 0.20-0.25
    and 0.62-0.72 against 0.22-0.25, 0.97-1.14 and 5.5-6.2; box:16 at
    kappa = 0.1, 0.05 and 0.01, 0.28-0.32, 0.43-0.64 and 8.1-9.2 against
    1.09-1.10, 1.14-1.40 and 1.16-1.43.  The dispatch picks the faster
    engine at each."""

    def __init__(self, kappa: float, target, sampler: str | None = None):
        if sampler not in (None, "ring", "trace"):
            raise ValueError(f"unknown sampler {sampler!r}")
        self.kappa, self.target = kappa, target
        self.mu = mu_gamma_o(kappa).value
        # the ring engine's half-length table, where it may run and the table
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
            box, m = target.box, np.arange(self.dist.n_trunc + 1)
            # reach[m]: cells within L1 distance m of the box, the roots of
            # the loops of half-length m that can touch it; rect[m]: cells
            # of the box grown by m, on which those roots are proposed;
            # tail_rate: the envelope's proposals past n_trunc
            self.reach = np.cumsum(box.ring_count(m))
            self.rect = box.grown_area(m)
            self.cell_rate = float((2.0 * m[1:] * self.dist.weights * self.reach[1:]).sum())
            self.tail_rate = tail_envelope_rate(kappa, self.dist.n_trunc, box)
        # the latest t_residual and the end of the residual's first slab;
        # later slabs are 1/mu, 2/mu, ... long
        if target.size >= 2:
            self.u_star = u_star(kappa, target.size, self.mu)
            self.horizon0 = self.u_star + 1.0 / self.mu
        else:
            self.u_star = None
            self.horizon0 = 1.0 / self.mu
        self.chain, self.step_rate = None, math.inf
        # seconds per unit time and replica of the ring engine; step_rate >=
        # tr(G_A) - |A|, the loops' visits, plus one rejected attempt per
        # unit time at each root with g_j > 1, at least half of the roots:
        # below that floor's time the ring engine wins without G_A
        ring_s = _CELL_S * self.cell_rate
        self.step_floor = target.size * (math.exp(self.mu) - 0.5)
        if sampler == "trace" or (sampler is None and _STEP_S * self.step_floor < ring_s):
            need = trace_setup_bytes(target.size)
            if need <= TRACE_SETUP_BYTES:
                order = coarse_to_fine(target.pts)
                g = green_matrix(kappa, target.pts[order])
                chain = TraceChain(g, kappa)
                self.step_rate = chain.step_rate
                if sampler == "trace" or _STEP_S * chain.step_rate < ring_s:
                    chain.build_tables(g)
                    self.chain = chain
            elif sampler == "trace" or self.dist is None:
                raise ResourceCeilingError(
                    f"trace setup needs {need:.3g} bytes > {TRACE_SETUP_BYTES}{no_ring}")
        self.sampler = "ring" if self.chain is None else "trace"
        # the points in the state's column order: the chain's, or the target's
        self.pts = target.pts if self.chain is None else target.pts[order]
        # either engine draws A only up to t_residual = u* - c/mu, then each
        # replica's uncovered set F; c minimises rate_s t + point_s S1(t),
        # S1(t) = |A| G(o)^-t = E|F|, so S1 = e^c = rate_s / (mu point_s),
        # at most _RESIDUAL_MEAN_F.  Where that t falls outside (0,
        # horizon0), and for one point, A is drawn up to horizon0 and the
        # residual finishes: box:3 x96 and the pair (0,0);(1,1) x192 at
        # kappa = 0.01 then take 3.4 and 1.9 ms on one core of the VM above,
        # 10% and 17% more than drawing A over every slab (medians of 12
        # alternating process pairs), about 1% of a round with box:16 x32
        # (31 ms), for one schedule instead of two
        self.t_residual = self.horizon0
        if self.u_star is not None:
            rate_s = ring_s if self.chain is None else _STEP_S * self.step_rate
            c = min(math.log(rate_s / (self.mu * _POINT_S[self.sampler])),
                    math.log(_RESIDUAL_MEAN_F))
            if 0.0 < self.u_star - c / self.mu < self.horizon0:
                self.t_residual = self.u_star - c / self.mu

    # -- ring engine ------------------------------------------------------

    def _ring_slab(self, rng, state: np.ndarray, t0: float, t1: float) -> None:
        """Fold the relevant loops with timestamps in [t0, t1) into state, a
        C-contiguous (rows, V) array of first-visit times, in place.

        Poisson(rows (t1 - t0) w_m rect_m) proposals of each half-length m
        <= n_trunc, and past it Poisson(rows (t1 - t0) tail_rate) proposals
        m = n_trunc + Geometric(1 - q) of the envelope C q^m, each kept with
        probability w_m rect_m / (C q^m) = pi m (C(2m, m) / 4^m)^2 rect_m
        (n_trunc + 1)^2 / (m^2 rect_{n_trunc + 1}); both factors are at most
        1.  Then all of them in descending half-length, _FOLD_LOOPS at a
        time.  A fold draws, in this order, each proposal's cell number
        below rect_m on the box grown by m (``root_coords``), keeps those
        within L1 distance m of the box, and draws the kept loops' rows and
        timestamps, then their steps (``urn_steps``); it folds the roots,
        then each position's cells as they are traced."""
        rows, V = state.shape
        flat = state.reshape(-1)
        box, n, span = self.target.box, self.dist.n_trunc, rows * (t1 - t0)
        counts = rng.poisson(span * self.dist.weights * self.rect[1:])
        kappa = self.kappa
        m = n + rng.geometric(kappa * (8.0 + kappa) / (4.0 + kappa) ** 2,   # 1 - q
                              rng.poisson(span * self.tail_rate))
        central = np.exp([math.lgamma(2 * j + 1) - 2 * math.lgamma(j + 1) - j * math.log(4)
                          for j in m.tolist()])   # C(2m, m) / 4^m
        accept = (math.pi * central ** 2 * box.grown_area(m) / m
                  * (n + 1) ** 2 / box.grown_area(n + 1))
        counts = np.concatenate([counts, np.bincount(m[rng.random(len(m)) < accept] - n - 1)])
        ends = np.cumsum(counts[::-1])   # where half-length len(counts) - i ends
        for a in range(0, ends[-1], _FOLD_LOOPS):
            m = len(counts) - np.searchsorted(
                ends, np.arange(a, min(a + _FOLD_LOOPS, ends[-1])), side="right")
            x, y = self.target.root_coords(m, rng.integers(0, box.grown_area(m)))
            keep = box.distance(x, y) <= m
            if not keep.any():
                continue
            m, x, y = m[keep], x[keep], y[keep]
            base = rng.integers(0, rows, size=len(m)) * V
            t = t0 + (t1 - t0) * rng.random(len(m))
            for live, dx, dy in chain([(len(m), 0, 0)], urn_steps(rng, m)):
                x[:live] += dx
                y[:live] += dy
                vi = self.target.vertex_index(x[:live], y[:live])
                hit = np.flatnonzero(vi >= 0)
                np.minimum.at(flat, base[hit] + vi[hit], t[hit])

    # -- public sampling --------------------------------------------------

    def _batch_size(self) -> int:
        """Replicas per batch, so that the ring engine's traced cells or the
        trace chain's loops and excursions on [0, t_residual), the only slab
        drawn on A and for every replica of the batch, stay within budget."""
        if self.chain is None:
            per_rep = max(self.cell_rate * self.t_residual, 1.0)
            return int(min(REPLICA_BLOCK, max(16, _CELL_BUDGET // per_rep)))
        log_g = self.chain.log_g
        per_rep = self.t_residual * float((log_g + np.expm1(log_g)).sum())
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

    def _slab_edges(self) -> list[float]:
        """The residual's slab boundaries: t_residual, horizon0 where that
        comes later, then 1/mu, 2/mu, 4/mu, ... further."""
        edges, step = [self.horizon0], 1.0 / self.mu
        for _ in range(_MAX_SLABS - 1):
            edges.append(edges[-1] + step)
            step *= 2.0
        return [self.t_residual, *edges] if self.t_residual < self.horizon0 else edges

    def _cover_batch(self, rng, b: int) -> np.ndarray:
        """Cover times of b replicas.  One slab, [0, t_residual), is drawn
        on A for all of them; each replica still uncovered then runs on the
        trace chain of its own uncovered set F (``_residual_chains``), row r
        of a chunk's state on table r, over the slabs of ``_slab_edges``.
        The rows are taken in ascending |F|, in chunks whose stacked tables
        fit _RESIDUAL_BYTES, each chunk to the end of the schedule.  The
        boundaries are fixed in advance, so the slabs are independent pieces
        of one Poisson soup."""
        state = np.full((b, self.target.size), np.inf)
        if self.chain is None:
            self._ring_slab(rng, state, 0.0, self.t_residual)
        else:
            self.chain.slab(rng, state, 0.0, self.t_residual, np.zeros(b, np.intp))
        times = state.max(axis=1)
        rows = np.flatnonzero(np.isinf(times))
        edges = self._slab_edges()
        uncovered = np.isinf(state[rows])
        for chunk in _chunks(uncovered.sum(axis=1), _RESIDUAL_BYTES // 8):
            chain, sub = self._residual_chains(uncovered[chunk])
            _slabs(rng, sub, rows[chunk], times, edges, chain)
        if np.isinf(times).any():
            raise ResourceCeilingError(
                f"target not covered within {_MAX_SLABS} slabs (horizon {edges[-1]:.6g})")
        return times

    def _residual_chains(self, uncovered: np.ndarray) -> tuple[TraceChain, np.ndarray]:
        """One table per row of uncovered, a (rows, |A|) mask of each row's
        uncovered set F: the trace chain of F, with G_F from ``greens_at``
        on F's displacements, padded with identity rows to the largest F;
        and the rows' new state, inf on F and 0 on padding."""
        size = uncovered.sum(axis=1)
        pad = np.arange(size.max()) >= size[:, None]
        idx = np.zeros(pad.shape, dtype=np.intp)
        idx[~pad] = np.nonzero(uncovered)[1]   # both in row-major order
        x, y = self.pts[idx, 0], self.pts[idx, 1]
        g = greens_at(self.kappa, x[:, :, None] - x[:, None, :],
                      y[:, :, None] - y[:, None, :])
        np.copyto(g, np.eye(pad.shape[1]), where=pad[:, :, None] | pad[:, None, :])
        chain = TraceChain(g, self.kappa)
        chain.build_tables(g)
        return chain, np.where(pad, 0.0, np.inf)

    def ensemble(self, seed: int, replicas: int, workers: int = 1,
                 work_guard: float | None = None) -> CoverTimeSample:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        # work on A up to t_residual, plus 1/mu of it for the residual, which
        # the cost model prices at point_s e^c <= rate_s / mu seconds
        rate = self.cell_rate if self.chain is None else self.step_rate
        est = rate * (self.t_residual + 1.0 / self.mu) * replicas
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
            seed=seed, mu=self.mu, u_star=self.u_star, sampler=self.sampler)


def _slabs(rng, state: np.ndarray, rows: np.ndarray, times: np.ndarray,
           edges: list[float], chain: TraceChain) -> None:
    """Draw the slabs between edges on chain for the replicas rows, row r of
    state on table r, and write each replica's cover time into times as it
    is covered."""
    tables = np.arange(len(rows))
    for t0, t1 in zip(edges, edges[1:]):
        chain.slab(rng, state, t0, t1, tables)
        worst = state.max(axis=1)
        covered = np.isfinite(worst)
        times[rows[covered]] = worst[covered]
        state, rows, tables = state[~covered], rows[~covered], tables[~covered]
        if not len(rows):
            break


def _chunks(size: np.ndarray, entries: int) -> list[np.ndarray]:
    """Rows in ascending |F| = size, stably, in chunks of at most `entries`
    stacked (|F| + 1)^2 table entries (one row at least), each padded to its
    own largest F."""
    order = np.argsort(size, kind="stable")
    side = (size[order] + 1) ** 2
    chunks, i = [], 0
    while i < len(order):
        fit = np.arange(1, len(order) - i + 1) * side[i:] <= entries
        chunks.append(order[i:i + max(1, int(np.count_nonzero(fit)))])
        i += len(chunks[-1])
    return chunks


def _cover_block_job(args):
    engine, label, seed, block_index, n = args
    rng = block_stream(seed, label, block_index)
    return engine.cover_times_block(rng, n)


def run_blocks(job, arg_list, workers: int = 1):
    """Run per-block jobs and merge by block index (worker-count invariant).
    A process pool starts all its workers at the first job, so it gets at
    most one per block and per CPU, whatever `workers` asks for."""
    workers = min(workers, len(arg_list), os.cpu_count() or 1)
    if workers <= 1:
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
    cover time tracks the maximum of k independent unit exponentials.  A KS
    distance never exceeds 1, so where the allowance reaches 1 (the gap
    budget alone is about 12.7 for two points at kappa = 1) the check cannot
    fail, and its verdict is hypothesis-not-met."""
    if count > 1 and (separation % 2 or separation < 10.0 / kappa ** 2):
        raise ConfigError("separation must be even and >= 10 kappa^-2")
    target = make_target(f"line:{count}x{separation}")
    sample = CoverEngine(kappa, target).ensemble(seed, replicas, workers, WORK_GUARD)
    scaled = sample.scaled()
    d = ks_distance(scaled, exp1_power_cdf(count))
    thr = ks_threshold(replicas)
    qs = np.quantile(scaled.values, [0.25, 0.5, 0.75, 0.9])
    gap = max(analytic_two_point_gap(kappa, float(u), sample.mu) for u in qs)
    gap_budget = gap * count * count
    allowance = thr + gap_budget
    verdicts = [verdict(f"cover-max-of-{count}-exponentials", "separated-points-law",
                        f"kappa={kappa:g},sep={separation},replicas={replicas}",
                        d, allowance, d <= allowance,
                        hypotheses_met=allowance < 1.0)]
    return ExampleReport(label=f"line:{count}x{separation}", kappa=kappa,
                         verdicts=verdicts, ensembles={"cover": sample},
                         details={"ks": d, "threshold": thr,
                                  "analytic_gap": gap_budget})


def run_example_neighbors(kappa_grid, replicas: int, seed: int = 1,
                          workers: int = 1) -> ExampleReport:
    """Diagonal-neighbor pair {o, (1,1)}: the rescaled cover time approaches
    a single unit exponential as kappa decreases; asserted as a trend."""
    distances = []
    ensembles = {}
    for kappa in kappa_grid:
        target = PointsTarget([(0, 0), (1, 1)])
        sample = CoverEngine(kappa, target).ensemble(seed, replicas, workers, WORK_GUARD)
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
                    workers: int = 1, work_guard: float = WORK_GUARD) -> ExampleReport:
    """Boxes of growing side: KS distance of mu*T - log|A| to exp(-e^{-z}).

    The limit theorem's regime log(1/kappa) >= e^32 is numerically
    unreachable; this scan asserts only that the distance is nonincreasing
    in the box side within KS noise.
    """
    distances = []
    ensembles = {}
    for side in box_sides:
        target = BoxTarget(side)
        sample = CoverEngine(kappa, target).ensemble(seed, replicas, workers, work_guard)
        z = sample.mu * sample.values.values - math.log(target.size)
        distances.append(ks_distance(EmpiricalDistribution.from_samples(z),
                                     gumbel_cdf))
        ensembles[f"box={side}"] = sample
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
                         details={"ks": distances, "threshold": thr})
