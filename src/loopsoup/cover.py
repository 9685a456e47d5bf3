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
loops and fields*), decomposed by each loop's lowest vertex through the
Cholesky factor C of G_A, boundary first, then the interior separator-first.
Each excursion is drawn already conditioned to return to its root, the Doob
h-transform by h_j = C[:, j] / C_jj, so every move is a visit.  It needs no
truncation.

The ring engine samples the loops of the soup that are able to touch the
target.  A loop of half-length 1 visits its root and one neighbour, so those
that meet A are the pairs P of A's neighbour table: from each vertex v and
direction e the loop rooted at v, and where v + e lies outside A also the
one rooted there, Poisson(w_1 / 4) each per unit time and replica, folded as
their two cells untraced.  A loop of half-length m reaches at most m from
its root, so only the reach_m cells within L1 distance m of the bounding box
(W x H) matter as roots.  For m = 2..n_trunc it draws them by Poisson
thinning (Lewis and Shedler 1979): Poisson(w_m rect_m) proposals per unit
time and replica, rooted uniformly on the rect_m = (W + 2m)(H + 2m) cells of
the box grown by m by one integer draw per half-length, of which it keeps
those within m of the box.  The kept loops are Poisson(w_m reach_m) and
uniform on the reach; rect_m - reach_m = 2m(m + 1), so more than half are
kept.  Past n_trunc the half-lengths come from a geometric envelope C q^m >=
w_m rect_m (``sampler.tail_envelope_rate``), thinned the same way, so no
loop is dropped and the engine is exact; TAIL_TOL only sets where the table
ends.  Each loop gets a uniform timestamp, and they are traced one position
at a time, in lockstep.  Discarding loops that provably cannot intersect the
target leaves the law of every coverage functional unchanged.

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

``CoverEngine`` picks, per (kappa, A), the sampler with the smaller time per
unit time, both in closed form: the ring engine's expected folded cells,
cell_rate = sum_m t_m reach_m from the moments of ``loop_moments``, reach_1
taken as |P| / 4, times _CELL_S against the trace chain's expected moves,
step_rate = |A| (G(o) - 1), times _STEP_S.  Only the engine that runs is
built: where the chain wins the length law is never built, where the ring
engine wins G_A is never built.  Sets whose trace setup (G_A, its factor and
the alias rows, ``trace_setup_bytes``) would exceed TRACE_SETUP_BYTES keep
the ring engine, unordered if G_A and its factor alone would.  At a kappa
whose half-length law passes its truncation ceiling only the trace chain is
left, and a set over that budget is refused.

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

from .greens import greens_at, loop_moments, mu_gamma_o
from .lattice import (BoxTarget, Point, PointsTarget,  # re-exported to callers
                      STEP_DX, STEP_DY)
from .laws import (exp1_power_cdf, green_matrix, gumbel_cdf, one_point_law,
                   u_star)
from .records import VERDICT_FAILS, Verdict, verdict
from .rng import block_stream
from . import sampler as _sampler
from .sampler import (_alias_setup, length_pmf, tail_envelope_rate,
                      unpack_steps, urn_steps)
from .series import (ConfigError,  # raised here, re-exported to callers
                     ResourceCeilingError, SeriesTruncationError)

REPLICA_BLOCK = 4096
#: Largest tail mass past the ring engine's half-length table, where the
#: geometric envelope takes over: a cost choice, not a bias
TAIL_TOL = 1e-10
WORK_GUARD = 5e11  # default ceiling on a run's estimated cells or chain moves
#: Most bytes the trace chain's setup may hold; larger sets keep the ring
#: engine.  The largest box is box:42 (1,764 points), whose G_A, factor and
#: alias rows take about 0.57 s on one core and raise the peak RSS by 109
#: MiB; a set without interior fits up to 275 points.
TRACE_SETUP_BYTES = 1 << 27
#: Bytes of the ring engine's (replicas, |A|) state per batch
#: (``_batch_size``), beside scratch that does not grow with the batch: a
#: fold's, 7.4-7.8 MiB by tracemalloc, or a residual chunk's build
_BATCH_BYTES = 1 << 24
_FOLD_LOOPS = 1 << 16     # loops per ring-engine fold
_WALKER_BUDGET = 1 << 15   # loops plus excursions per trace-chain batch
_VISIT_BUDGET = 1 << 15    # logged trace-chain visits between folds
_ALIAS_ENTRIES = 1 << 14   # trace-chain table entries built at a time
_MAX_SLABS = 48
#: The cost model of the dispatch and of the residual, on one core of a
#: 2-core Intel Xeon VM (numpy 2.4.6, OpenBLAS on one thread).  A cell the
#: ring engine folds costs about _CELL_S, root proposals included (its slab
#: takes 21 ns a cell at box:16, kappa = 0.01, 24 at 0.5, most in pairs); a
#: move of the trace chain on A about _STEP_S, lockstep overhead and batches
#: included: ``TraceChain.slab`` over [0, u* - 2/mu) takes 92-95 ns a move at
#: box:16, kappa = 0.5, 106-109 at 0.05, 133-161 at 0.01 and 195-201 at
#: box:32, kappa = 1e-3, where the longest excursions set the lockstep depth,
#: and between 194 and 305 ns the dispatch picks the engine that ran faster
#: at every point of the ``CoverEngine`` table.  A point of F costs the
#: residual about _POINT_S[engine], build included: the ring engine's
#: thousands of rows per batch share lockstep iterations and alias passes,
#: the trace chain's tens less so.  The c that ran fastest with t_residual
#: forced, 1.5 on the ring engine at box:16, kappa = 0.5, and on the trace
#: chain 0.0 at box:8 and 1.0-1.5 at box:16, kappa = 0.01, 1.0 at box:16,
#: kappa = 0.05 and 2.5 at box:32, kappa = 1e-3, is met within 0.5 by ring
#: prices of 5.7-15.6 us and trace prices of 23.6-42.1 us.
_CELL_S = 80e-9
_STEP_S = 240e-9
_POINT_S = {"ring": 10e-6, "trace": 31e-6}
#: Bytes of a residual chunk's stacked alias rows, 16 bytes an entry
#: (``_chunks``); its build peaks within 5 times that (box:200 rows with
#: Poisson(_RESIDUAL_MEAN_F) points of F)
_RESIDUAL_BYTES = 1 << 20
#: Most points of F the residual starts with on average, E|F| = e^c.  A
#: chain of |F| points builds |F|^2 (|F| + 1) / 2 alias entries, so its
#: price per point grows with |F| where the model holds it constant:
#: box:64 at kappa = 0.5, for which the model asks 46, ran fastest near 12
#: (1.33 s for 836 replicas, against 2.5 s at 32).  A row of |F| > 49 fills
#: a chunk of _RESIDUAL_BYTES alone; a Poisson(16) count passes 49 with
#: probability below 1e-11.  Sets whose cost model asks for more (box:200 at
#: kappa = 0.5 asks for 404) start the residual later.
_RESIDUAL_MEAN_F = 16
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


def trace_setup_bytes(nbr: np.ndarray, end: np.ndarray) -> int:
    """Peak bytes of the trace chain's setup for a set of n points, from the
    neighbour table nbr and the ends end_j of ``chain_order``: 24 bytes per
    n^2 entry for G_A, the copy of it that the Cholesky factorisation works
    on and the factor; 16 per entry of the roots' ranges [j, end_j), its
    row and the key of the row built there; 12 per alias entry, |B| + 4 for
    each of the |B| (|B| + 1) / 2 rows (root, point of B) and at most 4 for
    each other entry of a range; plus 4 MiB for the rows built at a time.
    It bounds the rise of the process's peak RSS while the engine is built
    (one core, kappa = 0.01): box:38 estimates 90 MiB and rose 77 MiB,
    box:42 127 MiB and 109 MiB; box:45 rose 138 MiB.  A set without interior
    holds about n^3 / 2 entries, so past 275 points it keeps the ring
    engine."""
    n, nb = len(end), int(np.count_nonzero((nbr < 0).any(axis=1)))
    ranges, wide = int((end - np.arange(n)).sum()), nb * (nb + 1) // 2
    return 24 * n * n + 16 * ranges + 12 * (wide * (nb + 4) + 4 * (ranges - wide)) + (4 << 20)


def chain_order(target, nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace chain's order of A, from A's own neighbour table nb
    (``neighbours``): B, the points with a lattice neighbour outside A, in
    A's order, then the interior separator-first (nested dissection, George
    1973): level by level each part is cut across the longer side of its
    bounding box, the points on its middle line first, then each half as a
    part.  Returns the order, nbr[v, d] = v's neighbour in direction d (E,
    N, W, S) in it or -1 outside A, and end_j: n on B, else the end of the
    part x_j cuts.  It reads differences of coordinates only."""
    n, inner = len(nb), (nb >= 0).all(axis=1)
    order, end = np.concatenate([np.flatnonzero(~inner), np.flatnonzero(inner)]), np.full(n, n)
    # the parts' points in the order so far, their positions and part labels
    pos = np.arange(n - np.count_nonzero(inner), n)
    idx, part = order[pos], np.zeros(len(pos), dtype=np.int64)
    while len(idx):
        _, starts, r = np.unique(part, return_index=True, return_inverse=True)
        xy = target.pts[idx]
        lo, hi = np.minimum.reduceat(xy, starts), np.maximum.reduceat(xy, starts)
        tall = np.diff(hi - lo, axis=1)[:, 0] > 0   # cut across y
        mid = (np.where(tall, lo[:, 1] + hi[:, 1], lo[:, 0] + hi[:, 0]) // 2)[r]
        across, along = np.where(tall[r], xy[:, ::-1].T, xy.T)
        side = np.sign(across - mid) % 3   # 0 on the separator, 1 and 2 its halves
        perm = np.lexsort((along, side, r))   # within each part: r stays sorted
        idx, side, cut = idx[perm], side[perm], side[perm] == 0
        order[pos[cut]] = idx[cut]
        end[pos[cut]] = pos[np.append(starts[1:], len(pos)) - 1][r[cut]] + 1
        idx, pos, part = idx[~cut], pos[~cut], (3 * r + side)[~cut]
    nb = nb[order]
    return order, np.where(nb >= 0, np.argsort(order)[nb], -1), end


class TraceChain:
    """The soup's trace on A as the loop soup of the chain Q = I - G_A^{-1}.

    A is taken in the order x_1..x_n of ``chain_order`` and G_A = C C^T.
    The pivot g_j = C_jj^2 is the Green's function at x_j of Q killed on
    x_{<j}, and the loops whose lowest vertex is x_j have mass log g_j (so
    sum_j log g_j = log det G_A).  Per unit time and replica they number
    Poisson(log g_j); each is logseries(1 - 1/g_j) excursions of Q from x_j
    that return to x_j.  Killed on x_{<j}, Q's Green's function is the Schur
    complement C_DD C_DD^T, D = {x_j..x_n}, so h_j(v) = C_vj / C_jj is the
    probability that Q from v reaches x_j before x_{<j} or its killing, and
    an excursion is drawn already conditioned to return (the h_j-transform
    of Doob 1957): from v it moves to w >= j with probability Q(v, w) C_wj
    over C_vj, or over C_jj - 1/C_jj at x_j itself, and it ends when it
    draws x_j.  No attempt fails and every move is a visit, so the moves
    per unit time are sum_v (G_A(v, v) - 1) = |A| (G(o) - 1) in any order.
    g_j = 1 iff x_j's four neighbours precede it, else g_j >= 1 +
    (4+kappa)^-2, so pivots nearer 1 are set to 1; h_j below 1e-12 is
    taken as 0, so that no rounding noise of C is walked on.

    Q(v, w) > 0 only if w is a neighbour of v or both lie in B, the points
    with a neighbour outside A: a walk from v next enters A at a neighbour,
    or, back from outside, at a point of B.  So the interior's rows are 1 /
    (4 + kappa) on the four neighbours, and with B first h_j vanishes on B
    for every interior root: interior rows hold at most 4 moves.  On B,
    G_A^{-1} G_A = I with G_A^{-1} = I - P on the interior's rows gives
    M_BB = G_BB^{-1} (I + G_BI P_IB), the rows of G_A^{-1} on B, by one |B|
    x |B| solve, and Q(b, x) = 1 / (4 + kappa) for the interior neighbours x
    of b; the rest of Q on B x I is 0 and is not computed.  Negative
    entries of Q_BB are rounding and are clamped to 0, their mass per row
    kept in ``clamped``.  Past B the interior comes separator-first, so
    for an interior root h_j vanishes past end_j, the end of the part x_j
    cuts: B and the separators before x_j cut it off from the later points,
    and the factor's rounding there is set to 0.  A row (t, j, v), v in [j,
    end_j), is one alias table of its moves in flat arrays at
    ``_row[_first[t, j] + v]``; a move to x_j is -1.

    g may be one (n, n) matrix or a (T, n, n) stack of them, one chain per
    table (the chain on A is table 0), in the order of nbr and end from
    ``chain_order``, the interior last; without nbr every vertex is taken
    as a point of B, with end_j = n, which is exact for any set.
    A set of k < n points is padded to n with identity rows and columns,
    whose pivots are 1 and which no move reaches.
    """

    def __init__(self, g: np.ndarray, kappa: float, nbr: np.ndarray | None = None,
                 end: np.ndarray | None = None):
        g = g.reshape(-1, *g.shape[-2:])
        tables, n = g.shape[:2]
        p = 1.0 / (4.0 + kappa)
        if nbr is None:
            nbr, end = np.full((n, 4), -1), np.full(n, n)
        nb = n - int(np.count_nonzero((nbr >= 0).all(axis=1)))
        # B's interior neighbours, at most kx per point
        inner = -np.sort(-np.where(nbr[:nb] >= nb, nbr[:nb], -1), axis=1)
        kx = int(np.count_nonzero(inner >= 0, axis=1).max(initial=0))
        inner = inner[:, :kx]
        # Q_BB = I - M_BB, M_BB = G_BB^{-1} (I + G_BI P_IB)
        rhs = np.eye(nb) + p * np.where(inner >= 0, g[:, :nb, inner], 0.0).sum(axis=-1)
        q = np.eye(nb) - np.linalg.solve(g[:, :nb, :nb], rhs)
        self.clamped = -np.minimum(q, 0.0).sum(axis=2)
        np.maximum(q, 0.0, out=q)
        # h[t, j, v] = C_vj, cut at 1e-12 C_jj, 0 past end_j and for roots
        # that draw no loops; a row (t, j, v) for each h > 0, keyed by its
        # flat index, the interior's rows first, with one copy of the keys
        h = np.linalg.cholesky(g, upper=True)
        pivot = np.diagonal(h, axis1=1, axis2=2).copy()
        gj = np.where(pivot ** 2 < 1.0 + 0.5 * p * p, 1.0, pivot ** 2)
        self.log_g = np.log(gj)
        self.p_return = 1.0 - 1.0 / gj
        h[h <= 1e-12 * pivot[:, :, None]] = 0.0
        h *= (gj > 1.0)[:, :, None] & (np.arange(n) < end[:, None])
        key = np.flatnonzero(h)
        inside = key % n >= nb
        key, inside = np.concatenate([key[inside], key[~inside]]), np.count_nonzero(inside)

        def narrow(t, j, v):
            # the interior's rows: to the four neighbours
            verts = nbr[v]
            w = p * h[t[:, None], j[:, None], verts]
            verts[verts == j[:, None]] = -1
            return w, verts

        def wide(t, j, v):
            # B's rows: to every point of B (Q_BB) and to the interior neighbours
            nbrs = inner[v]
            w = np.concatenate([q[t, v] * h[t, j, :nb], p * np.where(
                nbrs >= 0, h[t[:, None], j[:, None], nbrs], 0.0)], axis=1)
            verts = np.concatenate([np.broadcast_to(np.arange(nb), (len(v), nb)), nbrs], axis=1)
            verts[np.arange(len(v)), j] = -1
            return w, verts

        # the rows as flat alias tables, _ALIAS_ENTRIES entries at a time:
        # row (t, j, v) is _row[_first[t, j] + v] = its offset << 16 | its
        # width (0 for none) into the keep probabilities and the vertices
        # kept and aliased.  A column of weight 0 is never drawn; a row of
        # weight 0, left only by rounding next to the cut, ends the excursion
        span = np.tile(end - np.arange(n), tables)
        self._first = (np.cumsum(span) - span).reshape(tables, n) - np.arange(n)
        self._row = np.zeros(span.sum(), dtype=np.int64)
        at, size = 0, 4 * inside + (nb + kx) * (len(key) - inside)
        self._take = np.empty(size, np.int16 if n < 1 << 15 else np.int32)
        self._keep, self._alias = np.empty(size), np.empty_like(self._take)
        for key, width, moves in ((key[:inside], 4, narrow), (key[inside:], nb + kx, wide)):
            step = max(1, _ALIAS_ENTRIES // width)
            for a in range(0, len(key), step):
                t, j, v = np.unravel_index(key[a:a + step], h.shape)
                self._row[self._first[t, j] + v] = (at + width * np.arange(len(v))) << 16 | width
                w, verts = moves(t, j, v)
                empty = ~(w > 0.0).any(axis=1)
                w[empty, 0], verts[empty, 0] = 1.0, -1
                alias, keep = _alias_setup(w / w.sum(axis=1, keepdims=True))
                to = slice(at, at + w.size)
                self._keep[to], self._take[to] = keep.ravel(), verts.ravel()
                self._alias[to] = np.take_along_axis(verts, alias, axis=1).ravel()
                at += w.size

    def slab(self, rng, state: np.ndarray, t0: float, t1: float,
             tables: np.ndarray) -> int:
        """Fold the loops with timestamps in [t0, t1) into state, a
        C-contiguous (rows, n) array of first-visit times in the chain's
        vertex order, in place, row r on table tables[r]; returns the number
        of moves.  Each lockstep iteration makes one alias draw per walker,
        and the visits are folded whenever _VISIT_BUDGET of them are
        logged."""
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
        # per excursion: the state offset of vertex v is base + v, and its
        # row at v is start + v
        base, when = (cell - root)[loop], t[loop]
        start = self._first[tables[cell // n], root][loop]
        walker, key = np.arange(len(loop)), start + root[loop]
        log: list[tuple] = []   # (walker, vertex) of every visit
        logged, moves = 0, 0
        while len(walker):
            moves += len(walker)
            row = self._row[key]
            u = rng.random(len(walker)) * (row & 0xFFFF)
            col = u.astype(np.intp)
            at = (row >> 16) + col
            nxt = np.where(u - col < self._keep[at], self._take[at], self._alias[at])
            live = nxt >= 0
            walker, nxt = walker[live], nxt[live]
            log.append((walker, nxt))
            logged += len(walker)
            key = start[walker] + nxt
            if logged > _VISIT_BUDGET or not len(walker):
                w, v = (np.concatenate(x) for x in zip(*log))
                at, tw = base[w] + v, when[w]
                ok = tw < flat[at]
                np.minimum.at(flat, at[ok], tw[ok])
                log, logged = [], 0
        return moves


class CoverEngine:
    """Cover-time sampling of one target at one kappa, by the trace chain
    or the ring engine, whichever has the smaller time estimate; sampler
    "ring" or "trace" forces one.  The ring engine is priced by the cells
    it folds, cell_rate = sum_{m >= 1} 2m w_m reach_m per unit time and
    replica with reach_1 = |P| / 4, the envelope's loops past n_trunc
    included.  Ms per replica on one core, engine build included, both
    engines with the residual, medians of five runs of the median of three
    seeds (2,048 replicas; 512 at box:32 and at kappa = 0.01), ring against
    trace: kappa = 0.5 on box:8, box:16 and box:32, 0.028, 0.084 and 0.40
    against 0.050, 0.187 and 1.05; box:16 at kappa = 0.1, 0.05 and 0.01,
    0.251, 0.59 and 2.6 against 0.238, 0.228 and 0.324.  The dispatch picks
    the engine that was faster in every run at each, but in four of five at
    box:16, kappa = 0.1."""

    def __init__(self, kappa: float, target, sampler: str | None = None):
        if sampler not in (None, "ring", "trace"):
            raise ValueError(f"unknown sampler {sampler!r}")
        self.kappa, self.target = kappa, target
        self.mu = mu_gamma_o(kappa).value
        # the latest t_residual and the end of the residual's first slab;
        # later slabs are 1/mu, 2/mu, ... long
        if target.size >= 2:
            self.u_star = u_star(kappa, target.size, self.mu)
            self.horizon0 = self.u_star + 1.0 / self.mu
        else:
            self.u_star = None
            self.horizon0 = 1.0 / self.mu
        # seconds per unit time and replica of each engine, both in closed
        # form.  The trace chain makes tr(G_A) - |A| = |A| (G(o) - 1) moves;
        # the ring engine traces sum_m t_m reach_m cells, reach_m = area +
        # 2m (W + H - 1) + 2m^2 the cells within L1 distance m of the box,
        # the roots of the loops of half-length m that can touch it; but of
        # half-length 1 it draws only the |P| loops that meet A, t_1 / 4 each
        box = target.box
        s0, s1, s2 = loop_moments(kappa)
        nbr = target.neighbours()
        p_size = nbr.size + np.count_nonzero(nbr < 0)   # |P|
        self.step_rate = target.size * math.expm1(self.mu)
        self.cell_rate = (box.area * s0 + 2 * (box.width + box.height - 1) * s1 + 2.0 * s2
                          - 4.0 / (4.0 + kappa) ** 2
                          * (box.area + 2 * (box.width + box.height) - p_size / 4))
        trace_s, ring_s = _STEP_S * self.step_rate, _CELL_S * self.cell_rate
        self.chain, self.dist, self.pairs, need = None, None, None, 0
        if sampler == "trace" or (sampler is None and trace_s < ring_s):
            need = 24 * target.size ** 2   # the n^2 term alone: past 2,364 points
            if need <= TRACE_SETUP_BYTES:   # the set is not even ordered
                order, nb, end = chain_order(target, nbr)
                need = trace_setup_bytes(nb, end)
            if need <= TRACE_SETUP_BYTES:
                self.chain = TraceChain(green_matrix(kappa, target.pts[order]), kappa, nb, end)
            elif sampler == "trace":
                raise ResourceCeilingError(
                    f"trace setup needs {need:.3g} bytes > {TRACE_SETUP_BYTES}")
        if self.chain is None:
            # the ring engine's half-length table; pairs: the vertices each
            # loop of P visits (-1 off A), one loop per slot of the neighbour
            # table, two per outward slot; tail_rate: the envelope's past n_trunc
            try:
                self.dist = length_pmf(kappa, TAIL_TOL)
            except SeriesTruncationError as exc:
                if not need:
                    raise
                raise ResourceCeilingError(
                    f"trace setup needs {need:.3g} bytes > {TRACE_SETUP_BYTES}, "
                    f"and the ring engine's {exc}") from exc
            out = np.flatnonzero(nbr < 0)
            self.pairs = np.full((2, nbr.size + out.size), -1, dtype=np.int32)
            self.pairs[0, :nbr.size].reshape(nbr.shape)[:] = np.arange(len(nbr))[:, None]
            self.pairs[0, nbr.size:] = out >> 2
            self.pairs[1, :nbr.size] = nbr.ravel()
            self.tail_rate = tail_envelope_rate(kappa, self.dist.n_trunc, box)
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
            rate_s = ring_s if self.chain is None else trace_s
            c = min(math.log(rate_s / (self.mu * _POINT_S[self.sampler])),
                    math.log(_RESIDUAL_MEAN_F))
            if 0.0 < self.u_star - c / self.mu < self.horizon0:
                self.t_residual = self.u_star - c / self.mu

    # -- ring engine ------------------------------------------------------

    def _ring_slab(self, rng, state: np.ndarray, t0: float, t1: float) -> int:
        """Fold the relevant loops with timestamps in [t0, t1) into state, a
        C-contiguous (rows, V) array of first-visit times, in place; returns
        the number of cells folded, two per loop of half-length 1.

        First Poisson(rows (t1 - t0) w_1 |P| / 4) uniform pairs of P with
        uniform rows and timestamps, _FOLD_LOOPS at a time.  Then
        Poisson(rows (t1 - t0) w_m rect_m) proposals of each half-length 2 <=
        m <= n_trunc, and past it Poisson(rows (t1 - t0) tail_rate) proposals
        m = n_trunc + Geometric(1 - q) of the envelope C q^m, each kept with
        probability w_m rect_m / (C q^m) = pi m (C(2m, m) / 4^m)^2 rect_m
        (n_trunc + 1)^2 / (m^2 rect_{n_trunc + 1}); both factors are at most
        1.  Then all of them in descending half-length, _FOLD_LOOPS at a
        time.  A fold draws, in this order, the proposals' cell numbers below
        rect_m on the box grown by m (``root_coords``) per half-length, and
        keeps those within L1 distance m of the box; then the kept loops'
        rows and timestamps, then their steps (``urn_steps``); it folds the
        roots, then each position's cells as they are traced."""
        rows, V = state.shape
        flat = state.reshape(-1)
        box, n, span = self.target.box, self.dist.n_trunc, rows * (t1 - t0)
        first, second = self.pairs
        loops = int(rng.poisson(span * self.dist.weights[0] * first.size / 4))
        for a in range(0, loops, _FOLD_LOOPS):
            pair = rng.integers(0, first.size, min(_FOLD_LOOPS, loops - a))
            base = rng.integers(0, rows, len(pair)) * V
            t = t0 + (t1 - t0) * rng.random(len(pair))
            np.minimum.at(flat, base + first[pair], t)
            hit = np.flatnonzero(second[pair] >= 0)
            np.minimum.at(flat, base[hit] + second[pair[hit]], t[hit])
        counts = rng.poisson(span * box.grown_area(np.arange(2, n + 1)) * self.dist.weights[1:])
        kappa = self.kappa
        m = n + rng.geometric(kappa * (8.0 + kappa) / (4.0 + kappa) ** 2,   # 1 - q
                              rng.poisson(span * self.tail_rate))
        central = np.exp([math.lgamma(2 * j + 1) - 2 * math.lgamma(j + 1) - j * math.log(4)
                          for j in m.tolist()])   # C(2m, m) / 4^m
        accept = (math.pi * central ** 2 * box.grown_area(m) / m
                  * (n + 1) ** 2 / box.grown_area(n + 1))
        counts = np.concatenate([counts, np.bincount(m[rng.random(len(m)) < accept] - n - 1)])
        top = len(counts) + 1   # counts[i] proposals of half-length i + 2
        ends = np.cumsum(counts[::-1])   # where half-length top - i ends
        cells = 2 * loops
        for a in range(0, int(counts.sum()), _FOLD_LOOPS):
            fold = np.diff(np.clip(ends, a, a + _FOLD_LOOPS), prepend=a)
            ms = top - np.flatnonzero(fold)   # the fold's half-lengths
            x, y = (np.concatenate(c) for c in zip(*[
                self.target.root_coords(j, rng.integers(0, box.grown_area(j), fold[top - j]))
                for j in ms.tolist()]))
            m = np.repeat(ms, fold[top - ms])
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
                cells += live
        return cells

    # -- public sampling --------------------------------------------------

    def _batch_size(self) -> int:
        """Replicas per batch on [0, t_residual), the only slab drawn on A and
        for every replica of the batch: the ring engine folds _FOLD_LOOPS
        loops at a time, so a batch holds its state, 8 bytes a point, within
        _BATCH_BYTES; the trace chain's loops and excursions stay within
        _WALKER_BUDGET."""
        if self.chain is None:
            return int(min(REPLICA_BLOCK, max(1, _BATCH_BYTES // (8 * self.target.size))))
        log_g = self.chain.log_g
        per_rep = self.t_residual * float((log_g + np.expm1(log_g)).sum())
        return int(min(REPLICA_BLOCK, max(1, _WALKER_BUDGET // max(per_rep, 1.0))))

    def cover_times_block(self, rng, n_replicas: int) -> np.ndarray:
        bs = self._batch_size()
        return np.concatenate([self._cover_batch(rng, min(bs, n_replicas - a))
                               for a in range(0, n_replicas, bs)])

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
        uncovered = np.isinf(state)[rows]
        for chunk in _chunks(uncovered.sum(axis=1), _RESIDUAL_BYTES // 16):
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
        return TraceChain(g, self.kappa), np.where(pad, 0.0, np.inf)

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
    stacked entries (one row at least), each padded to its own largest F: a
    chain of k points holds at most k^2 (k + 1) / 2 alias entries and fewer
    than k^2 rows in its ranges."""
    order = np.argsort(size, kind="stable")
    side = size[order] ** 2 * (size[order] + 3) // 2
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

    A closed walk of 2m steps stays within L1 distance m of its root, so
    only the loops rooted within their half-length of A's bounding box can
    visit A; the rest are never decoded.  The kept loops' packed steps are
    joined and decoded at once, less the two padding codes of each odd m,
    and one running sum of the steps gives every visited cell: it is 0
    again at each root because the loops are closed.
    """
    target = PointsTarget(points)
    best = np.full(len(points), np.inf)
    rx = np.asarray(soup.root_x, dtype=np.int64)
    ry = np.asarray(soup.root_y, dtype=np.int64)
    hl = np.asarray(soup.half_length, dtype=np.int64)
    near = np.flatnonzero(target.box.distance(rx, ry) <= hl)
    rx, ry, hl, ts = rx[near], ry[near], hl[near], soup.timestamp[near]
    buf = b"".join(map(soup.steps_packed.__getitem__, near.tolist()))
    codes = unpack_steps(buf, 4 * len(buf))
    # a loop fills (2m + 3) // 4 bytes: an odd m ends on two padding codes
    end = 4 * np.cumsum((2 * hl + 3) // 4)[hl % 2 == 1]
    keep = np.ones(len(codes), dtype=bool)
    keep[end - 1] = keep[end - 2] = False
    codes = codes[keep]
    dx, dy = STEP_DX[codes], STEP_DY[codes]
    # cell j of a loop is its root plus its steps before j
    vi = target.vertex_index(np.repeat(rx, 2 * hl) + np.cumsum(dx) - dx,
                             np.repeat(ry, 2 * hl) + np.cumsum(dy) - dy)
    hit = vi >= 0
    np.minimum.at(best, vi[hit], np.repeat(ts, 2 * hl)[hit])
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
    if count > 1 and (separation % 2 or separation * kappa * kappa < 10.0):
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
