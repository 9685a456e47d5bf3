"""Green's function of the killed walk on Z^2 and its verified inequalities.

G(x) = sum_{n >= |x|} beta^n W_n(x), beta = 1/(4+kappa), in closed form:
G(o) = (2/pi) K(16 beta^2) = 1/AGM(1, k') with the complementary modulus
k' = sqrt(kappa (8+kappa)) / (4+kappa), so it stays exact as kappa -> 0.
The same AGM gives E(16 beta^2) and with it the moments S_k = sum_{m>=1}
m^k t_m, k = 0, 1, 2, of the even terms t_m = beta^{2m} C(2m, m)^2 of G(o)
(``loop_moments``), which price the cover engine's ring engine.  For
|x1| >= |x2|, G(x) = (1/pi) int_0^pi cos(x2 t) r^|x1| /
sqrt(A^2 - B^2) dt with A = 1 - 2 beta cos t, B = 2 beta and
r = B / (A + sqrt(A^2 - B^2)), the other Fourier angle integrated exactly.

The quadrature of that integral is a low-rank product: G(a, b) = sum_t
r_t^a w_t / (pi s_t) cos(b t) over the rule's nodes t, with s = sqrt(A^2 -
B^2).  So G on the grid 0 <= a <= R, 0 <= b <= R' is one matrix product
(_greens_grid), and a table of radius R is that product with R' = R // 2.
greens_at is the one evaluator of G at displacements, and the one place
that picks the product: it reads the grid that spans its folded
displacements where that grid holds at most _GRID_PER_POINT entries per
displacement, and otherwise (sets spread wide) gives each distinct (a, b)
its own (points x nodes) product.

mu0 = log G(o) is the total loop measure through a vertex and drives every
avoidance law downstream.  The walk series of ``series`` stays as a
cross-check, within SERIES_WORK_GUARD.  check_green_bounds /
verify_appendix_bounds turn each inequality into a pass/fail/hypothesis
record; the appendix's local-CLT scan reads W_n(x) from its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, pi

import numpy as np

from .lattice import BoxTarget, Point, l1
from .records import PLUMBING, VERDICT_FAILS, Verdict, verdict
from .series import (DEFAULT_M_CEILING, ResourceCeilingError, exp_tail_bound,
                     loop_series_gram, loop_term_array, step_weight)
from .walks import count_walks_diagonal

_EPS = float(np.finfo(np.float64).eps)
# Gauss-Legendre nodes and weights on [-1, 1] of the 32- and 16-node rules.
_LEGENDRE = {n: np.polynomial.legendre.leggauss(n) for n in (16, 32)}
# Scratch floats per block: rows of r^a of the grid product, or (points x
# nodes) kernel rows of the per-point product.
_CHUNK_ENTRIES = 1 << 18
# Most grid entries per displacement of the grid product, so that its grid
# stays a small multiple of the displacements' memory; past it the per-point
# product runs.  Time alone would allow more: at 66 entries per point (1,968
# points, kappa = 1e-4, one core) the grid product took 6 ms against 15 ms.
_GRID_PER_POINT = 8
#: Largest table radius, 4094: the L1 diameter of the largest box a set
#: spec accepts.
MAX_RADIUS = 2 * (BoxTarget.MAX_SIDE - 1)
#: Most gram products of the series cross-check, about 13 s on one core:
#: radius 4094 runs at kappa = 0.01 (4.7e10), radius 600 at 1e-4.
SERIES_WORK_GUARD = 1e11
APPENDIX_N_MAX = 1000  # a 0.2 s scan; past n = 1023, C(n, k) overflows a float


@dataclass(frozen=True)
class GreensTable:
    """G(x) on |x| <= radius, stored as the grid _g[a, b], 0 <= a <= radius,
    0 <= b <= radius // 2, whose octant a >= b, a + b <= radius holds G and
    whose other entries are 0; values() folds displacements onto it.
    tail_bound is the absolute error estimate of every entry: the largest gap
    between the 32- and 16-node quadratures over the octant plus a rounding
    floor of 16 eps G(o).  The origin entry is green_origin itself."""

    kappa: float
    radius: int
    tail_bound: float
    _g: np.ndarray

    def values(self, dx, dy) -> np.ndarray:
        """G at the displacements (dx, dy), two arrays of one shape."""
        a, b = (np.abs(np.asarray(v, dtype=np.int64)) for v in (dx, dy))
        far = int((a + b).max(initial=0))
        if far > self.radius:
            raise ValueError(f"|x| = {far} outside table radius {self.radius}")
        return self._g[np.maximum(a, b), np.minimum(a, b)]

    def value(self, x: Point) -> float:
        return float(self.values(x[0], x[1]))

    def origin(self) -> float:
        return float(self._g[0, 0])

    def octant(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays a, b of the octant points a >= b >= 0, a + b <= radius,
        in ascending (a, b) order."""
        return np.nonzero(_octant_mask(self.radius))

    def points(self) -> list[Point]:
        return list(zip(*(c.tolist() for c in self.octant())))


def _octant_mask(radius: int, rows: slice = slice(None)) -> np.ndarray:
    """Which entries of the rows a of the (radius + 1, radius // 2 + 1) grid
    [a, b] lie on the octant a >= b, a + b <= radius."""
    a = np.arange(radius + 1)[rows, None]
    return np.arange(radius // 2 + 1) <= np.minimum(a, radius - a)


def _octant_blocks(radius: int):
    """``GreensTable.octant`` in blocks of at most _CHUNK_ENTRIES grid entries."""
    step = max(1, _CHUNK_ENTRIES // (radius // 2 + 1))
    for a0 in range(0, radius + 1, step):
        a, b = np.nonzero(_octant_mask(radius, slice(a0, a0 + step)))
        yield a + a0, b


def _agm(kappa: float) -> tuple[float, float]:
    """AGM(1, sqrt(kappa (8+kappa)) beta) and sum_n 2^{n-1} c_n^2, c_0^2 = 16
    beta^2, over a fixed 40 steps, of which 8 suffice at kappa = 1e-14: at
    kappa = 1 a loop until a == b never ends, a and b staying one ulp apart."""
    beta = step_weight(kappa)
    a, b, c_sum = 1.0, math.sqrt(kappa * (8.0 + kappa)) * beta, 8.0 * beta * beta
    for n in range(40):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        c_sum += 2.0 ** n * c * c
    return a, c_sum


def green_origin(kappa: float) -> float:
    """G(o) = (2/pi) K(16 beta^2) = 1/AGM(1, sqrt(kappa (8+kappa)) beta) (Borwein
    and Borwein 1987)."""
    return 1.0 / _agm(kappa)[0]


def loop_moments(kappa: float) -> tuple[float, float, float]:
    """S_k = sum_{m >= 1} m^k t_m, t_m = beta^{2m} C(2m, m)^2, for k = 0, 1, 2,
    from sum_m t_m x^m = (2/pi) K(p x), p = 16 beta^2, p' = 1 - p = kappa (8 +
    kappa) beta^2.  The AGM(1, sqrt p') of ``green_origin`` gives K and E = K (1 -
    sum_n 2^{n-1} c_n^2), c_0^2 = p; dK/dm = (E - (1 - m) K) / (2m (1 - m)) and
    d(E - (1 - m) K)/dm = K/2 give S1 = (E - p'K) / (pi p') and S2 = S1 + pK /
    (2 pi p') - S1 (1 - 2p) / p'.  S0 is green_origin(kappa) - 1 to the bit;
    S1 and S2 overflow to inf as kappa -> 0, never to nan."""
    beta = step_weight(kappa)
    p, pc = 16.0 * beta * beta, kappa * (8.0 + kappa) * beta * beta
    a, c_sum = _agm(kappa)
    k = 0.5 * pi / a
    s1 = k * (p - c_sum) / (pi * pc)   # E - p'K = K (p - c_sum), no cancellation
    return 1.0 / a - 1.0, s1, s1 + p * k / (2.0 * pi * pc) - s1 * (1.0 - 2.0 * p) / pc


def _angle_rule(kappa: float, nodes: int):
    """Nodes t of `nodes`-point Gauss-Legendre (16 or 32) on panels of [0, pi]
    that double from sqrt(kappa)/4 (the integrands' nearest complex
    singularity sits ~sqrt(kappa) from t = 0), with their weights,
    sqrt(A^2 - B^2) and log r at each node."""
    beta = step_weight(kappa)
    edges = [0.0, min(pi, math.sqrt(kappa) / 4.0)]
    while edges[-1] < pi:
        edges.append(min(pi, 2.0 * edges[-1]))
    half = 0.5 * np.diff(edges)
    x, w = _LEGENDRE[nodes]
    t = ((np.asarray(edges[:-1]) + half)[:, None] + half[:, None] * x).ravel()
    a_minus_b = beta * (kappa + 4.0 * np.sin(0.5 * t) ** 2)  # A - B, no cancellation
    s = np.sqrt(a_minus_b * (a_minus_b + 4.0 * beta))       # sqrt(A^2 - B^2)
    log_r = -np.log1p((a_minus_b + s) / (2.0 * beta))
    return t, (half[:, None] * w).ravel(), s, log_r


def _greens_grid(kappa: float, a: np.ndarray, b: np.ndarray,
                 nodes: int) -> np.ndarray:
    """The (len(a), len(b)) grid of G's `nodes`-point quadrature at (a_i,
    b_j): the product of r^a w / (pi s), (a x nodes), with cos(t b), (nodes x
    b), in row blocks of at most _CHUNK_ENTRIES scratch floats of r^a."""
    t, w, s, log_r = _angle_rule(kappa, nodes)
    weights = w / (pi * s)
    cos_tb = np.outer(t, b)
    np.cos(cos_tb, out=cos_tb)
    out = np.empty((len(a), len(b)))
    rows = max(1, _CHUNK_ENTRIES // len(t))
    for i in range(0, len(a), rows):
        r_a = np.outer(a[i:i + rows], log_r)
        np.exp(r_a, out=r_a)
        r_a *= weights
        np.matmul(r_a, cos_tb, out=out[i:i + rows])
    return out


@lru_cache(maxsize=32)
def _greens_table_cached(kappa: float, radius: int) -> GreensTable:
    a, b = np.arange(radius + 1), np.arange(radius // 2 + 1)
    g = _greens_grid(kappa, a, b, 32)
    gap = _greens_grid(kappa, a, b, 16)
    gap -= g
    outside = ~_octant_mask(radius)
    np.abs(gap, out=gap)[outside] = 0.0
    g[outside] = 0.0
    g[0, 0] = goo = green_origin(kappa)
    g.flags.writeable = False  # the cached table is shared
    return GreensTable(kappa=kappa, radius=radius,
                       tail_bound=float(gap.max()) + 16.0 * _EPS * goo, _g=g)


def greens_table(kappa: float, radius: int) -> GreensTable:
    """Table of G over |x| <= radius, symmetrized from one octant; a radius
    past MAX_RADIUS raises ResourceCeilingError before anything is built."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if radius > MAX_RADIUS:
        raise ResourceCeilingError(
            f"Green's table radius {radius} exceeds MAX_RADIUS {MAX_RADIUS}")
    return _greens_table_cached(float(kappa), int(radius))


def greens_at(kappa: float, dx, dy, nodes: int = 32) -> np.ndarray:
    """G at the displacements (dx, dy), two int arrays of one shape, by the
    `nodes`-point quadrature (16 or 32); G(o) is green_origin itself.  Each
    displacement folds to a = max, b = min of (|dx|, |dy|) and its key
    a (max b + 1) + b, below 2**63 for coordinates within +-2**30.  Where the
    grid 0..max a x 0..max b holds at most _GRID_PER_POINT entries per
    displacement, one _greens_grid product over it is read by key;
    otherwise each distinct key, found by np.unique, takes the gathered
    (points x nodes) product, computing exp(a log r) once per distinct a and
    cos(b t) per distinct b of each chunk."""
    dx, dy = (np.abs(np.asarray(v, dtype=np.int64)) for v in (dx, dy))
    keys, b = np.maximum(dx, dy), np.minimum(dx, dy, out=dx)
    a_top, b_top = int(keys.max(initial=0)) + 1, int(b.max(initial=0)) + 1
    keys *= b_top
    keys += b
    if a_top * b_top <= _GRID_PER_POINT * keys.size:
        g = _greens_grid(kappa, np.arange(a_top), np.arange(b_top), nodes).ravel()
        g[0] = green_origin(kappa)
        return g[keys]
    keys, inverse = np.unique(keys, return_inverse=True)
    pairs = np.divmod(keys, b_top)
    t, w, s, log_r = _angle_rule(kappa, nodes)
    weights = w / (pi * s)
    g = np.empty(len(keys))
    step = max(1, _CHUNK_ENTRIES // len(t))
    for i in range(0, len(keys), step):
        (a, ia), (b, ib) = (np.unique(c[i:i + step], return_inverse=True)
                            for c in pairs)
        g[i:i + step] = (np.cos(np.outer(b, t))[ib]
                         * np.exp(np.outer(a, log_r))[ia]) @ weights
    g[keys == 0] = green_origin(kappa)
    return g[inverse].reshape(dx.shape)


def greens_value(kappa: float, x: Point) -> tuple[float, float]:
    """(G(x), absolute error estimate) for a single point: the gap between
    the 32- and 16-node quadratures at x plus a rounding floor of 16 eps G(o)."""
    g32, g16 = (float(greens_at(kappa, [x[0]], [x[1]], nodes)[0])
                for nodes in (32, 16))
    return g32, abs(g32 - g16) + 16.0 * _EPS * green_origin(kappa)


def origin_lower_bound(kappa: float) -> float:
    """Two-sided enclosure, lower side: log(1/kappa)/pi + 1 - 4/(3 pi)."""
    return log(1.0 / kappa) / pi + 1.0 - 4.0 / (3.0 * pi)


def origin_upper_bound(kappa: float) -> float:
    """Upper side log(1/kappa)/pi + 2; derived under kappa < 1."""
    return log(1.0 / kappa) / pi + 2.0


def partial_sum_lower_bound(N: int, kappa: float) -> float:
    """Lower bound 1 + log(N)/pi - N kappa/pi - 1/(3 pi) on the first N even terms."""
    return 1.0 + log(N) / pi - N * kappa / pi - 1.0 / (3.0 * pi)


def tail_log_upper_bound(N: int, kappa: float) -> float:
    """Tail bound log(1/(N kappa))/pi + 1/(6 pi N) + 4; needs N kappa < 1."""
    return log(1.0 / (N * kappa)) / pi + 1.0 / (6.0 * pi * N) + 4.0


@dataclass(frozen=True)
class MuGammaO:
    """log G(o): the loop measure through a single vertex, from the elliptic
    closed form (method = "elliptic").  mu_enclosure gives the two-sided
    bounds it is checked against."""

    kappa: float
    value: float
    method: str


def mu_enclosure(kappa: float) -> tuple[float, float] | None:
    lo_arg = origin_lower_bound(kappa)
    if kappa >= 1.0 or lo_arg <= 0:
        return None
    return math.log(lo_arg), math.log(origin_upper_bound(kappa))


def mu_gamma_o(kappa: float) -> MuGammaO:
    return MuGammaO(kappa=kappa, value=math.log(green_origin(kappa)),
                    method="elliptic")


def rooted_intensity(kappa: float) -> float:
    """Per-vertex intensity of the rooted soup, sum_m (L_{2m}/(2m)) beta^{2m}
    = -(2 pi)^-2 int int log(1 - 2 beta (cos a + cos b)) da db.  The inner
    angle integrates to log(beta / r), so it is log(4 + kappa) + (1/pi)
    int_0^pi log r(t) dt; it tends to log 4 - 4 Catalan / pi as kappa -> 0."""
    _, w, _, log_r = _angle_rule(kappa, 32)
    return math.log(4.0 + kappa) + float(w @ log_r) / pi


# ---------------------------------------------------------------------------
# Inequality reports


def _series_half_lengths(kappa: float) -> float:
    """From this half-length on ``geometric_tail_bound`` <= 1e-12, so the
    series certifies rel_tol 1e-12 by then (up to the end of its block)."""
    b = step_weight(kappa)
    return log(1e-12 * pi * kappa * (8.0 + kappa) * b * b) / (2.0 * math.log1p(-kappa * b))


def series_cross_check(table: GreensTable, tag: str) -> Verdict:
    """max |G - G_series| over the table's even points against the series'
    certified tail at rel_tol 1e-12, plus the table's estimate, plus m_trunc
    eps G(o) for rounding m_trunc positive running-product terms; where the
    series needs more than DEFAULT_M_CEILING half-lengths that is reported."""
    goo = table.origin()
    m_min = _series_half_lengths(table.kappa)
    if m_min > DEFAULT_M_CEILING:
        return verdict("greens-series-cross-check", PLUMBING, tag, m_min,
                       DEFAULT_M_CEILING, False, hypotheses_met=False)
    res = loop_series_gram(table.kappa, table.radius // 2, 1e-12)
    gap = 0.0
    for x1, x2 in _octant_blocks(table.radius):
        x1, x2 = np.compress((x1 + x2) % 2 == 0, [x1, x2], axis=1)
        a, b = (x1 + x2) // 2, (x1 - x2) // 2
        series = res.gram[a, b] + (a == 0)  # the n = 0 term, at the origin only
        gap = max(gap, float(np.abs(table.values(x1, x2) - series).max(initial=0.0)))
    allow = res.tail_bound + table.tail_bound + res.m_trunc * _EPS * goo
    return verdict("greens-series-cross-check", PLUMBING, tag, gap, allow,
                   gap <= allow)


def check_green_bounds(kappa_grid, radius: int) -> list[Verdict]:
    """Evaluate every Green's-function inequality on a kappa grid.

    Bounds whose hypotheses involve unreachable regimes (kappa^-1 >= e^30)
    or unquantified "large enough" constants are evaluated and reported with
    a hypothesis-not-met verdict instead of asserted.
    """
    for kappa in kappa_grid:   # refuse an over-guard series cross-check up front
        m, rows = _series_half_lengths(kappa), radius // 2 + 1
        if m <= DEFAULT_M_CEILING and rows * rows * m > SERIES_WORK_GUARD:
            raise ResourceCeilingError(
                f"series cross-check at kappa={kappa:g}, radius {radius}: "
                f"{rows * rows * m:.3g} gram products > {SERIES_WORK_GUARD:g}")
    out: list[Verdict] = []
    for kappa in kappa_grid:
        beta = step_weight(kappa)
        table = greens_table(kappa, radius)
        goo = table.origin()
        tag = f"kappa={kappa:g}"

        t = loop_term_array(kappa, max(64, min(int(2.0 / kappa) + 1, 200_000)))
        partial = 1.0 + np.cumsum(t)  # partial[i] = sum of first i+2 even terms

        for N in (4, 10, 50):
            lhs = float(partial[N - 2]) if N >= 2 else 1.0
            rhs = partial_sum_lower_bound(N, kappa)
            out.append(verdict("partial-sum-lower", "even-series-head", f"{tag},N={N}",
                               lhs, rhs, lhs >= rhs))
        out.append(verdict("origin-lower", "origin-enclosure-lower", tag,
                           goo, origin_lower_bound(kappa),
                           goo >= origin_lower_bound(kappa)))
        out.append(verdict("origin-upper", "origin-enclosure-upper", tag,
                           goo, origin_upper_bound(kappa),
                           goo <= origin_upper_bound(kappa),
                           hypotheses_met=kappa < 1.0))
        # Exact tails of the origin series against both certified bounds.
        for N in sorted({10, max(1, int(0.75 / kappa))}):
            if N - 1 >= len(t):
                continue
            tail_exact = goo - float(partial[N - 1])
            if N * kappa < 1.0 and kappa < 1.0:
                out.append(verdict("tail-log-upper", "even-series-tail-log",
                                   f"{tag},N={N}", tail_exact,
                                   tail_log_upper_bound(N, kappa),
                                   tail_exact <= tail_log_upper_bound(N, kappa)))
            if N * kappa >= 0.5:
                out.append(verdict("tail-exp-upper", "even-series-tail-exp",
                                   f"{tag},N={N}", tail_exact,
                                   exp_tail_bound(kappa, N),
                                   tail_exact <= exp_tail_bound(kappa, N)))
        # Pointwise gap bounds, over the octant in sorted order, in blocks;
        # the first of equal extremes is kept, as over the whole octant
        worst_gap, log_row, far_row = math.inf, None, None
        for a, b in _octant_blocks(radius):
            vals = table.values(a, b)
            r, gaps = a + b, goo - vals
            # every point but the origin
            worst_gap = min(worst_gap, float(np.min(gaps, where=r > 0, initial=math.inf)))
            med = np.flatnonzero((4 <= r) & (r <= 2.0 / kappa))
            if med.size:
                score = gaps[med] - np.log(r[med]) / pi
                i = med[np.argmin(score)]
                if log_row is None or score.min() < log_row[0]:
                    log_row = (score.min(), (int(a[i]), int(b[i])), float(gaps[i]))
            far = np.flatnonzero(r >= 2.0 / kappa)
            if far.size:
                i = far[np.argmax(r[far])]
                if far_row is None or r[i] > far_row[0]:
                    far_row = (r[i], (int(a[i]), int(b[i])), float(vals[i]))
        out.append(verdict("gap-three-quarters", "origin-gap-min", tag,
                           0.75, worst_gap, worst_gap >= 0.75))
        if log_row is not None and 1.0 / kappa >= 2.0:
            _, lhs_pt, gap = log_row
            rhs = log(l1(lhs_pt)) / pi
            out.append(verdict("gap-log-over-pi", "origin-gap-log",
                               f"{tag},x={lhs_pt}", gap, rhs, gap >= rhs))
        # Far point at half the origin value: asymptotic hypothesis, report only.
        if far_row is not None:
            _, x, gx = far_row
            out.append(verdict("far-point-half", "far-point-ratio",
                               f"{tag},x={x}", gx, goo / 2.0, gx <= goo / 2.0,
                               hypotheses_met=1.0 / kappa >= math.exp(30)))
        # Short-walk contribution to G(x): "large |x|" unquantified, report.
        for ax in (8, 16):
            if ax > radius:
                continue
            x = (ax, 0)
            ncap = int(ax * ax / (2.0 * log(ax)))
            lhs = sum((beta ** n) * count_walks_diagonal(n, x)
                      for n in range(ax, ncap + 1))
            out.append(verdict("short-walk-contrib", "short-walk-sum",
                               f"{tag},x={x}", lhs, 3.0 / ax, lhs <= 3.0 / ax,
                               hypotheses_met=False))
            mid = sum((beta ** n) * count_walks_diagonal(n, x)
                      for n in range(ncap + 1, ax * ax + 1))
            rhs = 2.0 * (1.0 - kappa * beta) ** (ax * ax / (2.0 * log(ax)))
            out.append(verdict("mid-walk-contrib", "mid-walk-sum",
                               f"{tag},x={x}", mid, rhs, mid <= rhs,
                               hypotheses_met=False))
        # Diagonal neighbor lower bound (valid for every kappa > 0).
        g11 = table.value((1, 1))
        out.append(verdict("diag-neighbor-lower", "diag-neighbor-lower", tag,
                           log(1.0 / kappa) / pi - 1.0, g11,
                           g11 >= log(1.0 / kappa) / pi - 1.0))
        mu = math.log(goo)
        enc = mu_enclosure(kappa)
        if enc is not None:
            out.append(verdict("mu-enclosure", "mu-enclosure", tag, mu, enc[1],
                               enc[0] <= mu <= enc[1]))
        if 1.0 / kappa > math.e:
            ll = math.log(math.log(1.0 / kappa))
            out.append(verdict("mu-loglog-window", "mu-loglog-window", tag,
                               abs(mu - ll), 2.0, abs(mu - ll) < 2.0,
                               hypotheses_met=False))
        out.append(series_cross_check(table, tag))
    return out


@dataclass
class AppendixReport:
    verdicts: list[Verdict]
    c_star: float       # minimal nonnegative constant valid on the scan

    @property
    def ok(self) -> bool:
        return all(v.verdict != VERDICT_FAILS for v in self.verdicts)


def local_clt_scan_max(n_max: int) -> float:
    """Raw max of n|x|^2 (P(S_n = x) - (2/n) e^{-|x|^2/(2n)}) over 3 <= |x| <=
    n <= n_max.  P(S_n = x) = B_n((n+s)/2) B_n((n+d)/2), (s, d) = (x1+x2,
    x2-x1), from the fair binomial row B_n; at |x| = r it peaks on the
    diagonal, |d| = n mod 2, at B_n((n+r)/2) B_n(n // 2), and the gaussian
    term depends on r alone.  Negative means the gaussian term alone
    dominates everywhere scanned."""
    worst, row = -math.inf, [1, 2, 1]
    for n in range(3, n_max + 1):
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]   # C(n, k)
        half = np.array(row[n // 2:], dtype=float) * 2.0 ** -n   # B_n(k >= n // 2)
        r = np.arange(4 - n % 2, n + 1, 2)
        deficit = half[(r + 1) // 2] * half[0] - (2.0 / n) * np.exp(-r * r / (2.0 * n))
        worst = max(worst, float((n * r * r * deficit).max()))
    return worst


def _sandwich_rows(check: str, anchor: str, n_max: int, terms) -> list[Verdict]:
    """check-lower/-upper rows for lo <= v <= hi over 1 <= n <= n_max, where
    terms(n) = (v, lo, hi); each lhs is the worst gap on its side."""
    gaps = [(v - lo, hi - v) for v, lo, hi in map(terms, range(1, n_max + 1))]
    return [verdict(f"{check}-{side}", anchor, f"n<={n_max}", worst, 0.0,
                    worst >= -1e-12)
            for side, worst in zip(("lower", "upper"), map(min, zip(*gaps)))]


def verify_appendix_bounds(n_max: int) -> AppendixReport:
    """Stirling sandwich, central binomial sandwich, and the local-CLT constant."""
    def stirling(n):
        lo = 0.5 * math.log(2 * pi) + (n + 0.5) * math.log(n) - n
        return lgamma(n + 1), lo, lo + 1.0 / (12 * n)

    def central_binomial(n):
        base = n * math.log(4.0) - 0.5 * math.log(pi * n)
        return (lgamma(2 * n + 1) - 2 * lgamma(n + 1),
                base - 1.0 / (6 * n), base + 1.0 / (24 * n))

    verdicts = (_sandwich_rows("stirling", "stirling", n_max, stirling)
                + _sandwich_rows("central-binomial", "binomial-sandwich", n_max,
                                 central_binomial))
    raw = local_clt_scan_max(n_max)
    c_star = max(0.0, raw)
    verdicts.append(verdict("local-clt-constant", "local-clt",
                            f"n<={n_max},raw={raw:g}",
                            c_star, math.inf, math.isfinite(c_star),
                            report_only=True))
    return AppendixReport(verdicts=verdicts, c_star=c_star)
