"""Green's function of the killed walk on Z^2 and its verified inequalities.

G(x) = sum_{n >= |x|} beta^n W_n(x), beta = 1/(4+kappa), in closed form:
G(o) = (2/pi) K(16 beta^2), the elliptic integral taken through ``ellipkm1``
with 1 - 16 beta^2 = kappa (8+kappa) / (4+kappa)^2 so it stays exact as
kappa -> 0; for |x1| >= |x2|, G(x) = (1/pi) int_0^pi cos(x2 t) r^|x1| /
sqrt(A^2 - B^2) dt with A = 1 - 2 beta cos t, B = 2 beta and
r = B / (A + sqrt(A^2 - B^2)), the other Fourier angle integrated exactly.

mu0 = log G(o) is the total loop measure through a vertex and drives every
avoidance law downstream.  The walk series of ``series`` stays as a
cross-check.  check_green_bounds / verify_appendix_bounds turn each
inequality into a pass/fail/hypothesis record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, pi

import numpy as np
from scipy.special import ellipkm1

from .lattice import Point, fold_octant, l1, octant_points
from .records import PLUMBING, VERDICT_FAILS, Verdict, verdict
from .series import (DEFAULT_M_CEILING, exp_tail_bound, loop_series_gram,
                     loop_term_array, step_weight)
from .walks import WalkCountTable, count_walks_diagonal

_EPS = float(np.finfo(np.float64).eps)
# Scratch of the (points x nodes) kernel per chunk of points, in floats.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class GreensTable:
    """G(x) on |x| <= radius, stored on one octant as the array _g[a, b],
    a >= b >= 0; values() folds displacements onto it.  tail_bound is the
    absolute error estimate of every entry: the largest gap between the 32-
    and 16-node quadratures over the table plus a rounding floor of 16 eps
    G(o).  The origin entry is green_origin itself."""

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

    def points(self) -> list[Point]:
        return octant_points(self.radius)


def green_origin(kappa: float) -> float:
    """G(o) = (2/pi) K(16 beta^2), through the complement of the parameter."""
    step_weight(kappa)
    return 2.0 / pi * float(ellipkm1(kappa * (8.0 + kappa) / (4.0 + kappa) ** 2))


def _angle_rule(kappa: float, nodes: int):
    """Nodes t of `nodes`-point Gauss-Legendre on panels of [0, pi] that
    double from sqrt(kappa)/4 (the integrands' nearest complex singularity
    sits ~sqrt(kappa) from t = 0), with their weights, sqrt(A^2 - B^2) and
    log r at each node."""
    beta = step_weight(kappa)
    edges = [0.0, min(pi, math.sqrt(kappa) / 4.0)]
    while edges[-1] < pi:
        edges.append(min(pi, 2.0 * edges[-1]))
    half = 0.5 * np.diff(edges)
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = ((np.asarray(edges[:-1]) + half)[:, None] + half[:, None] * x).ravel()
    a_minus_b = beta * (kappa + 4.0 * np.sin(0.5 * t) ** 2)  # A - B, no cancellation
    s = np.sqrt(a_minus_b * (a_minus_b + 4.0 * beta))       # sqrt(A^2 - B^2)
    log_r = -np.log1p((a_minus_b + s) / (2.0 * beta))
    return t, (half[:, None] * w).ravel(), s, log_r


def _greens_quadrature(kappa: float, points: np.ndarray, nodes: int) -> np.ndarray:
    """G at octant points (a, b), a >= b >= 0, by the `nodes`-point rule; a
    chunk computes exp(a log r) once per distinct a and cos(b t) per distinct b."""
    t, w, s, log_r = _angle_rule(kappa, nodes)
    weights = w / (pi * s)
    out = np.empty(len(points))
    step = max(1, _CHUNK_ENTRIES // len(t))
    for i in range(0, len(points), step):
        (a, ia), (b, ib) = (np.unique(c, return_inverse=True)
                            for c in points[i:i + step].T)
        out[i:i + step] = (np.cos(np.outer(b, t))[ib]
                           * np.exp(np.outer(a, log_r))[ia]) @ weights
    return out


@lru_cache(maxsize=32)
def _greens_table_cached(kappa: float, radius: int) -> GreensTable:
    octant = np.array(octant_points(radius))
    values = _greens_quadrature(kappa, octant, 32)
    gap = float(np.abs(values - _greens_quadrature(kappa, octant, 16)).max())
    values[0] = goo = green_origin(kappa)  # octant_points starts at the origin
    g = np.zeros((radius + 1, radius + 1))
    g[octant[:, 0], octant[:, 1]] = values
    g.flags.writeable = False  # the cached table is shared
    return GreensTable(kappa=kappa, radius=radius,
                       tail_bound=gap + 16.0 * _EPS * goo, _g=g)


def greens_table(kappa: float, radius: int) -> GreensTable:
    """Table of G over |x| <= radius, symmetrized from one octant."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return _greens_table_cached(float(kappa), int(radius))


def greens_at(kappa: float, octant, nodes: int = 32) -> np.ndarray:
    """G at the octant points (a, b), a >= b >= 0, of shape (k, 2), by the
    `nodes`-point quadrature; G(o) is green_origin itself."""
    octant = np.asarray(octant, dtype=np.int64)
    g = _greens_quadrature(kappa, octant, nodes)
    g[octant[:, 0] == 0] = green_origin(kappa)
    return g


def greens_value(kappa: float, x: Point) -> tuple[float, float]:
    """(G(x), absolute error estimate) for a single point: the gap between
    the 32- and 16-node quadratures at x plus a rounding floor of 16 eps G(o)."""
    g32, g16 = (float(greens_at(kappa, [fold_octant(x)], nodes)[0])
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


def series_cross_check(table: GreensTable, tag: str) -> Verdict:
    """max |G - G_series| over the table's even points against the series'
    certified tail at rel_tol 1e-12, plus the table's estimate, plus m_trunc
    eps G(o) for rounding m_trunc positive running-product terms.  Partial
    sums stay below G(o), so the series cannot certify before half-length
    (4/kappa) log(4/(1e-12 G(o))); past DEFAULT_M_CEILING that is reported."""
    goo = table.origin()
    m_min = 4.0 / table.kappa * log(4.0 / (1e-12 * goo))
    if m_min > DEFAULT_M_CEILING:
        return verdict("greens-series-cross-check", PLUMBING, tag, m_min,
                       DEFAULT_M_CEILING, False, hypotheses_met=False)
    res = loop_series_gram(table.kappa, table.radius // 2, 1e-12)
    x1, x2 = np.array([p for p in table.points() if (p[0] + p[1]) % 2 == 0]).T
    a, b = (x1 + x2) // 2, (x1 - x2) // 2
    series = res.gram[a, b] + (a == 0)  # the n = 0 term, at the origin only
    gap = float(np.abs(table.values(x1, x2) - series).max())
    allow = res.tail_bound + table.tail_bound + res.m_trunc * _EPS * goo
    return verdict("greens-series-cross-check", PLUMBING, tag, gap, allow,
                   gap <= allow)


def check_green_bounds(kappa_grid, radius: int) -> list[Verdict]:
    """Evaluate every Green's-function inequality on a kappa grid.

    Bounds whose hypotheses involve unreachable regimes (kappa^-1 >= e^30)
    or unquantified "large enough" constants are evaluated and reported with
    a hypothesis-not-met verdict instead of asserted.
    """
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
        # Pointwise gap bounds, over the octant in sorted order.
        a, b = np.array(table.points()).T
        vals = table.values(a, b)
        r, gaps = a + b, goo - vals
        worst_gap = float(gaps[1:].min())  # every point but the origin
        out.append(verdict("gap-three-quarters", "origin-gap-min", tag,
                           0.75, worst_gap, worst_gap >= 0.75))
        med = np.flatnonzero((4 <= r) & (r <= 2.0 / kappa))
        if med.size and 1.0 / kappa >= 2.0:
            i = med[np.argmin(gaps[med] - np.log(r[med]) / pi)]
            lhs_pt, gap = (int(a[i]), int(b[i])), float(gaps[i])
            rhs = log(l1(lhs_pt)) / pi
            out.append(verdict("gap-log-over-pi", "origin-gap-log",
                               f"{tag},x={lhs_pt}", gap, rhs, gap >= rhs))
        # Far point at half the origin value: asymptotic hypothesis, report only.
        far = np.flatnonzero(r >= 2.0 / kappa)
        if far.size:
            i = far[np.argmax(r[far])]
            x, gx = (int(a[i]), int(b[i])), float(vals[i])
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
    c_star_raw: float   # raw scan maximum of n|x|^2 (P - gaussian term)

    @property
    def ok(self) -> bool:
        return all(v.verdict != VERDICT_FAILS for v in self.verdicts)


def local_clt_scan_max(table: WalkCountTable, n_max: int) -> float:
    """Raw max of n|x|^2 (P(S_n = x) - (2/n) e^{-|x|^2/(2n)}) over the scan.

    Exhaustive over the exact walk table, 3 <= |x| <= n <= n_max.  Negative
    means the gaussian term alone dominates everywhere scanned.
    """
    if n_max > table.n_max:
        raise ValueError("n_max exceeds exact table range")
    worst = -math.inf
    for n in range(3, n_max + 1):
        inv4n = 4.0 ** (-n)
        for p, w in table.level_items(n):
            r = l1(p)
            if r < 3:
                continue
            prob = float(w) * inv4n if n < 150 else math.exp(
                math.log(float(w)) - n * math.log(4.0))
            deficit = prob - (2.0 / n) * math.exp(-r * r / (2.0 * n))
            worst = max(worst, n * r * r * deficit)
    return worst


def _sandwich_rows(check: str, anchor: str, n_max: int, terms) -> list[Verdict]:
    """check-lower/-upper rows for lo <= v <= hi over 1 <= n <= n_max, where
    terms(n) = (v, lo, hi); each lhs is the worst gap on its side."""
    gaps = [(v - lo, hi - v) for v, lo, hi in map(terms, range(1, n_max + 1))]
    return [verdict(f"{check}-{side}", anchor, f"n<={n_max}", worst, 0.0,
                    worst >= -1e-12)
            for side, worst in zip(("lower", "upper"), map(min, zip(*gaps)))]


def verify_appendix_bounds(n_max: int,
                           table: WalkCountTable | None = None) -> AppendixReport:
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
    if table is None:
        table = WalkCountTable.build(n_max, n_max)
    raw = local_clt_scan_max(table, n_max)
    c_star = max(0.0, raw)
    verdicts.append(verdict("local-clt-constant", "local-clt",
                            f"n<={n_max},raw={raw:g}",
                            c_star, math.inf, math.isfinite(c_star),
                            report_only=True))
    return AppendixReport(verdicts=verdicts, c_star=c_star, c_star_raw=raw)
