"""Green's function of the killed walk on Z^2 and its verified inequalities.

G(x) = sum_{n >= |x|} beta^n W_n(x) with beta = 1/(4+kappa).  Even-parity
points come straight from the diagonal closed form through the blocked
series engine; odd-parity points use the exact one-step identity
G(x) = beta * sum_{y ~ x} G(y) whose four neighbors all have even parity.

mu0 = log G(o) is the total loop measure through a vertex and drives every
avoidance law downstream.  check_green_bounds / verify_appendix_bounds turn
each inequality the engine relies on into a pass/fail/hypothesis record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log, pi

import numpy as np

from .lattice import Point, fold_octant, l1, neighbors
from .records import VERDICT_FAILS, Verdict, verdict
from .series import (DEFAULT_M_CEILING, SeriesTruncationError, exp_tail_bound,
                     loop_series_gram, loop_term_array, loop_weight_series,
                     step_weight)
from .walks import WalkCountTable, count_walks_diagonal

DEFAULT_REL_TOL = 1e-10


def _even_value_from_gram(gram: np.ndarray, x: Point) -> float:
    s, d = x[0] + x[1], x[1] - x[0]
    a, b = abs(s) // 2, abs(d) // 2
    base = float(gram[a, b])
    return base + 1.0 if x == (0, 0) else base


@dataclass(frozen=True)
class GreensTable:
    """G(x) on |x| <= radius with one certified truncation for the whole table.

    tail_bound is an absolute bound on every entry's omitted remainder; the
    truncation index is chosen for the worst case x = o.  g(x) = G(x)/(4+kappa)
    is the conventional normalization of the same object.
    """

    kappa: float
    radius: int
    n_trunc: int
    tail_bound: float
    rel_tol: float
    _values: dict[Point, float]

    @property
    def g_normalization(self) -> float:
        return step_weight(self.kappa)

    def value(self, x: Point) -> float:
        key = fold_octant(x)
        if l1(key) > self.radius:
            raise ValueError(f"|x| = {l1(key)} outside table radius {self.radius}")
        return self._values[key]

    def g(self, x: Point) -> float:
        return self.value(x) * self.g_normalization

    def origin(self) -> float:
        return self._values[(0, 0)]

    def points(self) -> list[Point]:
        return sorted(self._values)

    def items(self):
        return sorted(self._values.items())


@lru_cache(maxsize=32)
def _greens_table_cached(kappa: float, radius: int, rel_tol: float,
                         m_ceiling: int) -> GreensTable:
    beta = step_weight(kappa)
    # Odd points at |x| <= radius need even neighbors out to |x| <= radius+1.
    a_max = (radius + 2) // 2
    res = loop_series_gram(kappa, a_max, rel_tol, m_ceiling=m_ceiling)

    values: dict[Point, float] = {}
    for a in range(a_max + 1):
        for b in range(a + 1):
            x = (a + b, a - b)  # even octant point with l1 = 2a
            if l1(x) <= radius + 1:
                values[x] = _even_value_from_gram(res.gram, x)
    for r in range(1, radius + 1, 2):
        for x1 in range(r, (r - 1) // 2, -1):
            x = (x1, r - x1)
            if fold_octant(x) != x:
                continue
            values[x] = beta * sum(values[fold_octant(y)] for y in neighbors(x))
    values = {p: v for p, v in values.items() if l1(p) <= radius}
    return GreensTable(kappa=kappa, radius=radius, n_trunc=2 * res.m_trunc,
                       tail_bound=res.tail_bound, rel_tol=rel_tol, _values=values)


def greens_table(kappa: float, radius: int, rel_tol: float = DEFAULT_REL_TOL,
                 m_ceiling: int = DEFAULT_M_CEILING) -> GreensTable:
    """Table of G over |x| <= radius, symmetrized from one octant."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return _greens_table_cached(float(kappa), int(radius), float(rel_tol),
                                int(m_ceiling))


def greens_value(kappa: float, x: Point, rel_tol: float = DEFAULT_REL_TOL,
                 m_ceiling: int = DEFAULT_M_CEILING) -> tuple[float, float]:
    """(G(x), certified absolute truncation bound) for a single point."""
    table = greens_table(kappa, max(1, l1(x)), rel_tol, m_ceiling)
    return table.value(x), table.tail_bound


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
    """log G(o): the loop measure through a single vertex.

    The value comes from the series when the certified truncation is
    reachable; otherwise from the midpoint of the two-sided enclosure
    [log(lower), log(upper)] (method = "enclosure").
    """

    kappa: float
    value: float
    enclosure: tuple[float, float] | None
    method: str

    def contains(self, v: float) -> bool:
        return self.enclosure is not None and self.enclosure[0] <= v <= self.enclosure[1]


def mu_enclosure(kappa: float) -> tuple[float, float] | None:
    lo_arg = origin_lower_bound(kappa)
    if kappa >= 1.0 or lo_arg <= 0:
        return None
    return math.log(lo_arg), math.log(origin_upper_bound(kappa))


def mu_gamma_o(kappa: float, rel_tol: float = DEFAULT_REL_TOL,
               m_ceiling: int = DEFAULT_M_CEILING) -> MuGammaO:
    enc = mu_enclosure(kappa)
    try:
        value = math.log(greens_value(kappa, (0, 0), rel_tol, m_ceiling)[0])
        return MuGammaO(kappa=kappa, value=value, enclosure=enc, method="series")
    except SeriesTruncationError:
        if enc is None:
            raise
        return MuGammaO(kappa=kappa, value=0.5 * (enc[0] + enc[1]),
                        enclosure=enc, method="enclosure")


def rooted_intensity(kappa: float, rel_tol: float = DEFAULT_REL_TOL,
                     m_ceiling: int = DEFAULT_M_CEILING) -> float:
    """Per-vertex intensity of the rooted soup: sum_m (L_{2m}/(2m)) beta^{2m}."""
    value, _, _ = loop_weight_series(kappa, rel_tol, m_ceiling)
    return value


# ---------------------------------------------------------------------------
# Inequality reports


def check_green_bounds(kappa_grid, radius: int,
                       rel_tol: float = DEFAULT_REL_TOL) -> list[Verdict]:
    """Evaluate every Green's-function inequality on a kappa grid.

    Bounds whose hypotheses involve unreachable regimes (kappa^-1 >= e^30)
    or unquantified "large enough" constants are evaluated and reported with
    a hypothesis-not-met verdict instead of asserted.
    """
    out: list[Verdict] = []
    for kappa in kappa_grid:
        beta = step_weight(kappa)
        table = greens_table(kappa, radius, rel_tol)
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
        # Pointwise gap bounds.
        worst_gap = min(goo - table.value(x) for x in table.points() if x != (0, 0))
        out.append(verdict("gap-three-quarters", "origin-gap-min", tag,
                           0.75, worst_gap, worst_gap >= 0.75))
        med = [(x, goo - table.value(x)) for x in table.points()
               if 4 <= l1(x) <= 2.0 / kappa]
        if med and 1.0 / kappa >= 2.0:
            lhs_pt, gap = min(med, key=lambda xx: xx[1] - log(l1(xx[0])) / pi)
            rhs = log(l1(lhs_pt)) / pi
            out.append(verdict("gap-log-over-pi", "origin-gap-log",
                               f"{tag},x={lhs_pt}", gap, rhs, gap >= rhs))
        # Far point at half the origin value: asymptotic hypothesis, report only.
        far = [x for x in table.points() if l1(x) >= 2.0 / kappa]
        if far:
            x = max(far, key=l1)
            out.append(verdict("far-point-half", "far-point-ratio",
                               f"{tag},x={x}", table.value(x), goo / 2.0,
                               table.value(x) <= goo / 2.0,
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


def local_clt_min_constant(table: WalkCountTable, n_max: int) -> float:
    """Minimal C >= 0 with P(S_n = x) <= (2/n) e^{-|x|^2/(2n)} + C/(n |x|^2)
    over all 3 <= |x| <= n <= n_max (constants are nonnegative here, so the
    raw scan max is clamped at zero)."""
    return max(0.0, local_clt_scan_max(table, n_max))


def verify_appendix_bounds(n_max: int,
                           table: WalkCountTable | None = None) -> AppendixReport:
    """Stirling sandwich, central binomial sandwich, and the local-CLT constant."""
    verdicts: list[Verdict] = []
    ok_lo = ok_hi = True
    worst = (math.inf, math.inf)
    for n in range(1, n_max + 1):
        lf = lgamma(n + 1)
        lo = 0.5 * math.log(2 * pi) + (n + 0.5) * math.log(n) - n
        hi = lo + 1.0 / (12 * n)
        ok_lo &= lf >= lo - 1e-12
        ok_hi &= lf <= hi + 1e-12
        worst = (min(worst[0], lf - lo), min(worst[1], hi - lf))
    verdicts.append(verdict("stirling-lower", "stirling", f"n<={n_max}",
                            worst[0], 0.0, ok_lo))
    verdicts.append(verdict("stirling-upper", "stirling", f"n<={n_max}",
                            worst[1], 0.0, ok_hi))
    ok_lo = ok_hi = True
    worst = (math.inf, math.inf)
    for n in range(1, n_max + 1):
        lc = lgamma(2 * n + 1) - 2 * lgamma(n + 1)
        base = n * math.log(4.0) - 0.5 * math.log(pi * n)
        lo, hi = base - 1.0 / (6 * n), base + 1.0 / (24 * n)
        ok_lo &= lc >= lo - 1e-12
        ok_hi &= lc <= hi + 1e-12
        worst = (min(worst[0], lc - lo), min(worst[1], hi - lc))
    verdicts.append(verdict("central-binomial-lower", "binomial-sandwich",
                            f"n<={n_max}", worst[0], 0.0, ok_lo))
    verdicts.append(verdict("central-binomial-upper", "binomial-sandwich",
                            f"n<={n_max}", worst[1], 0.0, ok_hi))
    if table is None:
        table = WalkCountTable.build(n_max, n_max)
    raw = local_clt_scan_max(table, n_max)
    c_star = max(0.0, raw)
    verdicts.append(verdict("local-clt-constant", "local-clt",
                            f"n<={n_max},raw={raw:g}",
                            c_star, math.inf, math.isfinite(c_star),
                            report_only=True))
    return AppendixReport(verdicts=verdicts, c_star=c_star, c_star_raw=raw)
