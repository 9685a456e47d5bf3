"""Reference values for the loopsoup benchmark, computed apart from the program.

Only numpy and scipy are imported; nothing here reads loopsoup code.  With
beta = 1/(4+kappa):

* G(o) = (2/pi) K(16 beta^2) through ``ellipkm1`` with
  1 - 16 beta^2 = kappa (8+kappa) / (4+kappa)^2, exact as kappa -> 0.
* G(x) = (1/pi) int_0^pi cos(x2 t) r^|x1| / sqrt(A^2 - B^2) dt with
  A = 1 - 2 beta cos t, B = 2 beta, r = (A - sqrt(A^2 - B^2)) / B, by
  Gauss-Legendre panels graded towards the peak of width sqrt(kappa) at t=0.
* The determinant law P(T(A) <= u) = sum_{B subset A} (-1)^|B| det(G_B)^-u.
* The Bonferroni sandwich S1 - S2 <= P(T(A) > u) <= S1.
* The rooted half-length weights (C(2m,m)^2 / 2m) beta^2m from lgamma.
* The second-moment class sums over the displacement histogram of a box.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy import integrate
from scipy.special import ellipkm1, gammaln

#: Absolute accuracy claimed for green(); self_test() checks it against the
#: elliptic closed form and the exact walk series.
QUAD_TOL = 1e-12

_GL_T, _GL_W = np.polynomial.legendre.leggauss(32)


def beta(kappa: float) -> float:
    return 1.0 / (4.0 + kappa)


def green_origin(kappa: float) -> float:
    """G(o) = (2/pi) K(m = 16 beta^2), written with the complement 1 - m."""
    return 2.0 / math.pi * float(ellipkm1(kappa * (8.0 + kappa) / (4.0 + kappa) ** 2))


def _theta_rule(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, pi]: doubling panels from sqrt(kappa)/4 up
    to 0.2, then panels of width at most 0.05 (the integrand's complex
    singularity sits at distance ~sqrt(kappa) from t = 0)."""
    edges = [0.0]
    e = min(math.sqrt(kappa), 0.05) / 4.0
    while e < 0.2:
        edges.append(e)
        e *= 2.0
    n_rest = math.ceil((math.pi - edges[-1]) / 0.05)
    edges += np.linspace(edges[-1], math.pi, n_rest + 1)[1:].tolist()
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_T[None, :]
    weights = half[:, None] * _GL_W[None, :]
    return nodes.ravel(), weights.ravel()


def green(kappa: float, points) -> np.ndarray:
    """G(x) for an (N, 2) array of lattice points by the 1-D theta integral."""
    pts = np.abs(np.asarray(points, dtype=np.int64).reshape(-1, 2))
    far = pts.max(axis=1).astype(np.float64)    # |x1| >= |x2| by symmetry
    near = pts.min(axis=1).astype(np.float64)
    b = beta(kappa)
    t, w = _theta_rule(kappa)
    A = 1.0 - 2.0 * b * np.cos(t)
    a_minus_b = b * (kappa + 4.0 * np.sin(0.5 * t) ** 2)  # A - B, no cancellation
    S = np.sqrt(a_minus_b * (A + 2.0 * b))
    log_r = -np.log1p((a_minus_b + S) / (2.0 * b))       # r = B / (A + S)
    base = w / S / math.pi
    out = np.empty(len(pts))
    for i in range(0, len(pts), 256):
        sl = slice(i, i + 256)
        kern = np.cos(np.outer(near[sl], t)) * np.exp(np.outer(far[sl], log_r))
        out[sl] = kern @ base
    return out


def green_map(kappa: float, displacements) -> dict[tuple[int, int], float]:
    """G over a set of displacements, evaluated once per symmetry class."""
    keys = sorted({(max(abs(a), abs(b)), min(abs(a), abs(b))) for a, b in displacements})
    vals = green(kappa, keys)
    if (0, 0) in keys:
        vals[keys.index((0, 0))] = green_origin(kappa)
    folded = dict(zip(keys, vals.tolist()))
    return {d: folded[(max(abs(d[0]), abs(d[1])), min(abs(d[0]), abs(d[1])))]
            for d in displacements}


def green_matrix(kappa: float, points) -> np.ndarray:
    pts = [tuple(p) for p in points]
    disp = {(a[0] - b[0], a[1] - b[1]) for a in pts for b in pts}
    g = green_map(kappa, disp)
    return np.array([[g[(a[0] - b[0], a[1] - b[1])] for b in pts] for a in pts])


def box_points(side: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(side) for j in range(side)]


# ---------------------------------------------------------------------------
# Cover-time laws


def determinant_law(kappa: float, points):
    """Exact CDF u -> P(T(A) <= u) by inclusion-exclusion over det(G_B)^-u,
    for |A| <= 9."""
    if len(points) > 9:
        raise ValueError("determinant law is evaluated for |A| <= 9 only")
    gm = green_matrix(kappa, points)
    signs, logdets = [], []
    for k in range(1, len(points) + 1):
        for sub in combinations(range(len(points)), k):
            signs.append((-1) ** k)
            logdets.append(np.linalg.slogdet(gm[np.ix_(sub, sub)])[1])
    signs, logdets = np.array(signs, dtype=np.float64), np.array(logdets)

    def cdf(u):
        u = np.asarray(u, dtype=np.float64)
        return 1.0 + np.exp(-np.multiply.outer(u, logdets)) @ signs
    return cdf


def _pair_multiplicities(points) -> dict[tuple[int, int], int]:
    """Unordered pairs of distinct points per folded displacement."""
    arr = np.asarray(points, dtype=np.int64)
    i, j = np.triu_indices(len(arr), k=1)
    d = np.abs(arr[i] - arr[j])
    a, b = d.max(axis=1), d.min(axis=1)
    keys, counts = np.unique(a * (1 << 20) + b, return_counts=True)
    return {(int(k >> 20), int(k & ((1 << 20) - 1))): int(c)
            for k, c in zip(keys, counts)}


def bonferroni_tail(kappa: float, points, u) -> tuple[np.ndarray, np.ndarray]:
    """(S1 - S2, S1) bracketing P(T(A) > u) from the point and pair laws."""
    u = np.asarray(u, dtype=np.float64)
    mult = _pair_multiplicities(points)
    g = green_map(kappa, list(mult) + [(0, 0)])
    goo = g[(0, 0)]
    s1 = len(points) * np.exp(-u * math.log(goo))
    s2 = np.zeros_like(u)
    for d, c in mult.items():
        s2 += c * np.exp(-u * math.log(goo * goo - g[d] ** 2))
    return s1 - s2, s1


def pair_law(kappa: float, x: tuple[int, int]):
    """CDF u -> P(T({o, x}) <= u) = 1 - 2 G(o)^-u + (G(o)^2 - G(x)^2)^-u."""
    g = green_map(kappa, [(0, 0), x])
    goo, gox = g[(0, 0)], g[x]

    def cdf(u):
        u = np.asarray(u, dtype=np.float64)
        return 1.0 - 2.0 * goo ** (-u) + (goo * goo - gox * gox) ** (-u)
    return cdf


def quantile_grid(cdf, probs, hi: float = 1e3) -> np.ndarray:
    """u with cdf(u) = p for each p, by bisection on a monotone cdf."""
    out = []
    for p in probs:
        lo_u, hi_u = 0.0, hi
        for _ in range(64):
            mid = 0.5 * (lo_u + hi_u)
            if float(cdf(np.array([mid]))[0]) < p:
                lo_u = mid
            else:
                hi_u = mid
        out.append(0.5 * (lo_u + hi_u))
    return np.array(out)


# ---------------------------------------------------------------------------
# Rooted half-length law


def half_length_weights(kappa: float, m_max: int) -> np.ndarray:
    """w_m = C(2m, m)^2 beta^2m / (2m) for m = 1..m_max, from lgamma."""
    m = np.arange(1, m_max + 1, dtype=np.float64)
    log_w = (2.0 * m * math.log(beta(kappa))
             + 2.0 * (gammaln(2.0 * m + 1.0) - 2.0 * gammaln(m + 1.0))
             - np.log(2.0 * m))
    return np.exp(log_w)


def half_length_tail(kappa: float, m_max: int, extra: int = 200_000) -> np.ndarray:
    """mass(m >= d) for d = 1..m_max+1, summing the weights out to
    m_max + extra half-lengths (they decay like (4 beta)^2m / m^2)."""
    w = half_length_weights(kappa, m_max + extra)
    return np.cumsum(w[::-1])[::-1][: m_max + 1]


# ---------------------------------------------------------------------------
# Second-moment class sums


def second_moment_sums(kappa: float, side: int, epsilon: float):
    """Reference class sums and ordered-pair counts of the box of given side
    at u = (1 - eps) log|A| / log G(o), classes split at the L1 boundaries
    (ties to the lower class)."""
    n = side * side
    mu = math.log(green_origin(kappa))
    u = (1.0 - epsilon) * math.log(n) / mu
    kinv = 1.0 / kappa
    b1 = kinv ** (1.0 / (40.0 * mu))
    b2 = max(b1, kinv ** 0.25)
    b3 = max(b1, b2, float(n) ** (1.0 / mu) * kinv ** 0.5)
    disp = [(dx, dy) for dx in range(side) for dy in range(side) if (dx, dy) != (0, 0)]
    g = green_map(kappa, disp + [(0, 0)])
    goo = g[(0, 0)]
    names = ("small", "medium-1", "medium-2", "large")
    sums = dict.fromkeys(names, 0.0)
    counts = dict.fromkeys(names, 0)
    for dx, dy in disp:
        # ordered pairs with displacement (+-dx, +-dy)
        c = (side - dx) * (side - dy) * (2 if dx else 1) * (2 if dy else 1)
        r = dx + dy
        name = names[0 if r <= b1 else 1 if r <= b2 else 2 if r <= b3 else 3]
        sums[name] += c * (goo * goo - g[(dx, dy)] ** 2) ** (-u)
        counts[name] += c
    return {"mu": mu, "u_eval": u, "sums": sums, "counts": counts}


# ---------------------------------------------------------------------------
# Self-test


def _walk_series(kappa: float, x: tuple[int, int], n_max: int) -> float:
    """sum_{n <= n_max} beta^n C(n, (n+s)/2) C(n, (n+d)/2), s = x1+x2, d = x2-x1."""
    s, d = x[0] + x[1], x[1] - x[0]
    total = 0.0
    for n in range(abs(x[0]) + abs(x[1]), n_max + 1, 2):
        log_t = (n * math.log(beta(kappa))
                 + math.lgamma(n + 1) - math.lgamma((n + s) // 2 + 1) - math.lgamma((n - s) // 2 + 1)
                 + math.lgamma(n + 1) - math.lgamma((n + d) // 2 + 1) - math.lgamma((n - d) // 2 + 1))
        total += math.exp(log_t)
    return total


def self_test() -> list[str]:
    """Problems found in the oracle itself; an empty list means it passed."""
    problems = []
    for kappa in (2.5, 0.5, 0.01, 1e-4, 1e-6):
        # G(x) - beta sum_{y~x} G(y) = 1{x = o}, on the quadrature alone
        xs = [(0, 0), (1, 0), (2, 1), (5, 3), (12, 0), (30, 7)]
        nbrs = [(x[0] + dx, x[1] + dy) for x in xs
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        vals = green(kappa, xs + nbrs)
        g, gn = vals[:len(xs)], vals[len(xs):].reshape(len(xs), 4)
        res = g - beta(kappa) * gn.sum(axis=1) - np.array([x == (0, 0) for x in xs])
        if np.max(np.abs(res)) > QUAD_TOL:
            problems.append(f"kappa={kappa:g}: lattice equation residual {np.max(np.abs(res)):.2e}")
        gap = abs(g[0] - green_origin(kappa))
        if gap > QUAD_TOL * g[0]:
            problems.append(f"kappa={kappa:g}: quadrature G(o) off the elliptic form by {gap:.2e}")
    kappa = 2.5
    for x in ((0, 0), (1, 0), (2, 0), (1, 1), (3, 2)):
        series = _walk_series(kappa, x, 400)
        gap = abs(series - green(kappa, [x])[0])
        if gap > QUAD_TOL:
            problems.append(f"kappa=2.5, x={x}: walk series differs by {gap:.2e}")
    # an adaptive quadrature of the same integral, as a spot check
    kappa, x = 1e-4, (9, 4)
    b = beta(kappa)

    def f(t):
        A = 1.0 - 2.0 * b * math.cos(t)
        amb = b * (kappa + 4.0 * math.sin(0.5 * t) ** 2)
        S = math.sqrt(amb * (A + 2.0 * b))
        return math.cos(x[1] * t) * math.exp(-x[0] * math.log1p((amb + S) / (2 * b))) / S / math.pi

    ref = sum(integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
              for lo, hi in ((0.0, 0.01), (0.01, 0.3), (0.3, math.pi)))
    if abs(ref - green(kappa, [x])[0]) > QUAD_TOL:
        problems.append(f"adaptive quadrature disagrees at kappa=1e-4, x={x}")
    return problems


if __name__ == "__main__":
    found = self_test()
    print("oracle self-test:", "passed" if not found else "; ".join(found))
    raise SystemExit(1 if found else 0)
