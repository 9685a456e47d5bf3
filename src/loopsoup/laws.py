"""Closed-form avoidance laws of the soup and the second-moment machinery.

The loops that visit a finite set B have loop measure log det G_B, with
G_B = [G(x - y)]_{x,y in B} (Le Jan 2011), so P(B uncovered at u) =
det(G_B)^{-u} (prob_uncovered) and, over the subsets B of A, P(T(A) <= u) =
sum_B (-1)^|B| det(G_B)^{-u} (cover_law).  With mu0 = log G(o), its 1x1 and
2x2 cases are exp(-u mu0) and (G(o)^2 - G(x)^2)^{-u}.

u* = log|A| / mu0 is the time at which the expected number of uncovered
vertices of A is exactly one; A_eps denotes the subset still uncovered at
(1-eps) u*.  second_moment_report evaluates every pair-sum inequality used
to show A_eps is small and spread out, with three-state verdicts because
several hypotheses (kappa^-1 >= exp(e^32), "|A| large enough") are far
beyond numerical reach.

Point sets are ``lattice.PointsTarget``; ``TargetSet`` is kept as its name
here because callers (and the benchmark's tracer, which patches
``laws.TargetSet.pair_distance_counts``) reach the set type through ``laws``.
"""

from __future__ import annotations

import math
from itertools import combinations
from dataclasses import dataclass
from math import log

import numpy as np

# greens_table by name: the benchmark's tracer patches laws.greens_table
from .greens import greens_at, greens_table, mu_gamma_o
from .lattice import BoxTarget, Point
# the same class object, so a patch of laws.TargetSet reaches every set
from .lattice import PointsTarget as TargetSet
from .records import Verdict, verdict
from .series import ResourceCeilingError

E9 = math.exp(9)
LOG_EE32 = math.exp(32)  # log(kappa^-1) must exceed e^32 for the core lemmas
PAIR_GUARD = 65_536  # most points second_moment_report sums pairs over: box:256


def gumbel_cdf(z):
    """exp(-exp(-z)): the limit law of mu0 * T(A) - log|A| (vectorized)."""
    return np.exp(-np.exp(-np.clip(z, -700, 700)))


def one_point_law(u):
    """CDF of mu0 * T(x) for a single vertex: 1 - e^{-u}, exact for every
    kappa (vectorized)."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0):
        raise ValueError("u must be >= 0")
    return 1.0 - np.exp(-u)


def exp1_power_cdf(k: int):
    """CDF of the maximum of k independent unit exponentials, the law of
    mu0 * T(A) for k points whose loops never meet."""
    return lambda u: one_point_law(u) ** k


def _log_det(g: np.ndarray) -> np.ndarray:
    """log det of positive-definite matrices stacked as (..., k, k), by Cholesky."""
    return 2.0 * np.log(np.diagonal(np.linalg.cholesky(g), 0, -2, -1)).sum(axis=-1)


def green_matrix(kappa: float, points) -> np.ndarray:
    """G_B of distinct points B, in row blocks of about 2^18 pairs: rows
    i0..i1 against columns i0.. go to greens_at, which alone picks the grid
    or the per-point product, and fill the block and its transpose, so each
    unordered pair is evaluated about once."""
    x, y = TargetSet(points).pts.T
    n = len(x)
    g_b = np.empty((n, n))
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, (1 << 18) // (n - i0)))
        g_b[i0:i1, i0:] = greens_at(kappa, x[i0:i1, None] - x[i0:],
                                    y[i0:i1, None] - y[i0:])
        g_b[i1:, i0:i1] = g_b[i0:i1, i1:].T
        i0 = i1
    return g_b


def prob_uncovered(kappa: float, points, u: float) -> float:
    """det(G_B)^{-u}: no loop of the soup up to time u visits the set B."""
    if u < 0:
        raise ValueError("u must be >= 0")
    return math.exp(-u * float(_log_det(green_matrix(kappa, points))))


@dataclass(frozen=True)
class CoverLaw:
    """u -> P(T(A) <= u) = sum_B (-1)^|B| det(G_B)^{-u} (vectorized in u).

    Near u = 0 the alternating terms cancel: rounding_bound(u) =
    eps 2^|A| sum_B det(G_B)^{-u} bounds the rounding error of the sum.
    """

    terms: tuple[tuple[float, float], ...]  # (sign, log det G_B)

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        return sum(s * np.exp(-d * u) for s, d in self.terms)

    def rounding_bound(self, u):
        u = np.asarray(u, dtype=np.float64)
        eps = np.finfo(np.float64).eps
        return eps * len(self.terms) * sum(np.exp(-d * u) for _, d in self.terms)


def cover_law(kappa: float, points) -> CoverLaw:
    """Exact CDF of the cover time of distinct points A, |A| <= 16, summed
    over the 2^|A| subsets B of A."""
    if len(points) > 16:
        raise ValueError(f"|A| = {len(points)} > 16: too many subsets to sum")
    g = green_matrix(kappa, points)
    terms = []  # (sign, log det G_B), the empty set first
    for k in range(len(g) + 1):
        idx = np.array(list(combinations(range(len(g)), k)), dtype=np.intp)
        terms += [((-1.0) ** k, d) for d in
                  _log_det(g[idx[:, :, None], idx[:, None, :]]).tolist()]
    return CoverLaw(tuple(terms))


def prob_no_shared_loop(kappa: float, x: Point, u: float) -> float:
    if u < 0:
        raise ValueError("u must be >= 0")
    goo, gox = green_matrix(kappa, [(0, 0), x])[0].tolist()
    return (1.0 - (gox / goo) ** 2) ** u


def u_star(kappa: float, set_size: int, mu: float | None = None) -> float:
    """log|A| / mu0: expected uncovered count of A is one at this time."""
    if set_size < 2:
        raise ValueError("set_size must be >= 2")
    if mu is None:
        mu = mu_gamma_o(kappa).value
    return log(set_size) / mu


def resolve_epsilon(spec: str, mu: float) -> float:
    """The thinning exponent: "auto100" is 1/(100 mu), "auto400" is
    1/(400 mu), anything else an explicit value; either must lie in (0, 1),
    which auto100 leaves above kappa ~ 16.2."""
    auto = {"auto100": 100.0, "auto400": 400.0}
    epsilon = 1.0 / (auto[spec] * mu) if spec in auto else float(spec)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon {spec} = {epsilon:g} must lie in (0, 1)")
    return epsilon


def box_set(side: int) -> BoxTarget:
    return BoxTarget(side)


# ---------------------------------------------------------------------------
# Separation classes and the second-moment report

CLASS_NAMES = ("small", "medium-1", "medium-2", "large")


@dataclass(frozen=True)
class SeparationClassification:
    """Partition of pair distances: boundaries b1 <= b2 <= b3, ties going to
    the lower class (the derivations overlap at boundaries; one fixed
    convention turns them into a partition)."""

    b1: float
    b2: float
    b3: float

    def classify(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return np.select([r <= self.b1, r <= self.b2, r <= self.b3],
                         [0, 1, 2], default=3)

    @classmethod
    def for_parameters(cls, kappa: float, set_size: int, mu: float):
        kinv = 1.0 / kappa
        c1 = kinv ** (1.0 / (40.0 * mu))
        c2 = kinv ** 0.25
        try:
            c3 = float(set_size) ** (1.0 / mu) * kinv ** 0.5
        except OverflowError:   # at large kappa mu is small: |A|^(1/mu) passes 1e308
            c3 = math.inf
        return cls(b1=c1, b2=max(c1, c2), b3=max(c1, c2, c3))


@dataclass
class SecondMomentReport:
    kappa: float
    set_size: int
    epsilon: float
    mu: float
    u_eval: float
    classes: SeparationClassification
    class_pair_counts: dict[str, int]   # ordered pairs per class
    class_sums: dict[str, float]
    verdicts: list[Verdict]


def second_moment_report(kappa: float, A: TargetSet,
                         epsilon: float) -> SecondMomentReport:
    """Evaluate every pair-sum inequality for the uncovered set at (1-eps) u*.

    The left-hand sides are exact sums of the two-point avoidance law over
    the displacement histogram of A, the (a, b, count) arrays of
    ``A.pair_distance_counts``, summed per class in one pass.  Verdicts are
    three-state; the exp(e^32) hypotheses are never met at reachable kappa,
    which makes those rows informational by construction.
    """
    n = A.size
    if n > PAIR_GUARD:
        raise ResourceCeilingError(f"|A| = {n} exceeds the pair-sum guard {PAIR_GUARD}")
    if n < 2:
        raise ValueError("need at least two points")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    mu = mu_gamma_o(kappa).value
    us = u_star(kappa, n, mu)
    u_eval = (1.0 - epsilon) * us
    table = greens_table(kappa, max(1, A.max_l1_diameter()))

    classes = SeparationClassification.for_parameters(kappa, n, mu)
    a, b, count = A.pair_distance_counts()
    mult = 2.0 * count  # ordered pairs
    goo, g = table.origin(), table.values(a, b)
    p = np.exp(-u_eval * np.log((goo - g) * (goo + g)))  # (G(o)^2 - G(x)^2)^-u
    cls_idx = classes.classify(a + b)
    sums, n_pairs = (np.bincount(cls_idx, w, len(CLASS_NAMES)) for w in (mult * p, mult))
    class_sums = dict(zip(CLASS_NAMES, sums.tolist()))
    class_counts = dict(zip(CLASS_NAMES, n_pairs.astype(int).tolist()))

    kinv = 1.0 / kappa
    hyp_small = E9 <= kinv <= n and epsilon <= 1.0 / (100.0 * mu)
    hyp_e32_a = math.log(kinv) >= LOG_EE32 and kinv <= n
    hyp_e32_b = (math.log(kinv) >= LOG_EE32
                 and n > math.e ** math.e
                 and kinv <= n ** (1.0 - 8.0 / math.log(math.log(n))))
    hyp_large = E9 <= kinv <= n and 0 < epsilon < 0.5
    params = f"kappa={kappa:g},|A|={n},eps={epsilon:g}"

    fn = float(n)
    close = (class_sums["small"] + class_sums["medium-1"]
             + class_sums["medium-2"])
    all_sum = close + class_sums["large"]
    # Certified upper bound on P(remnant not in the good class): close-pair
    # probability plus the second-moment Chebyshev term, both exact here.
    second_moment = fn ** epsilon + all_sum
    chebyshev = (second_moment - fn ** (2 * epsilon)) / fn ** (1.5 * epsilon)
    h_lhs = close + max(chebyshev, 0.0)
    rows = [  # (check, anchor, lhs, rhs, hypotheses met); each asserts lhs <= rhs
        ("pair-sum-small", "pair-sum-small",
         class_sums["small"], fn ** (-1.0 / (20.0 * mu)), hyp_small),
        ("pair-sum-medium-1", "pair-sum-medium-1",
         class_sums["medium-1"], fn ** (-1.0 / 7.0), hyp_e32_a),
        ("pair-sum-medium-2", "pair-sum-medium-2",
         class_sums["medium-2"], fn ** (-1.0 / mu), hyp_e32_b),
        ("pair-sum-large", "pair-sum-large", class_sums["large"],
         fn ** (2 * epsilon) * (1.0 + fn ** (-1.0 / (2.0 * mu))), hyp_large),
        ("kappa-inverse-upper", "kappa-inverse-upper",
         kinv, fn ** (1.0 - 6.0 / mu), hyp_e32_b),
        ("pair-sum-close-collected", "pair-sum-collect",
         close, 2.0 * fn ** (-1.0 / (20.0 * mu)), hyp_e32_b),
        ("pair-sum-all-collected", "pair-sum-collect", all_sum,
         fn ** (2 * epsilon) * (1.0 + 3.0 * fn ** (-1.0 / (20.0 * mu))), hyp_e32_b),
        ("remnant-class-prob", "remnant-class",
         h_lhs, 3.0 * fn ** (-epsilon / 2.0), hyp_e32_b),
    ]
    verdicts = [verdict(check, anchor, params, lhs, rhs, lhs <= rhs, hyp)
                for check, anchor, lhs, rhs, hyp in rows]
    return SecondMomentReport(kappa=kappa, set_size=n, epsilon=epsilon, mu=mu,
                              u_eval=u_eval, classes=classes,
                              class_pair_counts=class_counts,
                              class_sums=class_sums, verdicts=verdicts)
