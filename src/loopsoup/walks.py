"""Exact counting of nearest-neighbor walks and loops on Z^2.

Three independent routes to W_n(x), the number of n-step walks from the
origin to x, all in exact integer arithmetic:

* brute force -- explicit enumeration of step sequences (the oracle),
* dynamic programming -- octant-folded table, exact up to n_max ~ 200,
* closed form -- independent +-1 walks in the diagonal coordinates give
  W_n(x) = C(n, (n+s)/2) * C(n, (n+d)/2) with (s, d) = (x1+x2, x2-x1).

The closed loop count at even length 2n is C(2n, n)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .lattice import (Point, STEP_DX, STEP_DY, fold_octant, l1, neighbors,
                      octant_points)

#: Enumeration budget guard for the brute-force oracle (4**14 ~ 2.7e8 leaves).
BRUTE_FORCE_MAX_STEPS = 14

#: Budget guard for the all-endpoints enumeration sweep.
ENDPOINT_SWEEP_MAX_STEPS = 12


def count_walks_bruteforce(n: int, x: Point) -> int:
    """Count n-step walks from o to x by explicit enumeration.

    Prunes branches that provably cannot reach x (L1 distance or parity),
    which leaves the count exact while keeping n = 14 feasible.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_FORCE_MAX_STEPS:
        raise ValueError(f"brute-force enumeration capped at n = {BRUTE_FORCE_MAX_STEPS}")
    tx, ty = x

    def rec(k: int, px: int, py: int) -> int:
        rem = n - k
        dist = abs(tx - px) + abs(ty - py)
        if dist > rem or (rem - dist) & 1:
            return 0
        if k == n:
            return 1
        k += 1
        return (rec(k, px + 1, py) + rec(k, px - 1, py)
                + rec(k, px, py + 1) + rec(k, px, py - 1))

    return rec(0, 0, 0)


def walk_endpoint_counts(n: int, chunk: int = 1 << 18) -> dict[Point, int]:
    """Endpoint tally of all 4**n step sequences (exact, vectorized).

    Same enumeration oracle as count_walks_bruteforce but sweeping every
    endpoint at once; the chunked digit expansion keeps memory flat.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENDPOINT_SWEEP_MAX_STEPS:
        raise ValueError(f"endpoint sweep capped at n = {ENDPOINT_SWEEP_MAX_STEPS}")
    if n == 0:
        return {(0, 0): 1}
    side = 2 * n + 1
    grid = np.zeros(side * side, dtype=np.int64)
    total = 4 ** n
    shifts = np.arange(n, dtype=np.uint64) * 2
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        steps = (ids[:, None] >> shifts) & 3
        ex = STEP_DX[steps].sum(axis=1)
        ey = STEP_DY[steps].sum(axis=1)
        enc = (ex + n) * side + (ey + n)
        grid += np.bincount(enc, minlength=side * side)
    out: dict[Point, int] = {}
    nz = np.nonzero(grid)[0]
    for e in nz.tolist():
        out[(e // side - n, e % side - n)] = int(grid[e])
    return out


@dataclass
class WalkCountTable:
    """Exact walk counts W_n(x) for all |x| <= n <= n_max, octant-folded.

    Interior recursion counts(n+1, x) = sum over neighbors y of counts(n, y)
    is exact everywhere because radius >= n_max keeps the support away from
    the table boundary.  Entries are arbitrary-precision integers.
    """

    n_max: int
    radius: int
    _points: list[Point] = field(repr=False)
    _index: dict[Point, int] = field(repr=False)
    _levels: list[list[int]] = field(repr=False)

    @classmethod
    def build(cls, n_max: int, radius: int) -> "WalkCountTable":
        if radius < n_max:
            raise ValueError("radius must be >= n_max (boundary clipping)")
        points = octant_points(radius)
        index = {p: i for i, p in enumerate(points)}
        zero_slot = len(points)  # folded neighbors beyond radius read 0 here

        nbr = np.empty((len(points), 4), dtype=np.int64)
        for i, (a, b) in enumerate(points):
            for j, q in enumerate(((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))):
                f = fold_octant(q)
                nbr[i, j] = index.get(f, zero_slot)
        nbr_list = nbr.tolist()

        level = [0] * (len(points) + 1)
        level[index[(0, 0)]] = 1
        levels = [level]
        for _ in range(n_max):
            prev = levels[-1]
            cur = [0] * (len(points) + 1)
            for i, (j0, j1, j2, j3) in enumerate(nbr_list):
                cur[i] = prev[j0] + prev[j1] + prev[j2] + prev[j3]
            cur[zero_slot] = 0
            levels.append(cur)
        return cls(n_max=n_max, radius=radius, _points=points, _index=index,
                   _levels=levels)

    def count(self, n: int, x: Point) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}]")
        d = l1(x)
        if d > n:
            return 0
        if d > self.radius:
            raise ValueError("point outside table radius")
        return self._levels[n][self._index[fold_octant(x)]]

    def origin_loop_count(self, half_length: int) -> int:
        """W_{2n}(o), the closed-loop count L_{2n}."""
        return self.count(2 * half_length, (0, 0))

    def level_items(self, n: int):
        """(point, count) pairs over the octant at step n, zeros skipped."""
        lv = self._levels[n]
        for i, p in enumerate(self._points):
            if lv[i]:
                yield p, lv[i]


def count_loops_closed_form(n: int) -> int:
    """Closed loops of length 2n rooted at a vertex: C(2n, n)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return comb(2 * n, n) ** 2


def count_walks_diagonal(n: int, x: Point) -> int:
    """W_n(x) from the diagonal-coordinate closed form.

    Even n: the two diagonal components are independent +-1 bridges, giving
    C(n, n/2 + s/2) * C(n, n/2 + d/2) when s, d are even (else 0).  Odd n is
    the neighbor sum at n-1, matching the series manipulations elsewhere.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 0:
        s, d = x[0] + x[1], x[1] - x[0]
        if s % 2 or d % 2:
            return 0
        m = n // 2
        k1, k2 = m + s // 2, m + d // 2
        if not (0 <= k1 <= n and 0 <= k2 <= n):
            return 0
        return comb(n, k1) * comb(n, k2)
    return sum(count_walks_diagonal(n - 1, y) for y in neighbors(x))


@dataclass
class DominanceReport:
    """Scan result for W_{2n}(x) <= W_{2n}(o) over even-|x| points."""

    n_max: int
    radius: int
    checked: int
    violations: list[tuple[int, Point, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_dominance(n_max: int, radius: int,
                     table: WalkCountTable | None = None) -> DominanceReport:
    """Check W_{2n}(x) <= W_{2n}(o) for all even |x| <= min(2n, radius), 2n <= n_max."""
    if table is None:
        table = WalkCountTable.build(n_max, radius)
    violations = []
    checked = 0
    for n2 in range(0, min(n_max, table.n_max) + 1, 2):
        woo = table.count(n2, (0, 0))
        for p, w in table.level_items(n2):
            if l1(p) % 2:
                continue
            checked += 1
            if w > woo:
                violations.append((n2, p, w, woo))
    return DominanceReport(n_max=n_max, radius=radius, checked=checked,
                           violations=violations)
