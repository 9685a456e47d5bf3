"""Exact counting of nearest-neighbor walks and loops on Z^2.

Three independent routes to W_n(x), the number of n-step walks from the
origin to x, all in exact integer arithmetic:

* endpoint sweep -- the endpoints of all 4**n step sequences tallied at
  once (the enumeration oracle, n <= 12),
* dynamic programming -- octant-folded table, exact up to n_max ~ 200,
* closed form -- independent +-1 walks in the diagonal coordinates give
  W_n(x) = C(n, (n+s)/2) * C(n, (n+d)/2) with (s, d) = (x1+x2, x2-x1).

The closed form is the one the program computes with; at x = o it is the
closed loop count C(2n, n)^2 at length 2n.  The sweep and the table are the
oracles it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .lattice import Point, STEP_DX, STEP_DY, fold_octant, l1

#: Budget guard for the all-endpoints enumeration sweep.
ENDPOINT_SWEEP_MAX_STEPS = 12
#: Step sequences expanded per chunk of the sweep, which keeps memory flat.
_SWEEP_CHUNK = 1 << 18


def walk_endpoint_counts(n: int) -> dict[Point, int]:
    """Endpoint tally of all 4**n step sequences (exact, vectorized)."""
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
    for start in range(0, total, _SWEEP_CHUNK):
        ids = np.arange(start, min(start + _SWEEP_CHUNK, total), dtype=np.uint64)
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
    is exact everywhere because the table's radius n_max keeps the support
    away from its boundary.  Entries are arbitrary-precision integers.
    """

    n_max: int
    _points: list[Point] = field(repr=False)
    _index: dict[Point, int] = field(repr=False)
    _levels: list[list[int]] = field(repr=False)

    @classmethod
    def build(cls, n_max: int) -> "WalkCountTable":
        points = [(a, b) for a in range(n_max + 1)   # a >= b >= 0, a + b <= n_max
                  for b in range(min(a, n_max - a) + 1)]
        index = {p: i for i, p in enumerate(points)}
        zero_slot = len(points)  # folded neighbors beyond n_max read 0 here
        nbr_list = [[index.get(fold_octant(q), zero_slot)
                     for q in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))]
                    for a, b in points]

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
        return cls(n_max=n_max, _points=points, _index=index, _levels=levels)

    def count(self, n: int, x: Point) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}]")
        if l1(x) > n:
            return 0
        return self._levels[n][self._index[fold_octant(x)]]

    def level_items(self, n: int):
        """(point, count) pairs over the octant at step n, zeros skipped."""
        lv = self._levels[n]
        for i, p in enumerate(self._points):
            if lv[i]:
                yield p, lv[i]


def count_walks_diagonal(n: int, x: Point) -> int:
    """W_n(x) from the diagonal-coordinate closed form.

    Every step moves s = x1 + x2 and d = x2 - x1 by +-1 each, all four sign
    pairs once, so they are independent +-1 walks of n steps: W_n(x) =
    C(n, (n+s)/2) * C(n, (n+d)/2) when n = s (mod 2) and |s|, |d| <= n
    (s and d share parity), else 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    s, d = x[0] + x[1], x[1] - x[0]
    if (n + s) % 2 or abs(s) > n or abs(d) > n:
        return 0
    return comb(n, (n + s) // 2) * comb(n, (n + d) // 2)


@dataclass
class DominanceReport:
    """Scan result for W_{2n}(x) <= W_{2n}(o) over even-|x| points."""

    n_max: int
    checked: int
    violations: list[tuple[int, Point, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_dominance(n_max: int) -> DominanceReport:
    """Check W_{2n}(x) <= W_{2n}(o) for all even |x| <= 2n <= n_max."""
    table = WalkCountTable.build(n_max)
    violations, checked = [], 0
    for n2 in range(0, n_max + 1, 2):   # an even walk reaches only even |x|
        woo = table.count(n2, (0, 0))
        for p, w in table.level_items(n2):
            checked += 1
            if w > woo:
                violations.append((n2, p, w, woo))
    return DominanceReport(n_max=n_max, checked=checked, violations=violations)
