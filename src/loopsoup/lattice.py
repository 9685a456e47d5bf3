"""Geometry of Z^2 under the L1 norm: symmetry folding, diagonal coordinates,
and exact parametrization of L1 rings around points and boxes.

Walk counts and Green's values are invariant under the 8 lattice symmetries
(coordinate swap and sign flips), so most tables store one octant and fold on
access.  Ring parametrization lets the cover engine draw roots at given L1
distances from a box target without enumerating the plane.
"""

from __future__ import annotations

import numpy as np

Point = tuple[int, int]

ORIGIN: Point = (0, 0)

# Step codes: 0=E, 1=N, 2=W, 3=S.  In diagonal coordinates s=x1+x2, d=x2-x1
# each step changes (s, d) by (+1,-1), (+1,+1), (-1,+1), (-1,-1) respectively.
STEP_DX = np.array([1, 0, -1, 0], dtype=np.int64)
STEP_DY = np.array([0, 1, 0, -1], dtype=np.int64)


def l1(x: Point) -> int:
    """L1 norm |x| = |x1| + |x2|."""
    return abs(x[0]) + abs(x[1])


def diagonal_coords(x: Point) -> tuple[int, int]:
    """(s, d) = (x1+x2, x2-x1); s and d always share parity."""
    return x[0] + x[1], x[1] - x[0]


def fold_octant(x: Point) -> Point:
    """Canonical representative (a, b) with a >= b >= 0 of the symmetry orbit."""
    a, b = abs(x[0]), abs(x[1])
    return (a, b) if a >= b else (b, a)


def neighbors(x: Point) -> list[Point]:
    return [(x[0] + 1, x[1]), (x[0] - 1, x[1]), (x[0], x[1] + 1), (x[0], x[1] - 1)]


def octant_points(radius: int) -> list[Point]:
    """All (a, b) with a >= b >= 0 and a + b <= radius."""
    return [(a, b) for a in range(radius + 1) for b in range(min(a, radius - a) + 1)]


def symmetry_orbit(x: Point) -> set[Point]:
    a, b = x
    pts = set()
    for p, q in ((a, b), (b, a)):
        for sp in (p, -p):
            for sq in (q, -q):
                pts.add((sp, sq))
    return pts


class Box:
    """Axis-aligned inclusive box [x0, x1] x [y0, y1] with L1-ring helpers.

    A single point is the degenerate box x0 == x1, y0 == y1.  Ring delta
    holds the lattice cells at L1 distance exactly delta from the box; the
    parametrization maps an index in [0, ring_count(delta)) to a unique cell
    so roots can be drawn uniformly on a ring in O(1).
    """

    def __init__(self, x0: int, y0: int, x1: int, y1: int):
        if x1 < x0 or y1 < y0:
            raise ValueError("empty box")
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        return self.width * self.height

    def __repr__(self):
        return f"Box({self.x0},{self.y0},{self.x1},{self.y1})"

    def contains(self, x: Point) -> bool:
        return self.x0 <= x[0] <= self.x1 and self.y0 <= x[1] <= self.y1

    def distance(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Vectorized L1 distance from (px, py) to the box (0 inside)."""
        dx = np.maximum(0, np.maximum(self.x0 - px, px - self.x1))
        dy = np.maximum(0, np.maximum(self.y0 - py, py - self.y1))
        return dx + dy

    def ring_count(self, delta):
        """Number of cells at L1 distance delta (scalar or array) from the box."""
        d = np.asarray(delta, dtype=np.int64)
        if np.any(d < 0):
            raise ValueError("delta must be >= 0")
        return np.where(d == 0, self.area,
                        2 * (self.width + self.height) + 4 * (d - 1))[()]

    def ring_cells(self, delta, idx) -> tuple[np.ndarray, np.ndarray]:
        """Cells of ring delta >= 1 by index; inverse-free uniform sampling.

        delta is one ring for all indices or one ring per index.
        """
        idx = np.asarray(idx, dtype=np.int64)
        delta = np.broadcast_to(np.asarray(delta, dtype=np.int64), idx.shape)
        if np.any(delta < 1):
            raise ValueError("ring_cells needs delta >= 1")
        w, h = self.width, self.height
        out_x = np.empty_like(idx)
        out_y = np.empty_like(idx)

        # Segments: top(w), bottom(w), right(h), left(h), then the four
        # diagonal corner runs of delta-1 cells each.
        b0, b1, b2, b3 = w, 2 * w, 2 * w + h, 2 * w + 2 * h
        sel = idx < b0
        out_x[sel] = self.x0 + idx[sel]
        out_y[sel] = self.y1 + delta[sel]
        sel = (idx >= b0) & (idx < b1)
        out_x[sel] = self.x0 + (idx[sel] - b0)
        out_y[sel] = self.y0 - delta[sel]
        sel = (idx >= b1) & (idx < b2)
        out_x[sel] = self.x1 + delta[sel]
        out_y[sel] = self.y0 + (idx[sel] - b1)
        sel = (idx >= b2) & (idx < b3)
        out_x[sel] = self.x0 - delta[sel]
        out_y[sel] = self.y0 + (idx[sel] - b2)

        rem = idx - b3
        per = delta - 1
        for q, (sx, sy) in enumerate(((1, 1), (-1, 1), (1, -1), (-1, -1))):
            sel = (rem >= q * per) & (rem < (q + 1) * per)
            a = rem[sel] - q * per[sel] + 1  # 1..delta-1
            r = delta[sel] - a
            out_x[sel] = (self.x1 + a) if sx > 0 else (self.x0 - a)
            out_y[sel] = (self.y1 + r) if sy > 0 else (self.y0 - r)
        return out_x, out_y

    def ring_points(self, delta: int) -> list[Point]:
        """Full enumeration of a ring (small deltas; used by tests)."""
        if delta == 0:
            return [(x, y) for x in range(self.x0, self.x1 + 1)
                    for y in range(self.y0, self.y1 + 1)]
        xs, ys = self.ring_cells(delta, np.arange(self.ring_count(delta)))
        return list(zip(xs.tolist(), ys.tolist()))
