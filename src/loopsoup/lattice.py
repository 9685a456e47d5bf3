"""Geometry of Z^2 under the L1 norm: symmetry folding, exact
parametrization of L1 rings around points and boxes, and the finite target
sets A.

Walk counts and Green's values are invariant under the 8 lattice symmetries
(coordinate swap and sign flips), so most tables store one octant and fold on
access.  Ring parametrization lets the cover engine draw roots at given L1
distances from a box target without enumerating the plane; ring 0 is the box
itself, in x-major order, which also numbers the cells of a soup window.

``PointsTarget`` (and ``BoxTarget`` for side x side boxes) is the one type
of a finite set A: it validates its points once, and holds what the cover
engines, the determinant law and the pair sums read off A (its bounding box,
vertex lookup, ring roots, displacement histogram and L1 diameter).  It
lives here because ``laws`` and ``cover`` both need it and ``laws`` cannot
import ``cover``.
"""

from __future__ import annotations

import numpy as np

Point = tuple[int, int]

# Step codes: 0=E, 1=N, 2=W, 3=S.  In diagonal coordinates s=x1+x2, d=x2-x1
# each step changes (s, d) by (+1,-1), (+1,+1), (-1,+1), (-1,-1) respectively.
STEP_DX = np.array([1, 0, -1, 0], dtype=np.int64)
STEP_DY = np.array([0, 1, 0, -1], dtype=np.int64)


def l1(x: Point) -> int:
    """L1 norm |x| = |x1| + |x2|."""
    return abs(x[0]) + abs(x[1])


def fold_octant(x: Point) -> Point:
    """Canonical representative (a, b) with a >= b >= 0 of the symmetry orbit."""
    a, b = abs(x[0]), abs(x[1])
    return (a, b) if a >= b else (b, a)


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
    holds the lattice cells at L1 distance exactly delta from the box, so
    ring 0 is the box itself; the parametrization maps an index in
    [0, ring_count(delta)) to a unique cell so roots can be drawn uniformly
    on a ring in O(1).
    """

    def __init__(self, x0: int, y0: int, x1: int, y1: int):
        if x1 < x0 or y1 < y0:
            raise ValueError("empty box")
        if min(x0, y0) < -2 ** 31 or max(x1, y1) >= 2 ** 31:
            raise ValueError("box coordinates must fit in int32")
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
        """Cells of ring delta >= 0 by index; inverse-free uniform sampling.

        idx is a 1-d array and delta one ring for all indices or one ring
        per index.  Ring 0 is the box, x-major: index i height + j is
        (x0 + i, y0 + j).
        """
        idx, delta = np.asarray(idx, dtype=np.int64), np.asarray(delta, dtype=np.int64)
        if np.any(delta < 0):
            raise ValueError("delta must be >= 0")
        w, h = self.width, self.height
        out_x, out_y = np.divmod(idx, h)
        out_x += self.x0
        out_y += self.y0
        if not delta.any():   # all on ring 0, as in a soup window
            return out_x, out_y
        delta = np.broadcast_to(delta, idx.shape)
        ring = np.flatnonzero(delta)
        idx, delta = idx[ring], delta[ring]
        # Segments, in index order: top(w), bottom(w), right(h), left(h), then
        # the corner runs q = 0..3 of delta-1 cells each, a = 1..delta-1 steps
        # out from the box's corners in the diagonal directions (+,+), (-,+),
        # (+,-), (-,-).  Segment s at position p (the offset along a side, a
        # on a corner run) is the cell (X0 + SX delta + PX p, Y0 + SY delta
        # + PY p), its coefficients taken from column s below.
        starts = np.array([0, w, 2 * w, 2 * w + h, 2 * w + 2 * h])
        seg = (idx >= starts[1]).astype(np.intp)
        for start in starts[2:]:
            seg += idx >= start
        p = idx - starts[seg]
        corner = np.flatnonzero(seg == 4)
        q, a = np.divmod(p[corner], delta[corner] - 1)
        seg[corner] += q
        p[corner] = a + 1
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        X0, SX, PX, Y0, SY, PY = np.array([
            [x0, x0, x1, x0, x1, x0, x1, x0],
            [0, 0, 1, -1, 0, 0, 0, 0],
            [1, 1, 0, 0, 1, -1, 1, -1],
            [y1, y0, y0, y0, y1, y1, y0, y0],
            [1, -1, 0, 0, 1, 1, -1, -1],
            [0, 0, 1, 1, -1, -1, 1, 1]], dtype=np.int64)
        out_x[ring] = X0[seg] + SX[seg] * delta + PX[seg] * p
        out_y[ring] = Y0[seg] + SY[seg] * delta + PY[seg] * p
        return out_x, out_y

    def ring_points(self, delta: int) -> list[Point]:
        """Full enumeration of a ring (small deltas; used by tests)."""
        xs, ys = self.ring_cells(delta, np.arange(self.ring_count(delta)))
        return list(zip(xs.tolist(), ys.tolist()))


PAIR_GRID_CELLS = 1 << 24  # a ~2048^2 box, whose report needs G to radius 2047+


class PointsTarget:
    """A finite set A of distinct lattice points: ``pts``, the (n, 2) int64
    array of A in the given order (vertex v is ``pts[v]``), inside its
    bounding box ``box``.  The ring engine places roots on the box's L1 rings
    (``root_coords``, one ring delta and index per root): a loop rooted at
    distance delta from the box reaches A only if its half-length is at least
    delta, and ``vertex_index`` decides which of its cells are hits."""

    #: Largest |coordinate| of a target point.  Traced cells lie within
    #: 2 n_trunc <= 2**23 of the bounding box (or, for soups, in int32
    #: range), so they differ from every point by less than 2**32 per
    #: coordinate, which is what keeps ``_key`` exact.
    COORD_LIMIT = 1 << 30

    def __init__(self, points):
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != 2 or not len(pts) or pts.dtype.kind not in "iu":
            raise ValueError("points must be a nonempty (n, 2) array of integers")
        if pts.min() < -self.COORD_LIMIT or pts.max() > self.COORD_LIMIT:
            raise ValueError("target coordinates must lie within +-2**30")
        self.pts = pts.astype(np.int64)
        self.box = Box(*self.pts.min(axis=0).tolist(), *self.pts.max(axis=0).tolist())
        keys = self._key(self.pts[:, 0], self.pts[:, 1])
        self._order = np.argsort(keys)
        self._sorted_keys = keys[self._order]
        if np.any(self._sorted_keys[1:] == self._sorted_keys[:-1]):
            raise ValueError("duplicate points")

    @staticmethod
    def _key(x, y):
        # equal keys (mod 2**64) force y = y' and then x = x' mod 2**32
        return (np.asarray(x, dtype=np.int64) << 32) + np.asarray(y, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.pts)

    @property
    def label(self) -> str:
        return "points:" + ";".join(f"({a},{b})" for a, b in self.points())

    def points(self) -> list[Point]:
        return list(map(tuple, self.pts.tolist()))

    def vertex_index(self, x, y):
        keys = self._key(x, y)
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), self.size - 1)
        return np.where(self._sorted_keys[pos] == keys, self._order[pos], -1)

    def root_coords(self, delta: np.ndarray,
                    idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.box.ring_cells(delta, idx)

    def pair_distance_counts(self) -> dict[Point, int]:
        """Multiplicity of each unordered displacement between distinct
        points, folded to (max, min) of (|dx|, |dy|), in ascending order:
        the autocorrelation of the set's indicator by FFT on its bounding box
        (sx, sy) zero-padded to (2sx-1, 2sy-1), rounded under a guard (every
        residual < 1/4, |A|^2 in all).  40-60 bytes of scratch per padded
        cell; a grid over PAIR_GRID_CELLS cells raises ValueError up front."""
        n, sx, sy = self.size, self.box.width, self.box.height
        grid = (2 * sx - 1, 2 * sy - 1)
        if grid[0] * grid[1] > PAIR_GRID_CELLS:
            raise ValueError(f"padded pair grid {grid} exceeds {PAIR_GRID_CELLS} cells")
        ind = np.zeros((sx, sy))
        ind[self.pts[:, 0] - self.box.x0, self.pts[:, 1] - self.box.y0] = 1.0
        f = np.fft.rfft2(ind, grid)
        corr = np.fft.irfft2(f * f.conj(), grid)
        counts = np.rint(corr)
        if np.abs(corr - counts).max() >= 0.25 or counts.sum() != n * n:
            raise ArithmeticError("pair histogram FFT did not round to counts")
        # index i of an axis of length p is displacement i, or i - p past the middle
        dx, dy = (np.minimum(np.arange(p), p - np.arange(p)) for p in grid)
        short = min(sx, sy)  # min(|dx|, |dy|) < short: the keys below are distinct
        fold = np.maximum(dx[:, None], dy) * short + np.minimum(dx[:, None], dy)
        hist = np.bincount(fold.ravel(), counts.ravel()).astype(np.int64) // 2
        hist[0] = 0  # displacement 0 pairs each point only with itself
        return {divmod(k, short): int(hist[k]) for k in np.flatnonzero(hist).tolist()}

    def max_l1_diameter(self) -> int:
        """Largest L1 distance between two points: |dx| + |dy| is the larger
        of |d(x + y)| and |d(x - y)|."""
        x, y = self.pts.T
        return int(max(np.ptp(x + y), np.ptp(x - y)))


class BoxTarget(PointsTarget):
    """side x side box of vertices anchored at the origin corner, x-major:
    vertex (i, j) is number i side + j."""

    MAX_SIDE = 2048  # the largest box whose pair grid fits PAIR_GRID_CELLS

    def __init__(self, side: int):
        if not 1 <= side <= self.MAX_SIDE:
            raise ValueError(f"side must lie in [1, {self.MAX_SIDE}]")
        i = np.arange(side)
        super().__init__(np.stack([np.repeat(i, side), np.tile(i, side)], axis=1))

    @property
    def label(self) -> str:
        return f"box:{self.box.width}"

    def vertex_index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        inside = ((x >= self.box.x0) & (x <= self.box.x1)
                  & (y >= self.box.y0) & (y <= self.box.y1))
        idx = (x - self.box.x0) * self.box.height + (y - self.box.y0)
        return np.where(inside, idx, -1)
