"""Geometry of Z^2 under the L1 norm: symmetry folding, boxes and their L1
rings, and the finite target sets A.

Walk counts and Green's values are invariant under the 8 lattice symmetries
(coordinate swap and sign flips), so most tables store one octant and fold on
access.  A box grown by m on every side numbers its cells x-major; the ring
engine draws a loop of half-length m a root on it and keeps the root if it
lies within L1 distance m of the box (Poisson thinning), and at m = 0 the
same numbering places the roots of a soup window.

``PointsTarget`` (and ``BoxTarget`` for side x side boxes) is the one type
of a finite set A: it validates its points once, and holds what the cover
engines, the determinant law and the pair sums read off A (its bounding box,
vertex lookup, root cells, displacement histogram and L1 diameter).  It
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
    """Axis-aligned inclusive box [x0, x1] x [y0, y1].

    A single point is the degenerate box x0 == x1, y0 == y1.  Ring delta
    holds the lattice cells at L1 distance exactly delta from the box, so
    ring 0 is the box itself; the cells within m of the box are rings
    0..m, inside the box grown by m.
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

    def grown_area(self, m):
        """Number of cells of the box grown by m (scalar or array) on every side."""
        return (self.width + 2 * m) * (self.height + 2 * m)

    def grown_cells(self, m: int, idx) -> tuple[np.ndarray, np.ndarray]:
        """Cells of the box grown by m >= 0 on every side, x-major: index i
        (height + 2m) + j is (x0 - m + i, y0 - m + j).  At m = 0, the box
        itself in vertex order."""
        if m < 0:
            raise ValueError("m must be >= 0")
        x, y = np.divmod(np.asarray(idx, dtype=np.int64), self.height + 2 * m)
        return x + (self.x0 - m), y + (self.y0 - m)


PAIR_GRID_CELLS = 1 << 24  # a ~2048^2 box, whose report needs G to radius 2047+


def fft_length(n: int) -> int:
    """Smallest 5-smooth length >= n >= 1 (no prime factor above 5), on
    which pocketfft is fast: 2^k 3^i 5^j, the least power of two per 3^i 5^j."""
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        p = p3
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 5
        p3 *= 3
    return best


class PointsTarget:
    """A finite set A of distinct lattice points: ``pts``, the (n, 2) int64
    array of A in the given order (vertex v is ``pts[v]``), inside its
    bounding box ``box``.  A loop of half-length m reaches A only if its
    root lies within L1 distance m of the box; the ring engine proposes
    roots on the box grown by m (``root_coords``), keeps those within m,
    and ``vertex_index`` decides which of a loop's cells are hits; of
    half-length 1 it draws only the loops that ``neighbours`` finds."""

    #: Largest |coordinate| of a target point.  Traced cells lie within 2m
    #: of the bounding box, m <= n_trunc <= 2**22 but for the envelope's
    #: loops, which pass 2**29 with odds below e^-600 (or, for soups, in
    #: int32 range), so they differ from every point by less than 2**32 per
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

    def neighbours(self) -> np.ndarray:
        """The (n, 4) neighbour table in A's order: nbr[v, d] is the vertex
        next to v in direction d (E, N, W, S), or -1 outside A."""
        x, y = self.pts.T
        return np.stack([self.vertex_index(x + dx, y + dy) for dx, dy in
                         zip(STEP_DX.tolist(), STEP_DY.tolist())], axis=1, dtype=np.int32)

    def root_coords(self, m: int, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.box.grown_cells(m, cell)

    def pair_distance_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, count) int64 arrays: the multiplicity of each unordered
        displacement between distinct points, folded to (a, b) = (max, min)
        of (|dx|, |dy|), in ascending (a, b) order.  The autocorrelation of
        the set's indicator by FFT on its bounding box (sx, sy), zero-padded
        per axis to the 5-smooth ``fft_length`` of 2s - 1 (the cells between
        the positive and negative displacements hold 0), rounded under a
        guard (every residual < 1/4, |A|^2 in all).  Scratch is 40-60 bytes
        per padded cell.  The guard counts the unpadded (2sx - 1)(2sy - 1)
        cells, which padding grows by at most 11% per axis past length 21
        (4095 -> 4096 at MAX_SIDE); over PAIR_GRID_CELLS, ValueError up front."""
        n, sx, sy = self.size, self.box.width, self.box.height
        if (2 * sx - 1) * (2 * sy - 1) > PAIR_GRID_CELLS:
            raise ValueError(f"pair grid {(2 * sx - 1, 2 * sy - 1)} exceeds "
                             f"{PAIR_GRID_CELLS} cells")
        grid = (fft_length(2 * sx - 1), fft_length(2 * sy - 1))
        ind = np.zeros((sx, sy))
        ind[self.pts[:, 0] - self.box.x0, self.pts[:, 1] - self.box.y0] = 1.0
        f = np.fft.rfft2(ind, grid)
        corr = np.fft.irfft2(f * f.conj(), grid)
        counts = np.rint(corr)
        if np.abs(corr - counts).max() >= 0.25 or counts.sum() != n * n:
            raise ArithmeticError("pair histogram FFT did not round to counts")
        # index i of an axis of length p is displacement i, or i - p past the middle
        dx, dy = (np.minimum(np.arange(p), p - np.arange(p)) for p in grid)
        short = min(sx, sy)  # min(|dx|, |dy|) < short where counts are nonzero
        fold = np.maximum(dx[:, None], dy) * short + np.minimum(dx[:, None], dy)
        hist = np.bincount(fold.ravel(), counts.ravel()).astype(np.int64) // 2
        hist[0] = 0  # displacement 0 pairs each point only with itself
        keys = np.flatnonzero(hist)
        return *np.divmod(keys, short), hist[keys]

    def max_l1_diameter(self) -> int:
        """Largest L1 distance between two points: |dx| + |dy| is the larger
        of |d(x + y)| and |d(x - y)|."""
        x, y = self.pts.T
        return int(max(np.ptp(x + y), np.ptp(x - y)))


class BoxTarget(PointsTarget):
    """side x side box of vertices anchored at the origin corner, x-major:
    vertex (i, j) is number i side + j."""

    MAX_SIDE = 2048  # the largest box whose 4095^2 pair grid fits PAIR_GRID_CELLS

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
