"""Exact sampling of the timestamped soup, truncated in loop length.

The rooted representation makes this exact: the soup restricted to loops of
half-length m <= n_trunc and roots in a window is a Poisson process with,
per root, total mass sum_m w_m where w_m = (L_{2m}/(2m)) beta^{2m}.  The
loops of each half-length m are an independent Poisson process of rate w_m
per root, so a window soup draws one Poisson count per half-length, as the
cover engine's ring slab does; roots are uniform on the window, timestamps
are uniform marks, and the loop shape is a pair of independent +-1 bridges in
the diagonal coordinates (every closed walk corresponds to exactly one such
pair, so bridge shuffling is uniform over the C(2m,m)^2 rooted loops).

Because the rooted measure pushes forward to the unrooted one, coverage
functionals of this sample agree in law with the unrooted soup truncated at
the same length; no multiplicity bookkeeping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Box, STEP_DX, STEP_DY
from .rng import block_stream
from .series import (ResourceCeilingError, SeriesTruncationError,
                     geometric_tail_bound, loop_term_array, step_weight)

#: Ceiling on the truncation half-length a sampler is willing to prepare.
DEFAULT_N_TRUNC_CEILING = 1 << 22
#: Expected loops per soup slice: 1 GiB at the ~80 bytes a loop peaks at when drawn
MAX_SOUP_LOOPS = (1 << 30) // 80


def tail_mass(kappa: float, n: int) -> float:
    """Certified cap on the half-length law's mass beyond n, for every kappa
    and n >= 0: the weights t_m/(2m) of m > n sum to at most
    ``geometric_tail_bound``(kappa, n) / (2(n+1)) = q^{n+1} / (2 pi (n+1)^2 (1-q))."""
    return geometric_tail_bound(kappa, n) / (2.0 * (n + 1))


def tail_envelope_rate(kappa: float, n: int, box: Box) -> float:
    """Mass of the geometric envelope C q^m, m > n, of the intensity w_m
    rect_m of the loops past half-length n rooted on the box grown by m,
    rect_m = (W + 2m)(H + 2m): t_m <= q^m / (pi m) and rect_m / m^2 falls
    with m, so w_m rect_m = t_m rect_m / (2m) <= C q^m with C = rect_{n+1} /
    (2 pi (n+1)^2), whose sum over m > n is rect_{n+1} ``tail_mass``(kappa, n)."""
    return box.grown_area(n + 1) * tail_mass(kappa, n)


def required_n_trunc(kappa: float, tail_tol: float) -> int:
    """Smallest N >= 1 with certified pmf tail below tail_tol."""
    step_weight(kappa)
    if tail_tol <= 0:
        raise ValueError("tail_tol must be > 0")
    lo = n = 1
    while tail_mass(kappa, n) > tail_tol and n <= DEFAULT_N_TRUNC_CEILING:
        lo, n = n, 2 * n   # tail_mass decreases in N: bracket N, then bisect
    while n - lo > 1:   # tail_mass(lo) > tail_tol >= tail_mass(n), or n too big
        mid = (lo + n) // 2
        lo, n = (mid, n) if tail_mass(kappa, mid) > tail_tol else (lo, mid)
    if n > DEFAULT_N_TRUNC_CEILING:
        raise SeriesTruncationError(
            f"length truncation exceeds ceiling {DEFAULT_N_TRUNC_CEILING} "
            f"at kappa={kappa:g}")
    return n


_ALIAS_WINDOW = 64


def _alias_setup(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alias tables (J, q) for O(1) draws from each row of a (..., k) stack
    of distributions: draw column c uniformly, keep it if U < q[c], else J[c].
    J is int32; q is probs itself (as float64), scaled in place.

    Every row runs Walker's construction with a stack of small (q < 1) and
    one of large columns, both in one int32 index row P: P[:ns] holds the
    smalls and P[ns0:ns0 + nl] the larges, ns0 being the initial count of
    smalls.  The top large absorbs smalls from the top of the small stack,
    one by one, until it drops below 1 and becomes the next small; it has
    absorbed one by then, so ns never exceeds ns0 and the stacks never meet.
    A pass does one large's absorptions in every row at once, over a window
    of the small stack, with the same sequential subtractions, so a single
    row gets exactly the classic table.
    """
    probs = np.asarray(probs, dtype=np.float64)
    k = probs.shape[-1]
    q = probs.reshape(-1, k)
    q *= k
    J = np.zeros(q.shape, dtype=np.int32)
    # smalls, ascending, then larges, ascending
    P = np.argsort(q >= 1.0, axis=1, kind="stable").astype(np.int32)
    ns = np.count_nonzero(q < 1.0, axis=1)
    base = ns.copy()
    nl = k - ns
    cols = np.arange(k)
    act = np.flatnonzero((ns > 0) & (nl > 0))
    while act.size:
        top, w = ns[act], min(int(ns[act].max()), _ALIAS_WINDOW)
        big = P[act, base[act] + nl[act] - 1]
        pos = top[:, None] - 1 - cols[:w]              # smalls in pop order
        valid = pos >= 0
        s = P[act[:, None], np.maximum(pos, 0)]
        left = np.empty((len(act), w + 1))
        left[:, 0] = q[act, big]
        left[:, 1:] = np.where(valid, 1.0 - q[act[:, None], s], 0.0)
        np.subtract.accumulate(left, axis=1, out=left)
        below = (left[:, 1:] < 1.0) & valid
        drops = below.any(axis=1)
        taken = np.where(drops, below.argmax(axis=1) + 1, np.minimum(top, w))
        i, c = np.nonzero(cols[:w] < taken[:, None])
        J[act[i], s[i, c]] = big[i]
        q[act, big] = left[np.arange(len(act)), taken]
        ns[act] -= taken
        d = act[drops]                                 # the large becomes a small
        nl[d] -= 1
        P[d, ns[d]] = big[drops]
        ns[d] += 1
        act = act[(ns[act] > 0) & (nl[act] > 0)]
    return J.reshape(probs.shape), q.reshape(probs.shape)


@dataclass(frozen=True)
class LengthDistribution:
    """Truncated half-length law of rooted loops at one vertex.

    weights[m-1] = (L_{2m}/(2m)) beta^{2m} for m = 1..n_trunc; total_mass is
    their sum (the truncated per-vertex intensity); ``tail_mass`` caps what
    truncation discarded.
    """

    kappa: float
    n_trunc: int
    weights: np.ndarray
    total_mass: float

    @classmethod
    def build(cls, kappa: float, tail_tol: float) -> "LengthDistribution":
        n = required_n_trunc(kappa, tail_tol)
        t = loop_term_array(kappa, n)
        weights = t / (2.0 * np.arange(1, n + 1, dtype=np.float64))
        return cls(kappa=kappa, n_trunc=n, weights=weights,
                   total_mass=float(weights.sum()))


@lru_cache(maxsize=32)
def length_pmf(kappa: float, tail_tol: float) -> LengthDistribution:
    """The shared LengthDistribution of (kappa, tail_tol), which window soups
    and the cover engine draw their per-half-length Poisson counts from; its
    weights are read-only."""
    dist = LengthDistribution.build(kappa, tail_tol)
    dist.weights.flags.writeable = False
    return dist


# ---------------------------------------------------------------------------
# Loop shapes

#.. step codes 0=E,1=N,2=W,3=S; diagonal increments per code:
#    ds = +1 for E,N and -1 for W,S;  dd = +1 for N,W and -1 for E,S.


def bridge_steps(rng: np.random.Generator, half_length: int,
                 count: int = 1) -> np.ndarray:
    """(count, 2m) arrays of step codes, uniform over closed 2m-step walks.

    Each row shuffles m plus-ones and m minus-ones independently in the two
    diagonal coordinates.
    """
    m = half_length
    if m < 1:
        raise ValueError("half_length must be >= 1")
    ds = balanced_signs(rng, count, m)
    dd = balanced_signs(rng, count, m)
    return np.where(ds > 0, np.where(dd > 0, 1, 0),
                    np.where(dd > 0, 2, 3)).astype(np.int8)


def balanced_signs(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """(count, 2m) rows of m plus-ones and m minus-ones in uniform order:
    one int8 template, shuffled row by row in place."""
    sgn = np.empty((count, 2 * m), dtype=np.int8)
    sgn[:, :m] = 1
    sgn[:, m:] = -1
    return rng.permuted(sgn, axis=1, out=sgn)


def urn_steps(rng: np.random.Generator, m: np.ndarray):
    """Closed walks of half-lengths m (a nonempty descending int64 array) in
    lockstep: yields (live, dx, dy) for positions i = 0 .. 2 m[0] - 2, live
    counting the loops with 2m - 1 > i.  Each draws a (2, live) block of
    float64 uniforms, row 0 for the diagonal s = x + y and row 1 for
    d = y - x, and a loop steps +1 in a diagonal with probability (its
    plus-steps left)/(2m - i): a sequential urn, so every closed walk has
    probability C(2m, m)^-2.  dx = s - d and dy = s + d - 1 for the drawn
    bits; the last step, back to the root, is forced."""
    left = 2.0 * m                                # steps left, 2m - i
    plus = np.stack([m, m]).astype(np.float64)    # plus-steps left per diagonal
    # reused buffers: fresh (2, live) temporaries cost about as much as the draws
    u, bits = np.empty(2 * len(m)), np.empty(2 * len(m), dtype=bool)
    # 1 - 2m ascends, so the loops with 2m - 1 > i are those below -i
    lives = np.searchsorted(1 - 2 * m, -np.arange(2 * m[0] - 1), side="left")
    for live in lives.tolist():
        draw = rng.random(out=u[:2 * live]).reshape(2, live)
        draw *= left[:live]
        step = np.less(draw, plus[:, :live], out=bits[:2 * live].reshape(2, live))
        plus[:, :live] -= step
        left[:live] -= 1.0
        s, d = step.view(np.int8)
        yield live, s - d, s + d - 1


def loop_vertices(root_x, root_y, codes) -> tuple[np.ndarray, np.ndarray]:
    """Visited x and y of g loops, (g, 2m) each in walk order, root first,
    from their roots and (g, 2m) step codes."""
    rx = np.asarray(root_x, dtype=np.int64)[:, None]
    ry = np.asarray(root_y, dtype=np.int64)[:, None]
    px = np.empty(codes.shape, dtype=np.int64)
    py = np.empty(codes.shape, dtype=np.int64)
    px[:, :1] = rx
    py[:, :1] = ry
    px[:, 1:] = rx + np.cumsum(STEP_DX[codes], axis=1)[:, :-1]
    py[:, 1:] = ry + np.cumsum(STEP_DY[codes], axis=1)[:, :-1]
    return px, py


def pack_steps(steps: np.ndarray) -> np.ndarray:
    """Pack 2-bit step codes four per byte (low bits first), row by row.

    (..., n) codes -> (..., ceil(n/4)) uint8; the last byte of a row is
    zero-padded.
    """
    s = np.asarray(steps, dtype=np.uint8)
    pad = (-s.shape[-1]) % 4
    if pad:
        s = np.concatenate([s, np.zeros(s.shape[:-1] + (pad,), np.uint8)], axis=-1)
    s = s.reshape(s.shape[:-1] + (-1, 4))
    return s[..., 0] | (s[..., 1] << 2) | (s[..., 2] << 4) | (s[..., 3] << 6)


_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def unpack_steps(packed, n_steps: int) -> np.ndarray:
    """Inverse of pack_steps: bytes, or (..., nbytes) uint8 rows, to
    (..., n_steps) int8 step codes."""
    raw = packed if isinstance(packed, np.ndarray) \
        else np.frombuffer(packed, dtype=np.uint8)
    codes = (raw[..., None] >> _SHIFTS) & 3
    return codes.reshape(raw.shape[:-1] + (-1,))[..., :n_steps].astype(np.int8)


# ---------------------------------------------------------------------------
# Window soups


@dataclass
class SoupSample:
    """Soup restricted to roots in a window, lengths <= 2 n_trunc, t <= horizon.

    Loops live in parallel arrays, ordered by time slice, then by root
    (x-major); a slice's half-lengths come from one Poisson count per
    half-length, in uniform order; steps_packed holds each loop's 2-bit
    step codes, (2m + 3) // 4 bytes of them.  The sample is a pure
    function of (seed, kappa, window, horizon, tail_tol) and of the horizons
    it was extended by: every time slice draws from its own Philox stream,
    ``block_stream(seed, "soup", slice)``, so extending a soup never changes
    the loops it already holds.
    """

    kappa: float
    window: Box
    time_horizon: float
    n_trunc: int
    tail_tol: float
    seed: int
    n_slices: int
    root_x: np.ndarray
    root_y: np.ndarray
    half_length: np.ndarray
    timestamp: np.ndarray
    steps_packed: list[bytes]

    def __len__(self) -> int:
        return len(self.timestamp)


def _sample_slice(seed: int, window: Box, t0: float, t1: float,
                  time_slice: int, dist: LengthDistribution):
    """All loops rooted in the window with timestamps in [t0, t1), drawn
    whole-window from the slice's own stream: Poisson(area (t1 - t0) w_m)
    loops of each half-length m, in uniform order, on sorted uniform cells
    (Poisson splitting), so the loops are x-major and time and memory follow
    them, not the window's area."""
    span = window.area * (t1 - t0)
    if span * dist.total_mass > MAX_SOUP_LOOPS:
        raise ResourceCeilingError(
            f"soup slice of {span * dist.total_mass:.3g} > {MAX_SOUP_LOOPS} loops")
    rng = block_stream(seed, "soup", time_slice)
    counts = rng.poisson(span * dist.weights)
    hl = rng.permutation(np.repeat(np.arange(1, dist.n_trunc + 1, dtype=np.int32),
                                   counts))
    cell = np.sort(rng.integers(0, window.area, size=len(hl)))
    rx, ry = (c.astype(np.int32) for c in window.grown_cells(0, cell))
    ts = t0 + (t1 - t0) * rng.random(len(cell))
    packed: list[bytes] = [b""] * len(cell)
    for m in np.unique(hl).tolist():
        idx = np.nonzero(hl == m)[0]
        rows = pack_steps(bridge_steps(rng, m, len(idx)))
        buf, nb = rows.tobytes(), rows.shape[1]
        for k, i in enumerate(idx.tolist()):
            packed[i] = buf[k * nb:(k + 1) * nb]
    return rx, ry, hl, ts, packed


def sample_window_soup(seed: int, kappa: float, window: Box | tuple,
                       time_horizon: float, tail_tol: float) -> SoupSample:
    """Exact truncated soup over a window of roots up to a time horizon."""
    if time_horizon < 0:
        raise ValueError("time_horizon must be >= 0")
    if not isinstance(window, Box):
        window = Box(*window)
    dist = length_pmf(kappa, tail_tol)
    rx, ry, hl, ts, packed = _sample_slice(seed, window, 0.0, time_horizon,
                                           0, dist)
    # a zero horizon draws nothing, and its first extension is slice 0
    return SoupSample(kappa=kappa, window=window, time_horizon=time_horizon,
                      n_trunc=dist.n_trunc, tail_tol=tail_tol, seed=seed,
                      n_slices=int(time_horizon > 0), root_x=rx, root_y=ry,
                      half_length=hl, timestamp=ts, steps_packed=packed)


def extend_soup(soup: SoupSample, delta_horizon: float) -> SoupSample:
    """Fresh, independent loops on (horizon, horizon + delta]; the union has
    exactly the law of sampling the longer horizon at once."""
    if delta_horizon < 0:
        raise ValueError("delta_horizon must be >= 0")
    if delta_horizon == 0:
        return soup
    dist = length_pmf(soup.kappa, soup.tail_tol)
    t0 = soup.time_horizon
    rx, ry, hl, ts, packed = _sample_slice(soup.seed, soup.window, t0,
                                           t0 + delta_horizon, soup.n_slices,
                                           dist)
    return SoupSample(kappa=soup.kappa, window=soup.window,
                      time_horizon=t0 + delta_horizon, n_trunc=soup.n_trunc,
                      tail_tol=soup.tail_tol, seed=soup.seed,
                      n_slices=soup.n_slices + 1,
                      root_x=np.concatenate([soup.root_x, rx]),
                      root_y=np.concatenate([soup.root_y, ry]),
                      half_length=np.concatenate([soup.half_length, hl]),
                      timestamp=np.concatenate([soup.timestamp, ts]),
                      steps_packed=soup.steps_packed + packed)

