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

from .lattice import Box
from .rng import block_stream
from .series import (ResourceCeilingError, SeriesTruncationError,
                     geometric_tail_bound, loop_term_array, step_weight)

#: Ceiling on the truncation half-length a sampler is willing to prepare.
DEFAULT_N_TRUNC_CEILING = 1 << 22
#: Expected loops per soup slice: 1 GiB at 80 bytes a loop; tracemalloc puts a
#: drawn slice's peak at 51 bytes a loop at kappa = 2.5 and 49 at kappa = 0.05
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


def _alias_setup(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alias tables (J, q) for O(1) draws from each row of a (..., k) stack
    of distributions: draw column c uniformly, keep it if U < q[c], else J[c].
    J is int32; q is probs itself (as float64), scaled in place.

    Every row runs the sweep of Huebschle-Schneider and Sanders (2019,
    *Parallel weighted random sampling*) in closed form.  Scaled by k, the
    heavies are the columns above 1 and the lights the rest, each in column
    order; E_m is the heavies' running excess sum(q - 1) up to heavy m and
    D_i the lights' running deficit sum(1 - q) up to light i.  Heavy m fills
    the lights with D_{i-1} < E_m that no earlier heavy filled, then drops
    below 1 and is itself filled by heavy m + 1.  So light i aliases the
    first heavy with E_m > D_{i-1}, and heavy m keeps E_m + 1 - D_i, i the
    last light with D_{i-1} < E_m, and aliases the next heavy (the last
    heavy keeps about 1 and aliases itself).  One sort per row of the E_m
    and D_{i-1}, heavies first on ties, gives both, so a stack takes a
    fixed number of array passes whatever k.  A row without a heavy is all
    1 and keeps every column.
    """
    probs = np.asarray(probs, dtype=np.float64)
    k = probs.shape[-1]
    q = probs.reshape(-1, k)
    q *= k
    heavy = q > 1.0
    light = ~heavy
    short = (1.0 - q) * light
    excess = np.cumsum(q - 1.0 + short, axis=1)   # E_m, at heavy m
    deficit = np.cumsum(short, axis=1)            # D_i, at light i
    # the bits of a float >= 0 order as it does; the low bit puts heavies
    # first on ties
    key = np.maximum(excess * heavy + (deficit - short) * light, 0.0)
    order = np.argsort(key.view(np.uint64) << np.uint64(1) | light, axis=1)
    base = np.arange(0, q.size, k)[:, None]
    flat = (order + base).ravel()
    hs = heavy.ravel()[flat].reshape(q.shape)
    seen = np.cumsum(hs, axis=1)   # heavies up to each place, in sorted order
    top = seen[:, -1:] - 1
    last_d = np.maximum.accumulate(deficit.ravel()[flat].reshape(q.shape) * ~hs, axis=1)
    by_rank = np.empty(q.size, dtype=np.int32)   # the heavies' columns by rank
    by_rank[(np.where(hs, seen - 1, k - 1) + base).ravel()] = order.ravel()
    J = np.empty(q.shape, dtype=np.int32)
    J.reshape(-1)[flat] = by_rank[(np.minimum(seen, top) + base).ravel()]
    at = flat[hs.ravel()]
    q.reshape(-1)[at] = excess.reshape(-1)[at] + 1.0 - last_d[hs]
    none = top[:, 0] < 0
    q[none], J[none] = 1.0, np.arange(k)
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
    # 1 - ds is 0 for E, N and 2 for W, S; N and S, where ds = dd, add 1
    return (1 - ds) + ((1 + ds * dd) >> 1)


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


#: The 256 one-byte ``bytes`` objects, by value, as an object array: the
#: packed steps of every loop of half-length m <= 2.
_ONE_BYTE = np.array([bytes([b]) for b in range(256)], dtype=object)


def _sample_slice(seed: int, window: Box, t0: float, t1: float,
                  time_slice: int, dist: LengthDistribution):
    """All loops rooted in the window with timestamps in [t0, t1), drawn
    whole-window from the slice's own stream: Poisson(area (t1 - t0) w_m)
    loops of each half-length m, in uniform order, on sorted uniform cells
    (Poisson splitting), so the loops are x-major and time and memory follow
    them, not the window's area.  The bridges are drawn per half-length in
    ascending order.  The loops of half-length m <= 2, one byte each and
    nearly all of them at kappa of order 1, go into one uint8 array in loop
    order, which one lookup in ``_ONE_BYTE`` turns into the list of packed
    steps; only the longer loops are sliced out of their rows one by one."""
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
    one, wide = np.zeros(len(cell), dtype=np.uint8), []
    for m in np.unique(hl).tolist():
        idx = np.nonzero(hl == m)[0]
        rows = pack_steps(bridge_steps(rng, m, len(idx)))
        if m <= 2:
            one[idx] = rows[:, 0]
        else:
            wide.append((idx, rows))
    packed: list[bytes] = _ONE_BYTE[one].tolist()
    for idx, rows in wide:
        buf, nb = rows.tobytes(), rows.shape[1]
        for k, i in enumerate(idx.tolist()):
            packed[i] = buf[k * nb:(k + 1) * nb]
    return rx, ry, hl, ts, packed


def sample_window_soup(seed: int, kappa: float, window: Box | tuple,
                       time_horizon: float, tail_tol: float) -> SoupSample:
    """Exact truncated soup over a window of roots up to a time horizon."""
    if not time_horizon >= 0:   # NaN too
        raise ValueError(f"time_horizon must be >= 0, got {time_horizon}")
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
    if not delta_horizon >= 0:   # NaN too
        raise ValueError(f"delta_horizon must be >= 0, got {delta_horizon}")
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

