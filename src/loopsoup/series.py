"""Blocked evaluation of the even-walk power series with certified tails.

The walk series of the Green's function, kept as a cross-check of its
closed form, reduces to sums over half-lengths m of

    t_m * f_a(m) * f_b(m),   t_m = beta^{2m} C(2m, m)^2,
    f_a(m) = C(2m, m+a) / C(2m, m) = prod_{i<=a} (m-i+1)/(m+i),

with beta = 1/(4+kappa).  t_m is one running product of the exact one-step
ratios t_m / t_{m-1} = 16 beta^2 (1 - 1/(2m))^2 from t_0 = 1, carried from
block to block.  Against exact terms it is within 1.5e-13 relative up to
m = 12,046 at kappa = 0.01, 5.1e-13 up to 120,463 at 1e-3 and 3.8e-10 up
to 1.2e7 at 1e-5 (40-digit reference terms).

Truncation never relies on convergence heuristics: C(2m, m) <= 4^m /
sqrt(pi m) gives t_m <= q^m / (pi m), q = (4 beta)^2, so the even series
tail beyond half-length N obeys sum_{m>N} t_m <= q^{N+1} / (pi (N+1) (1-q))
for every kappa and N (``geometric_tail_bound``), and f_a f_b <= 1 extends
the same bound to every target point.  A sum stops at the first block end
where that bound meets the requested relative tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

#: Hard ceiling on summed half-lengths; beyond it the certified tail bound
#: cannot be brought under tolerance in reasonable time, so the sum raises
#: SeriesTruncationError.  G and the rooted intensity come from the closed
#: forms in ``greens``.
DEFAULT_M_CEILING = 1 << 28

_FIRST_BLOCK = 1 << 12
# Blocks stay L3-resident: the kernel is memory-bound and larger blocks
# spill cache and run ~4x slower.
_MAX_BLOCK = 1 << 20
_FW_ENTRIES = 1 << 22  # a block's rows Fw stay within 32 MB at any a_max
#: Largest kappa: mu = log G(o) ~ 4 kappa^-2 keeps a relative precision of about
#: eps kappa^2 / 4, 1.1e-11 at 1e3 and 2.9e-9 at 1e4, and rounds to 0 by 1e9.
KAPPA_MAX = 1e3
#: Smallest kappa, the smallest normal float: a subnormal kappa loses digits
#: (G's error estimate at (3, 1) grows from 1.2e-12 here to 1.4e-3 at 2e-323),
#: and at 5e-324 beta kappa rounds to 0 in the Green's quadrature.
KAPPA_MIN = sys.float_info.min


class SeriesTruncationError(RuntimeError):
    """Certified tail bound cannot reach the tolerance within the ceiling."""


class ResourceCeilingError(RuntimeError):
    """Requested run exceeds the configured work guard."""


class ConfigError(ValueError):
    """An argument outside its documented domain (exit 2 on the command line)."""


def step_weight(kappa: float) -> float:
    """beta = 1/(4+kappa); 4*beta < 1 makes every series here convergent."""
    if not KAPPA_MIN <= kappa <= KAPPA_MAX:
        raise ValueError(f"killing rate kappa must be > 0 and <= {KAPPA_MAX:g}, "
                         f"and normal (>= {KAPPA_MIN:g})")
    return 1.0 / (4.0 + kappa)


def exp_tail_bound(kappa: float, m: int) -> float:
    """The paper's bound on sum_{j>m} beta^{2j} C(2j,j)^2 for m kappa >= 1/2;
    false above kappa ~ 10, so only checked, never relied on."""
    return 4.0 * math.exp(-m * kappa / 4.0)


def geometric_tail_bound(kappa: float, m: int) -> float:
    """The module docstring's bound on sum_{j>m} t_j, any kappa and m >= 0;
    1 - q = kappa (8+kappa) beta^2 keeps it exact as kappa -> 0."""
    beta = step_weight(kappa)
    return (math.exp(2.0 * (m + 1) * math.log1p(-kappa * beta))
            / (math.pi * (m + 1) * kappa * (8.0 + kappa) * beta * beta))


@dataclass
class GramResult:
    """Sums S[a, b] = sum_{m>=1} t_m f_a(m) f_b(m) with a certified tail.

    ``tail_bound`` bounds the omitted remainder of S[0, 0]; by monotonicity
    (f <= 1) it also bounds the remainder of every other entry.
    """

    kappa: float
    gram: np.ndarray
    m_trunc: int
    tail_bound: float


def loop_series_gram(kappa: float, a_max: int, rel_tol: float,
                     m_ceiling: int = DEFAULT_M_CEILING) -> GramResult:
    """Evaluate all S[a, b] for 0 <= a, b <= a_max in one blocked pass.

    Works on sqrt-weighted rows Fw[a] = f_a * sqrt(t) so each block reduces
    to one small symmetric matrix product; all scratch is reused in place to
    keep the kernel cache-resident.  Each block's t continues the running
    product from the last term of the block before; the module docstring
    gives its measured accuracy.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    beta = step_weight(kappa)
    q = (4.0 * beta) ** 2
    gram = np.zeros((a_max + 1, a_max + 1))
    m0, t_prev = 1, 1.0
    most = min(_MAX_BLOCK, max(1, _FW_ENTRIES // (a_max + 1)))
    block = min(_FIRST_BLOCK, most)
    ws_size = -1
    while True:
        m1 = min(m0 + block, m_ceiling + 1)
        n = m1 - m0
        if n != ws_size:
            m = np.empty(n)
            r = np.empty(n)
            num = np.empty(n)
            den = np.empty(n)
            Fw = None   # release the old block's rows before the new ones
            Fw = np.empty((a_max + 1, n))
            ws_size = n
        m[:] = np.arange(m0, m1, dtype=np.float64)
        np.divide(-0.5, m, out=r)
        np.add(r, 1.0, out=r)
        np.square(r, out=r)
        np.multiply(r, q, out=r)
        r[0] *= t_prev
        np.cumprod(r, out=r)  # r = t_m over the block
        t_prev = r[-1]
        np.sqrt(r, out=Fw[0])
        for a in range(1, a_max + 1):
            # (m - a + 1) hits zero at m = a - 1 and the product stays zero
            # for all smaller m, which is exactly f_a(m) = 0 for m < a.
            np.subtract(m, a - 1.0, out=num)
            np.add(m, float(a), out=den)
            np.divide(num, den, out=num)
            np.multiply(Fw[a - 1], num, out=Fw[a])
        gram += Fw @ Fw.T
        m_last = m1 - 1
        tail = geometric_tail_bound(kappa, m_last)
        if tail <= rel_tol * (1.0 + gram[0, 0]):
            return GramResult(kappa=kappa, gram=gram, m_trunc=m_last, tail_bound=tail)
        if m1 > m_ceiling:
            raise SeriesTruncationError(
                f"tail bound not certified below rel_tol={rel_tol:g} within "
                f"{m_ceiling} half-lengths at kappa={kappa:g}")
        m0 = m1
        block = min(block * 2, most)


def loop_term_array(kappa: float, m_max: int) -> np.ndarray:
    """t_m for m = 1..m_max as a dense array (moderate m_max only): the
    running product of the exact one-step ratios, whose first is t_1 = 4 beta^2."""
    q = (4.0 * step_weight(kappa)) ** 2
    r = q * (1.0 - 0.5 / np.arange(1, m_max + 1, dtype=np.float64)) ** 2
    return np.cumprod(r)
