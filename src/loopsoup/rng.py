"""Counter-based random streams for reproducible (and parallelizable) sampling.

All randomness derives from Philox generators keyed, through SeedSequence,
by (user seed, label, index).  ``block_stream`` hands out one independent
stream per index, and callers give each unit of work its own index:

* replica blocks of a Monte Carlo ensemble (label = the experiment); merging
  blocks by index makes results independent of worker count;
* time slices of a window soup (label ``"soup"``); a slice draws its whole
  window from one stream, so extending a soup's horizon adds a slice and
  never changes the loops already drawn.
"""

from __future__ import annotations

import zlib

import numpy as np


def block_stream(seed: int, label: str, index: int) -> np.random.Generator:
    """Independent generator for unit `index` (replica block, time slice)
    of experiment `label`."""
    tag = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence(seed, spawn_key=(tag, index))
    return np.random.Generator(np.random.Philox(ss))
