import numpy as np
import pytest

from loopsoup.walks import WalkCountTable


@pytest.fixture(scope="session")
def big_walk_table() -> WalkCountTable:
    """Exact walk counts up to length 200 (shared; ~10 s to build)."""
    return WalkCountTable.build(200)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
