import tracemalloc

import numpy as np
import pytest

from proplab import GridSpec, SampledField


@pytest.fixture
def grid():
    # N = 4 L^2 so the frequency axis coincides with the spatial axis;
    # several lattice identities (covariance, quarter rotations) need that
    return GridSpec(1, 8.0, 256)


@pytest.fixture
def small_grid():
    return GridSpec(1, 6.0, 128)


@pytest.fixture
def packet(grid):
    x = grid.axis()
    vals = np.exp(-np.pi * (x - 0.3) ** 2) * np.exp(2j * np.pi * 0.7 * x)
    return SampledField(grid, vals)


@pytest.fixture
def traced_peak():
    """The peak of the memory numpy and python trace while fn() runs, in MiB."""
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peak
