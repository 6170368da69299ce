import numpy as np
import pytest

from proplab import GridSpec, SampledField, dft, sup_norm_on_compact


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 8.0, 100)   # not a power of two
    for dim in (2, 3):
        with pytest.raises(ValueError):
            GridSpec(dim, 8.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)


def test_axis_and_cells(grid):
    x = grid.axis()
    assert x[0] == -8.0
    assert abs(x[1] - x[0] - grid.cell) < 1e-15
    assert abs(grid.cell * grid.freq_cell * grid.points - 1.0) < 1e-12


def test_dft_inverts(grid, packet):
    back = dft(dft(packet, -1), +1)
    assert np.max(np.abs(back.values - packet.values)) < 1e-12


def test_dft_parseval(grid, packet):
    spec = dft(packet, -1)
    lhs = np.sum(np.abs(packet.values) ** 2) * grid.cell
    rhs = np.sum(np.abs(spec.values) ** 2) * grid.freq_cell
    assert abs(lhs - rhs) < 1e-12 * lhs


def test_dft_gaussian_fixed_point(grid):
    # exp(-pi x^2) is its own transform in these conventions
    f = SampledField(grid, np.exp(-np.pi * grid.axis()**2))
    spec = dft(f, -1)
    # compare on the shared part of the axes
    xi = grid.freq_axis()
    expected = np.exp(-np.pi * xi**2)
    assert np.max(np.abs(spec.values - expected)) < 1e-12


def test_modulate_then_transform(grid, packet):
    xi0 = 8.0 * grid.freq_cell
    spec0 = dft(packet, -1)
    modulated = SampledField(grid, packet.values * np.exp(2j * np.pi * xi0 * grid.axis()))
    spec1 = dft(modulated, -1)
    assert np.max(np.abs(spec1.values[8:] - spec0.values[:-8])) < 1e-10


def test_sup_norm_on_compact_window(small_grid):
    e1 = np.zeros((small_grid.points,) * 2)
    e2 = e1.copy()
    center = small_grid.points // 2
    e2[center, center] = 3.0   # inside |x|,|y| <= 2
    e2[0, 0] = 100.0           # at the corner, outside the window
    assert sup_norm_on_compact(e2 - e1, small_grid, 2.0) == pytest.approx(3.0)
