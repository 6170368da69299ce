import numpy as np
import pytest

from proplab import (GridSpec, KernelMatrix, OffGrid, SampledField, dft,
                     delta_field, field_from_function, kernel_of_operator,
                     modulate, sup_norm_on_compact, translate)


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
    assert abs(x[1] - x[0] - grid.spacing) < 1e-15
    assert abs(grid.cell * grid.freq_cell * grid.points_per_axis - 1.0) < 1e-12


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
    f = field_from_function(grid, lambda x: np.exp(-np.pi * x**2))
    spec = dft(f, -1)
    # compare on the shared part of the axes
    xi = grid.freq_axis()
    expected = np.exp(-np.pi * xi**2)
    assert np.max(np.abs(spec.values - expected)) < 1e-12


def test_translate_on_grid(grid, packet):
    shifted = translate(packet, 4.0 * grid.spacing)
    assert np.allclose(shifted.values[4:], packet.values[:-4])
    assert np.max(np.abs(shifted.values[:4])) == 0.0
    for k in (-300, 300):   # beyond the box: zero fill leaves nothing
        assert not np.any(translate(packet, k * grid.spacing).values)
    with pytest.raises(OffGrid):
        translate(packet, 0.3 * grid.spacing)


def test_modulate_then_transform(grid, packet):
    xi0 = 8.0 * grid.freq_spacing
    spec0 = dft(packet, -1)
    spec1 = dft(modulate(packet, xi0), -1)
    assert np.max(np.abs(spec1.values[8:] - spec0.values[:-8])) < 1e-10


def test_kernel_of_operator_matches_matrix(small_grid):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(small_grid.size, small_grid.size)) \
        + 1j * rng.normal(size=(small_grid.size, small_grid.size))

    def apply_op(f):
        return SampledField(small_grid, m @ f.values)

    k = kernel_of_operator(apply_op, small_grid)
    f = SampledField(small_grid, rng.normal(size=small_grid.size))
    out = k.apply(f)
    assert np.max(np.abs(out.values - m @ f.values)) < 1e-10


def test_delta_field_reproduces_columns(small_grid):
    d = delta_field(small_grid, 17)
    assert abs(d.values[17] - 1.0 / small_grid.cell) < 1e-12
    assert np.sum(np.abs(d.values)) * small_grid.cell == pytest.approx(1.0)


def test_compose_is_matrix_product_with_weight(small_grid):
    rng = np.random.default_rng(6)
    a = KernelMatrix(small_grid, rng.normal(size=(small_grid.size,) * 2))
    b = KernelMatrix(small_grid, rng.normal(size=(small_grid.size,) * 2))
    f = SampledField(small_grid, rng.normal(size=small_grid.size))
    lhs = a.compose(b).apply(f)
    rhs = a.apply(b.apply(f))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9


def test_sup_norm_on_compact_window(small_grid):
    e1 = np.zeros((small_grid.size,) * 2)
    e2 = e1.copy()
    center = small_grid.size // 2
    e2[center, center] = 3.0   # inside |x|,|y| <= 2
    e2[0, 0] = 100.0           # at the corner, outside the window
    diff = sup_norm_on_compact(KernelMatrix(small_grid, e1),
                               KernelMatrix(small_grid, e2), 2.0)
    assert diff == pytest.approx(3.0)
