"""Mutation audit: each case plants one named mutant in the library, in
process, and runs a shipped preset, or an `oracles` config that lists the
one check meant to kill it, whose lab checks must fail on it.

A mutant that no lab check kills does not belong here: it is a gap in the
gates, not an expected failure."""

import os
import sys

import numpy as np
import pytest

from proplab import SampledField, _kernels, metaplectic, tfa, weyl
from proplab.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def mirrored_toeplitz_product(row, x):
    # the circulant's mirrored half t_{N-1}, ..., t_1 scaled by 1.001
    size = len(row)
    c = np.concatenate((row, [0.0], 1.001 * row[:0:-1]))
    return np.fft.ifft(np.fft.fft(c) * np.fft.fft(x, 2 * size), axis=-1)[..., :size]


def tenth_off_phase(h, t):
    # resolve_phase with 2m + 1.1 in place of 2m + 1: off by exp(-i pi / 40)
    omega = h.a * h.c - h.b * h.b
    m = 0.0
    if omega > 0.0:
        s = abs(t) * np.sqrt(omega) / (2.0 * np.pi)
        m = (np.ceil(s / np.pi) - 1.0) % 4.0
    return np.exp(-0.25j * np.pi * np.sign(h.c * t) * (2.0 * m + 1.1))


MUTANTS = {
    "toeplitz-product-mirrored-half": (_kernels, "toeplitz_product",
                                       mirrored_toeplitz_product),
    "unit-phase-2m+1.1": (metaplectic, "resolve_phase", tenth_off_phase),
    "scale-det-b-0.45": (metaplectic.MetaplecticPropagator, "scale",
                         property(lambda p: p.phase_factor * p.abs_det_b ** -0.45)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_harmonic_kernel_kills(mutant, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(*MUTANTS[mutant])
    code = main(["kernel", "--config", os.path.join(CONFIGS, "harmonic-kernel.ini"),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert "FAILED:" in capsys.readouterr().err


def refine_axis_off(vals, axis, refine=weyl._refine_axis):
    # the Weyl quantizer's 2x refinement of the symbol, scaled by 1.001
    return 1.001 * refine(vals, axis)


def measure_field_off(atoms, grid, field=tfa.measure_potential_field):
    # the potential of an atomic measure, scaled by 1.1
    return SampledField(grid, 1.1 * field(atoms, grid).values)


# each patches the library module's own binding, the one its callers use,
# so it reaches the battery wherever the battery's code lives
ORACLE_MUTANTS = {
    "refine-axis-x1.001": ("oracle-battery.ini", (weyl, "_refine_axis", refine_axis_off)),
    "measure-potential-x1.1": ("measure-bound.ini",
                               (tfa, "measure_potential_field", measure_field_off)),
}


@pytest.mark.parametrize("mutant", sorted(ORACLE_MUTANTS))
def test_oracle_preset_kills(mutant, monkeypatch, tmp_path, capsys):
    preset, patch = ORACLE_MUTANTS[mutant]
    monkeypatch.setattr(*patch)
    code = main(["oracles", "--config", os.path.join(CONFIGS, preset),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert "FAILED: oracles " in capsys.readouterr().err


def patch_every_binding(monkeypatch, module, name, mutant):
    """Replace module.name in every proplab module that binds the same
    object, so the mutant reaches every caller whichever module calls it."""
    original = getattr(module, name)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").split(".")[0] == "proplab"
                and getattr(loaded, name, None) is original):
            monkeypatch.setattr(loaded, name, mutant)


def windows_rolled(spec, windows=tfa._lattice_windows):
    # every lattice window shifted by one sample
    return np.roll(windows(spec), 1, axis=1)


def test_window_shift_killed_by_stft_direct(monkeypatch, tmp_path, capsys):
    # the shifted windows also synthesize, so stft_inversion cannot see them
    patch_every_binding(monkeypatch, tfa, "_lattice_windows", windows_rolled)
    cfg = tmp_path / "stft.ini"
    cfg.write_text("[experiment]\nkind = oracles\nseed = 1\n"
                   "[oracles]\nchecks = stft_inversion,stft_direct\n")
    assert main(["oracles", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "FAILED: oracles " in err and "stft_direct" in err
    assert "stft_inversion" not in err


def test_halved_adjoint_constant_killed_by_decomposition(monkeypatch, tmp_path, capsys):
    # C_g x 0.5 doubles each split's budget, so the rough part overshoots eps
    def halved(spec, constant=tfa.cross_ambiguity_l1):
        return 0.5 * constant(spec)

    patch_every_binding(monkeypatch, tfa, "cross_ambiguity_l1", halved)
    code = main(["perturb", "--config", os.path.join(CONFIGS, "decomposition-pinned.ini"),
                 "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert "||f2|| = 2.0877e-01 exceeds eps 0.2" in capsys.readouterr().err
