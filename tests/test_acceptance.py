"""Acceptance gate: every numbered check maps to one preset config in
configs/ and runs through the same code path as the command line tool.

Each test below is one pass/fail line in the verbose run; the assertion
message carries the measured numbers when a check fails.
"""

import os
import time

from proplab.cli import RUNNERS, Config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_preset(name, kind, budget=None):
    cfg = Config(os.path.join(CONFIG_DIR, name))
    t0 = time.perf_counter()
    header, rows, plot, failures = RUNNERS[kind](cfg)
    elapsed = time.perf_counter() - t0
    assert failures == [], f"{name}: " + "; ".join(failures)
    assert set(plot["y"]) <= set(header), f"{name}: plots {plot['y']} of {header}"
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s (budget {budget}s)"


def test_criterion_01_symplectic_suite():
    # 200 random flows: symplectic/group-law/inverse defects, under 10 s
    run_preset("flow-random-suite.ini", "flow", budget=10.0)


def test_criterion_02_free_particle_oracle():
    # kernel at t = 1 on N = 1024 vs the analytic chirp, 1e-3 on |x| <= 6
    run_preset("free-kernel.ini", "kernel", budget=30.0)


def test_criterion_03_mehler_consistency():
    # two independent code paths agree to 1e-6; sup |kernel| = |sin t|^{-1/2}
    run_preset("harmonic-kernel.ini", "kernel")


def test_criterion_04_zero_potential_collapse():
    # V = 0: every step count reproduces one kernel to 1e-12
    run_preset("zero-potential-collapse.ini", "converge")


def test_criterion_05_kernel_convergence():
    # sup-compact error strictly decreasing, final within 5x the reference
    # Cauchy tag, windowed spectral errors decreasing at all nine centers
    run_preset("harmonic-cos-t1.ini", "converge", budget=300.0)


def test_criterion_06_mod_norm_boundedness():
    # phase-factored kernel norms over n in 1..256: max/min <= 3
    run_preset("modbound-harmonic-cos.ini", "modbound")


def test_criterion_07_exceptional_blowup():
    # sup |kernel| tracks |det B|^{-1/2} to 1% approaching t* = pi
    run_preset("exceptional-harmonic.ini", "exceptional")


def test_criterion_08_cross_module_oracles():
    # STFT inversion 1e-8, Wigner duality 1e-6, covariance and operator-swap
    # residuals 1e-3, all at N = 256
    run_preset("oracle-battery.ini", "oracles")


def test_criterion_09_decomposition_budget():
    # two-cosine potential: rough part under every budget, low band localized
    run_preset("decomposition-pinned.ini", "perturb")


def test_criterion_10_perturbation_linearity():
    # remainder norm vs budget: log-log slope within 1 +- 0.2
    run_preset("perturb-geometric.ini", "perturb")


def test_criterion_11_measure_potential_bound():
    # norm estimate <= 1.05 x total-variation bound for 10 random atom sets
    run_preset("measure-bound.ini", "oracles")


def test_criterion_12_free_slice_cross_check():
    # direct path quadrature equals the product kernel to 1e-8 for n <= 8
    run_preset("freeslice-cos.ini", "freeslice")
