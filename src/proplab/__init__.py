"""Numerical laboratory for product-formula propagator approximations.

Quadratic Hamiltonian flows, their metaplectic propagators, Weyl symbol
calculus on periodic grids, short-time-Fourier (modulation norm) analysis,
and the time-sliced product approximation with rough bounded potentials.
"""

from .errors import (ConfigError, EmptyTable, EpsilonTooSmall, NotFree,
                     ProplabError)
from .grid import (GridSpec, KernelMatrix, SampledField, SymbolField, dft,
                   sup_norm_on_compact)
from .symplectic import (PhaseQuadratic, QuadraticHamiltonian,
                         SymplecticBlocks, flow, is_free, phase_form)
from .metaplectic import (FAST_CHIRP_FFT, QUADRATURE, MetaplecticPropagator,
                          build_propagator, mehler_oracle, propagator_for,
                          resolve_phase)
from .tfa import (INF_1, INF_S, StftSpec, default_window, measure_norm_bound,
                  measure_potential_field, mod_norm, sjostrand_decompose, stft,
                  stft_adjoint, wigner)
from .weyl import (conjugate_through_fio, fio_swap_residual,
                   phase_fourier_modes, quantize_modes,
                   symplectic_covariance_residual, weyl_quantize)
from .trotter import (CHIRP, SPECTRAL, TrotterScenario, convergence_report,
                      exceptional_blowup_scan, factor_out_phase,
                      kernel_mod_norm, perturbation_split_report,
                      reference_kernel, time_slice_free_kernel, trotter_kernel)
from .rng import SplitMix64

__version__ = "0.1.0"
