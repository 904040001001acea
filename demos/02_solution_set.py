"""Which parameter pairs explain the same signal: lattices and swaps.

Two fieldmap values produce identical signals exactly when their
difference eta makes [W(eta) Phi, Phi] rank-deficient. For commensurable
echo times that zero set is computed exactly from polynomial roots, and
each zero is classified: either every aliased solution keeps the true
concentrations (a harmless fieldmap ambiguity on a lattice) or swapped
concentrations become possible.
"""

import numpy as np

from csemri import (
    EchoSpec,
    build_model,
    delta_zero_set,
    fieldmap_lattice,
    load_species,
    rationalize_echoes,
    signal,
    swap_concentrations,
    weighting_diag,
)

HZ_PER_PPM_3T = 3.0 * 42.57747892
water = load_species("water")
fat = load_species("fat6", hz_per_ppm=HZ_PER_PPM_3T)

# the echo family t_k = 1.3 + 1.05 k (ms): all times share a 0.05 ms grain
for n_e in (4, 6, 8):
    echoes = EchoSpec.uniform_ms(1.3, 1.05, n_e)
    period = fieldmap_lattice(rationalize_echoes(echoes))
    print(f"{n_e} echoes: lattice spacing {period:.1f} Hz")

# the full zero set in a +-1.1 kHz band is identical for every echo count
model = build_model([water, fat], EchoSpec.uniform_ms(1.3, 1.05, 6))
zero_set = delta_zero_set(model, search_band_hz=(-1100.0, 1100.0))
print("\nzero set of sigma_min(Delta(eta)):")
for z in zero_set.zeros:
    print(f"  eta = {z.eta_hz:10.3f} Hz  kernel dim {z.kernel_dim}  {z.classification}")

# demonstrate a swap: at eta = 1/spacing every echo phasor picks up the
# same unit factor, so scaled concentrations explain the shifted signal
swap = next(z for z in zero_set.zeros if not z.exact_recovery)
rng = np.random.default_rng(1)
c0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
c_swapped = swap_concentrations(swap, c0)
w = weighting_diag(swap.eta_hz, model.times)
alias = np.linalg.norm(w * (model.phi @ c_swapped) - model.phi @ c0)
print(f"\nat eta = {swap.eta_hz:.3f} Hz the swapped concentrations")
print(f"  c0      = {np.array_str(c0, precision=3)}")
print(f"  c_swap  = {np.array_str(c_swapped, precision=3)}")
print(f"explain the same signal to {alias:.2e}, yet |c_swap - c0| = "
      f"{np.linalg.norm(c_swapped - c0):.3f}")

# at a lattice point the aliased solution keeps the concentrations exactly
exact = next(z for z in zero_set.zeros if z.exact_recovery)
xi0 = 7.0 + 20.0j
s0 = signal(xi0, c0, model)
s_alias = signal(xi0 + exact.eta_hz + zero_set.w_period_hz, c0, model)
print(f"\nshifting the fieldmap by the full period changes the signal by "
      f"{np.linalg.norm(s_alias - s0):.2e}: concentrations stay identifiable")
