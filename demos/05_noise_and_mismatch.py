"""Noisy and misspecified signals: constrained and regularized recovery.

With measurement noise the signal itself becomes an optimization variable
confined to a ball around the data. A small ridge term on the signal
resolves the scaling ambiguity of the full residual: at convergence the
estimate either vanishes (pure noise) or sits exactly on the ball
boundary. On the grid, the same mechanism yields concentration errors on
par with a least-squares oracle that is told the true fieldmap.
"""

import numpy as np

from csemri import (
    CorruptionSpec,
    EchoSpec,
    FieldmapConstraint,
    FlowConfig,
    build_model,
    corrupt,
    default_phantom_spec,
    generate_phantom,
    load_species,
    make_residual_operator,
    reconstruct_noisy,
    regularized_constrained_flow,
    signal,
)
from csemri.residual import voxelwise_concentrations

HZ_PER_PPM_3T = 3.0 * 42.57747892
species = [
    load_species("water"),
    load_species("fat6", hz_per_ppm=HZ_PER_PPM_3T),
    load_species("silicone", hz_per_ppm=HZ_PER_PPM_3T),
]
model = build_model(species[:2], EchoSpec.uniform_ms(1.238, 0.986, 6))
op = make_residual_operator(model)
rng = np.random.default_rng(7)

# single voxel, 1% noise: the ball constraint absorbs the perturbation
xi0 = 14.0 + 18.0j
c0 = np.array([0.6, 0.4 + 0j])
s0 = signal(xi0, c0, model)
sigma = 0.01 * np.abs(s0).max()
y = s0 + sigma * (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
delta = sigma * np.sqrt(6)
res = regularized_constrained_flow(
    op, y, delta, 1e-3, xi0 + 0.5, FlowConfig(certified=True, max_iters=20_000)
)
print("noisy voxel:")
print(f"  branch = {res.branch}  (|y - s_hat| - delta = "
      f"{abs(np.linalg.norm(y - res.s_hat) - delta):.2e})")
print(f"  xi error {abs(res.xi_hat - xi0):.4f} Hz, c error {np.linalg.norm(res.c_hat - c0):.4f}")

# pure noise with a wide ball: the estimated signal collapses to zero
junk = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
res0 = regularized_constrained_flow(
    op, junk, 1.5 * np.linalg.norm(junk), 1e-2, 1.0 + 0j,
    FlowConfig(step=1e3, max_iters=50_000),
)
print(f"pure-noise voxel: branch = {res0.branch}, |s_hat| = "
      f"{np.linalg.norm(res0.s_hat):.2e}")

# full grid at 1% noise, compared against the fieldmap-aware oracle
model3 = build_model(species, EchoSpec.uniform_ms(1.238, 0.986, 6))
op3 = make_residual_operator(model3)
truth = generate_phantom(default_phantom_spec(), model3)
sigma = 0.01 * float(np.abs(truth.grid.signal).max())
noisy, report = corrupt(truth.grid, CorruptionSpec(sigma=sigma), seed=11)
print(f"\ngrid corruption: sigma = {sigma:.4f}; mean deviation "
      f"{report.empirical[truth.mask].mean():.4f} vs budget "
      f"{report.budget[truth.mask].mean():.4f}")

constraint = FieldmapConstraint.from_mask(truth.mask, 30.0)
res = reconstruct_noisy(
    noisy, model3, constraint, sigma * np.sqrt(6),
    FlowConfig(certified=True, max_iters=250, grad_tol=1e-9),
    truth.xi0_map.copy(), proj_tol=1e-8,
)
mask = truth.mask
c_oracle = voxelwise_concentrations(
    op3, truth.xi0_map.ravel(), noisy.signal.reshape(-1, 6)
).reshape(truth.c0_map.shape)
mse = np.mean(np.abs(res.c_map[mask, :2] - truth.c0_map[mask, :2]) ** 2)
mse_oracle = np.mean(np.abs(c_oracle[mask, :2] - truth.c0_map[mask, :2]) ** 2)
print(f"water/fat MSE: constrained recon {mse:.3e} vs fieldmap-known "
      f"least squares {mse_oracle:.3e} (ratio {mse / mse_oracle:.2f})")

# model mismatch: silicone signal leaks into a water/fat-only model
wf_truth = generate_phantom(default_phantom_spec(), model3)
leak = CorruptionSpec(
    sigma=0.0, mismatch_species=species[2], mismatch_concentration=0.15
)
leaky, rep = corrupt(
    wf_truth.grid, leak, seed=0,
    xi0_map=wf_truth.xi0_map, echo_times_s=model3.echoes.times_s,
)
print(f"\nmismatch injection: max per-voxel budget {rep.budget.max():.3f} "
      f"(equals the injected signal norm plus the noise allowance)")
