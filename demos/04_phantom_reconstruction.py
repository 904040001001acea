"""Image reconstruction under gradient bounds: concentrations survive
fieldmap ambiguity.

The per-voxel residuals are summed over a phantom grid and minimized by
projected Wirtinger descent under the convex constraint that the fieldmap
gradient stays below a per-voxel bound. The headline property: even when
whole regions converge to a fieldmap that is off by a lattice period, the
recovered concentrations and decay rates match the truth exactly.
"""

import numpy as np
from scipy import ndimage

from csemri import (
    EchoSpec,
    FieldmapConstraint,
    FlowConfig,
    build_model,
    default_phantom_spec,
    fieldmap_lattice,
    generate_phantom,
    load_species,
    metrics_table,
    pdff_map,
    rationalize_echoes,
    reconstruct,
    separation_check,
)

HZ_PER_PPM_3T = 3.0 * 42.57747892
model = build_model(
    [
        load_species("water"),
        load_species("fat6", hz_per_ppm=HZ_PER_PPM_3T),
        load_species("silicone", hz_per_ppm=HZ_PER_PPM_3T),
    ],
    EchoSpec.uniform_ms(1.238, 0.986, 6),
)

truth = generate_phantom(default_phantom_spec(), model)
print(f"phantom: 64x64, {int(truth.mask.sum())} signal voxels, "
      f"fieldmap range [{truth.fieldmap.min():.1f}, {truth.fieldmap.max():.1f}] Hz")

period = fieldmap_lattice(rationalize_echoes(model.echoes))
print(f"fieldmap solution lattice spacing: {period:.0f} Hz")

# initialize half of the vials one lattice period away from the truth
labels, n_regions = ndimage.label(truth.mask)
shift = np.zeros(truth.mask.shape)
for r in range(1, n_regions + 1):
    region = labels == r
    if np.mean(np.nonzero(region)[1]) < truth.mask.shape[1] / 2:
        shift[region] = period

constraint = FieldmapConstraint.from_mask(truth.mask, 30.0)
res = reconstruct(
    truth.grid, model, constraint,
    FlowConfig(certified=True, max_iters=100),
    truth.xi0_map + shift,
)
print(f"\nreconstruction finished after {res.iterations} iterations "
      f"(constraint violation {res.constraint_violation:.1e})")

mask = truth.mask
print(f"max concentration error on the mask: "
      f"{np.abs(res.c_map[mask] - truth.c0_map[mask]).max():.2e}")
print(f"max r2* error on the mask: "
      f"{np.abs(np.imag(res.xi_map - truth.xi0_map))[mask].max():.2e} Hz")

report = separation_check(res.xi_map, truth.xi0_map, period, tol=1e-3, mask=mask)
print(f"fieldmap offsets constant per vial: {report.offsets_constant_per_region}")
print(f"per-vial lattice indices: {report.region_offsets}")
print("(the shifted vials stay a full period away, yet every concentration "
      "and decay value is exact)")

table = metrics_table(
    {
        "water": truth.c0_map[..., 0],
        "fat": truth.c0_map[..., 1],
        "silicone": truth.c0_map[..., 2],
        "r2star": truth.r2star,
        "fieldmap": truth.fieldmap,
    },
    {
        "water": res.c_map[..., 0],
        "fat": res.c_map[..., 1],
        "silicone": res.c_map[..., 2],
        "r2star": np.imag(res.xi_map),
        "fieldmap": np.real(res.xi_map),
    },
)
print("\nerror metrics (note the fieldmap row: wrong by design, harmlessly):")
print(f"{'map':10s} {'MSE':>12s} {'SNR dB':>8s} {'PSNR dB':>8s}")
for name, row in table.items():
    print(f"{name:10s} {row['mse']:12.3e} {row['snr_db']:8.2f} {row['psnr_db']:8.2f}")

pdff = pdff_map(res.c_map, water_idx=0, fat_idx=1)
vals = pdff[mask & np.isfinite(pdff)]
print(f"\nPDFF over the vials spans {np.nanmin(vals):.1f}% .. {np.nanmax(vals):.1f}%")
