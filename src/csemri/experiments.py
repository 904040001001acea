"""Experiment drivers emitting CSV/JSON artifacts for external plotting.

Two studies are packaged: the solution-set scan (weighting-matrix error
and smallest singular value of the stacked matrix over a fieldmap band,
with classified zeros) and the per-voxel curvature study (Q profiles,
half-reduction radii and the certified radius maps over a phantom).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import SpecError
from .lattice import (
    delta_zero_set,
    fieldmap_lattice,
    rationalize_echoes,
    sigma_min_profile,
    weighting_error_profile,
)
from .residual import make_residual_operator
from .solver import RHO, curvature_profile, radius_empirical_from_profile, radius_lambert, radius_tight
from .species import EchoSpec, build_model

__all__ = [
    "experiment_solution_set",
    "experiment_curvature",
    "write_matrix_csv",
    "zero_set_record",
]

# the solution-set scan; ``csemri analyze`` defaults to its band and grid step
FIRST_ECHO_MS = 1.3
ECHO_SPACING_MS = 1.05
ECHO_COUNTS = (4, 6, 7, 8)
BAND_HZ = (-1100.0, 1100.0)
GRID_STEP_HZ = 0.25
# the curvature study, at the certified step's margin RHO
RADII_HZ = np.geomspace(0.5, 120.0, 18)
ANGULAR_SAMPLES = 16


def write_matrix_csv(path, matrix, header=None):
    """CSV of a real matrix, one row per line, each value as ``%.12g``.

    The body is formatted one row at a time from Python floats; numbers
    never need quoting, so it equals what ``csv.writer`` writes.
    """
    rows = np.atleast_2d(np.asarray(matrix)).tolist()
    with open(path, "w", newline="") as fh:
        if header:
            csv.writer(fh).writerow(header)
        if rows:
            line = ",".join(["%.12g"] * len(rows[0])) + "\r\n"
            fh.writelines(line % tuple(row) for row in rows)
    return Path(path)


def _finite_or_none(x):
    return x if np.isfinite(x) else None


def zero_set_record(zero_set):
    """JSON-ready Delta zero set: the W period (None when infinite) and the
    classified zeros with their swap phases."""
    return {
        "w_period_hz": _finite_or_none(zero_set.w_period_hz),
        "zeros": [
            {
                "eta_hz": z.eta_hz,
                "sigma_min": z.sigma_min,
                "kernel_dim": z.kernel_dim,
                "classification": z.classification,
                "phases": [[p.real, p.imag] for p in z.swap_phases]
                if z.swap_phases is not None
                else None,
            }
            for z in zero_set.zeros
        ],
    }


def experiment_solution_set(species, out_dir):
    """Scan the weighting error and sigma_min(Delta) over ``BAND_HZ`` at ``GRID_STEP_HZ``.

    Writes, per echo count in ``ECHO_COUNTS`` (echoes from ``FIRST_ECHO_MS``
    every ``ECHO_SPACING_MS``): ``w_error_ne{n}.csv`` (phi_hz, frobenius error
    of I - W(phi)), ``sigma_min_ne{n}.csv`` (eta_hz, sigma_min) and
    ``zeros_ne{n}.json`` (classified zero set). Echo counts below
    ``2 n_s``, where the zero-set search does not apply, are skipped and
    listed in ``solution_set.json``. Returns the artifact paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.arange(BAND_HZ[0], BAND_HZ[1] + GRID_STEP_HZ / 2, GRID_STEP_HZ)
    min_echoes = 2 * len(species)
    scanned = [n for n in ECHO_COUNTS if n >= min_echoes]
    path = out_dir / "solution_set.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "echo_counts": scanned,
                "skipped_echo_counts": [n for n in ECHO_COUNTS if n < min_echoes],
                "min_echo_count": min_echoes,
            },
            fh,
            indent=1,
        )
    artifacts = [path]
    for n in scanned:
        echoes = EchoSpec.uniform_ms(FIRST_ECHO_MS, ECHO_SPACING_MS, n)
        model = build_model(species, echoes)
        w_err = weighting_error_profile(grid, np.ones(n), echoes.array())
        artifacts.append(
            write_matrix_csv(
                out_dir / f"w_error_ne{n}.csv",
                np.column_stack([grid, w_err]),
                header=("phi_hz", "frobenius_error"),
            )
        )
        smin = sigma_min_profile(model, grid)
        artifacts.append(
            write_matrix_csv(
                out_dir / f"sigma_min_ne{n}.csv",
                np.column_stack([grid, smin]),
                header=("eta_hz", "sigma_min"),
            )
        )
        payload = {
            "lattice_period_hz": _finite_or_none(fieldmap_lattice(rationalize_echoes(echoes))),
            **zero_set_record(delta_zero_set(model, search_band_hz=BAND_HZ)),
        }
        path = out_dir / f"zeros_ne{n}.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
        artifacts.append(path)
    return artifacts


def experiment_curvature(truth, model, out_dir, stride=1):
    """Per-voxel curvature study over every ``stride``-th masked phantom voxel.

    Emits ``q_profiles.csv`` (x, y, radius_hz, q) over ``RADII_HZ``, plus the
    Lambert and tight radius maps at ``RHO`` and the 50%-reduction radius map
    as CSV matrices (off-mask entries are NaN), searching each circle from
    ``ANGULAR_SAMPLES`` angles. Returns the artifact paths. A phantom with no
    masked voxel raises :class:`SpecError` before anything is written.
    """
    if not np.any(truth.mask):
        raise SpecError("the phantom mask selects no voxel")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    op = make_residual_operator(model)
    h, w = truth.mask.shape
    lam_map = np.full((h, w), np.nan)
    tight_map = np.full((h, w), np.nan)
    half_map = np.full((h, w), np.nan)
    rows = []
    ys, xs = np.nonzero(truth.mask)
    for i, j in zip(ys[::stride], xs[::stride]):
        xi0 = truth.xi0_map[i, j]
        s0 = truth.grid.signal[i, j]
        lam_map[i, j] = radius_lambert(op, xi0, s0, RHO)
        tight_map[i, j] = radius_tight(op, xi0, s0, RHO, angular_samples=ANGULAR_SAMPLES)
        prof = curvature_profile(op, xi0, s0, RADII_HZ, angular_samples=ANGULAR_SAMPLES)
        half_map[i, j] = radius_empirical_from_profile(prof, level=0.5)
        for r, q in prof:
            rows.append((j, i, r, q))
    artifacts = [
        write_matrix_csv(out_dir / "q_profiles.csv", rows, header=("x", "y", "radius_hz", "q")),
        write_matrix_csv(out_dir / "radius_lambert_map.csv", lam_map),
        write_matrix_csv(out_dir / "radius_tight_map.csv", tight_map),
        write_matrix_csv(out_dir / "radius_half_reduction_map.csv", half_map),
    ]
    summary = {
        "rho": RHO,
        "max_radius_lambert_hz": float(np.nanmax(lam_map)),
        "max_radius_tight_hz": float(np.nanmax(tight_map)),
        "empirical_band_hz": [
            float(np.nanmin(half_map)),
            float(np.nanmax(half_map[np.isfinite(half_map)], initial=0.0)),
        ],
    }
    path = out_dir / "curvature_summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    artifacts.append(path)
    return artifacts
