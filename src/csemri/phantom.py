"""In-silico phantom generation and signal corruption.

A phantom is a set of geometric shapes carrying species concentrations,
plus smooth scalar fields for the fieldmap and the decay rate. The forward
signal is evaluated exactly per voxel, and corruption adds circularly
symmetric complex Gaussian noise and, optionally, the signal of a species
missing from the reconstruction model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, sqrt

import numpy as np

from .errors import SpecError
from .imaging import ImageGrid
from .species import Species, weighting_diag

__all__ = [
    "Shape",
    "FieldSpec",
    "PhantomSpec",
    "PhantomTruth",
    "CorruptionSpec",
    "CorruptionReport",
    "generate_phantom",
    "corrupt",
    "default_phantom_spec",
]


@dataclass(frozen=True)
class Shape:
    """A disk of ``radius`` pixels around ``center`` (x, y) contributing one
    species' concentration.

    Overlapping disks add their concentrations, so a water/fat mixture is
    two co-located disks. ``r2star_hz`` optionally overrides the decay
    field inside the disk (later shapes win).
    """

    center: tuple[float, float]
    radius: float
    species_index: int
    concentration: complex
    r2star_hz: float | None = None

    def rasterize(self, height, width):
        yy, xx = np.mgrid[0:height, 0:width]
        cx, cy = self.center
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= float(self.radius) ** 2


@dataclass(frozen=True)
class FieldSpec:
    """Smooth scalar field ``offset + amplitude exp(-d^2 / (2 sigma^2))`` on the
    pixel grid, ``d`` the distance in pixels to the grid's center.

    ``FieldSpec(offset)`` is the constant field: with ``amplitude = 0`` and
    the infinite default ``sigma`` the bump is exactly 0 everywhere.
    """

    offset: float
    amplitude: float = 0.0
    sigma: float = inf

    def evaluate(self, height, width):
        yy, xx = np.mgrid[0:height, 0:width].astype(float)
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        return float(self.offset) + float(self.amplitude) * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * float(self.sigma) ** 2)
        )


@dataclass(frozen=True)
class PhantomSpec:
    width: int
    height: int
    shapes: tuple[Shape, ...]
    fieldmap: FieldSpec
    r2star: FieldSpec

    def __post_init__(self):
        if min(self.width, self.height) < 1:
            raise SpecError(f"phantom size must be positive, got {self.width} x {self.height}")


@dataclass(frozen=True)
class PhantomTruth:
    """Ground-truth maps plus the simulated acquisition ``grid``."""

    c0_map: np.ndarray = field(repr=False)  # (h, w, n_s) complex
    xi0_map: np.ndarray = field(repr=False)  # (h, w) complex
    mask: np.ndarray = field(repr=False)  # (h, w) bool: nonzero truth concentrations
    grid: ImageGrid

    @property
    def fieldmap(self):
        return np.real(self.xi0_map)

    @property
    def r2star(self):
        return np.imag(self.xi0_map)


def generate_phantom(spec, model):
    """Rasterize the phantom and evaluate the forward signal per voxel."""
    h, w = spec.height, spec.width
    c0 = np.zeros((h, w, model.n_s), dtype=complex)
    r2 = spec.r2star.evaluate(h, w).astype(float)
    for shape in spec.shapes:
        if not 0 <= shape.species_index < model.n_s:
            raise SpecError(
                f"species index {shape.species_index} out of range for n_s={model.n_s}"
            )
        if not np.isfinite(shape.concentration):
            raise SpecError("shape concentration must be finite")
        inside = shape.rasterize(h, w)
        c0[inside, shape.species_index] += shape.concentration
        if shape.r2star_hz is not None:
            r2[inside] = float(shape.r2star_hz)
    if np.any(r2 < 0):
        raise SpecError("r2* field must be nonnegative everywhere")
    xi0 = spec.fieldmap.evaluate(h, w) + 1j * r2
    mask = np.linalg.norm(c0, axis=2) > 0
    sig = weighting_diag(xi0, model.times) * (c0 @ model.phi.T)
    return PhantomTruth(c0_map=c0, xi0_map=xi0, mask=mask, grid=ImageGrid(sig))


@dataclass(frozen=True)
class CorruptionSpec:
    """Additive complex Gaussian noise plus optional model mismatch.

    ``sigma`` is the standard deviation of a unit-variance circularly
    symmetric complex Gaussian per echo (so E||noise||^2 = sigma^2 n_e),
    finite and nonnegative.
    The mismatch term adds ``W(xi0) phi_M(t) c_M`` per voxel for a species
    absent from the reconstruction model.
    """

    sigma: float
    mismatch_species: Species | None = None
    mismatch_concentration: np.ndarray | complex | None = None

    def __post_init__(self):
        if not 0.0 <= self.sigma < inf:  # NaN fails too
            raise SpecError(f"noise level sigma must be nonnegative and finite, got {self.sigma}")
        if (self.mismatch_species is None) != (self.mismatch_concentration is None):
            raise SpecError("mismatch needs both a species and a concentration field")


@dataclass(frozen=True)
class CorruptionReport:
    """Per-voxel expected-deviation budget ||W phi_M c_M|| + sigma sqrt(n_e)."""

    budget: np.ndarray = field(repr=False)
    empirical: np.ndarray = field(repr=False)


def corrupt(grid, corruption, seed, xi0_map=None, echo_times_s=None):
    """Apply the corruption model; deterministic for a fixed seed.

    Returns the corrupted :class:`ImageGrid` (its signal alone) and the report.
    """
    y = grid.signal.copy()
    h, w, n_e = y.shape
    budget = np.zeros((h, w))
    if corruption.mismatch_species is not None:
        if xi0_map is None or echo_times_s is None:
            raise SpecError("model mismatch needs the true xi map and the echo times")
        t = np.asarray(echo_times_s, dtype=float)
        phi_m = corruption.mismatch_species.evaluate(t)
        c_m = np.broadcast_to(np.asarray(corruption.mismatch_concentration), (h, w))
        extra = weighting_diag(xi0_map, t) * phi_m[None, None, :] * c_m[..., None]
        y = y + extra
        budget += np.linalg.norm(extra, axis=2)
    if corruption.sigma > 0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((h, w, n_e)) + 1j * rng.standard_normal((h, w, n_e))
        y = y + corruption.sigma * noise / sqrt(2.0)
        budget += corruption.sigma * sqrt(n_e)
    report = CorruptionReport(budget=budget, empirical=np.linalg.norm(y - grid.signal, axis=2))
    return ImageGrid(y), report


def default_phantom_spec(width=64, height=64, fieldmap_amplitude_hz=20.0):
    """Twelve-vial layout: pure water, fat and silicone plus nine water/fat
    mixtures at 10..90% fat fraction, on a Gaussian-bump fieldmap with
    region-wise constant decay. Species order is (water, fat, silicone)."""
    xs = (10.0, 24.0, 40.0, 54.0)
    ys = (11.0, 32.0, 53.0)
    centers = [(x, y) for y in ys for x in xs]
    radius = 6.0
    shapes = [
        Shape(centers[0], radius, 0, 1.0, r2star_hz=30.0),
        Shape(centers[1], radius, 1, 1.0, r2star_hz=45.0),
        Shape(centers[2], radius, 2, 1.0, r2star_hz=20.0),
    ]
    fractions = np.linspace(0.1, 0.9, 9)
    decays = np.linspace(12.0, 36.0, 9)
    for k, (frac, dec) in enumerate(zip(fractions, decays)):
        center = centers[3 + k]
        shapes.append(Shape(center, radius, 0, 1.0 - frac, r2star_hz=float(dec)))
        shapes.append(Shape(center, radius, 1, float(frac)))
    return PhantomSpec(
        width=width,
        height=height,
        shapes=tuple(shapes),
        fieldmap=FieldSpec(-5.0, amplitude=float(fieldmap_amplitude_hz), sigma=22.0),
        r2star=FieldSpec(8.0),
    )
