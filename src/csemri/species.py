"""Species spectra, echo schedules, and the multi-peak forward signal model.

The signal of a voxel containing ``n_s`` chemical species with complex
concentrations ``c`` sampled at echo times ``t_1 < ... < t_{n_e}`` is

    s_k = exp(2*pi*i*xi*t_k) * sum_l c_l * phi_l(t_k)

where ``phi_l(t) = sum_p w_{l,p} exp(2*pi*i*df_p*t)`` is the known spectrum
of species ``l`` (peak offsets ``df_p`` in Hz relative to water, nonnegative
weights summing to one) and ``xi = fieldmap + i*r2star`` collects the two
per-voxel nuisance parameters, both in Hz.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from math import comb

import numpy as np

from .errors import CombinatorialLimit, DimensionError, InvalidSpecies

__all__ = [
    "SpectralPeak",
    "Species",
    "EchoSpec",
    "AcquisitionModel",
    "build_model",
    "weighting_diag",
    "signal",
    "check_submatrices_nonsingular",
    "check_J_full_rank",
    "load_species",
    "species_from_dict",
    "PRESET_NAMES",
]

WEIGHT_SUM_TOL = 1e-12
MAX_SELECTIONS = 10**6  # guard on the row selections check_submatrices_nonsingular scans
RANK_TOL = 1e-10  # relative singular value or determinant below which a matrix counts as singular

# Bundled presets (see data/*.json). Peak positions are stored in ppm
# relative to water and require a field-strength factor (Hz per ppm) to
# become frequencies; water is the 0 Hz reference and needs none.
PRESET_NAMES = ("water", "fat6", "silicone")


@dataclass(frozen=True)
class SpectralPeak:
    """One resonance line: offset relative to water (Hz) and its weight."""

    frequency_hz: float
    weight: float

    def __post_init__(self):
        if not np.isfinite(self.frequency_hz):
            raise InvalidSpecies(f"peak frequency must be finite, got {self.frequency_hz}")
        if not (self.weight >= 0.0):
            raise InvalidSpecies(f"peak weight must be nonnegative, got {self.weight}")


@dataclass(frozen=True)
class Species:
    """A chemical species as a finite sum of weighted resonance peaks.

    Peak offsets are in Hz; a species tabulated in ppm is converted when it
    is read (:func:`species_from_dict`). Weights must sum to one within
    ``1e-12``; use :meth:`normalized` to rescale tabulated amplitudes that
    are only approximately normalized.
    """

    name: str
    peaks: tuple[SpectralPeak, ...]

    def __post_init__(self):
        if len(self.peaks) == 0:
            raise InvalidSpecies(f"species {self.name!r} has no peaks")
        object.__setattr__(self, "peaks", tuple(self.peaks))
        total = sum(p.weight for p in self.peaks)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidSpecies(
                f"species {self.name!r} weights sum to {total!r}, expected 1.0"
            )

    @classmethod
    def normalized(cls, name, frequencies_hz, weights):
        """Build a species, rescaling ``weights`` to sum exactly to one."""
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise InvalidSpecies(f"species {name!r} has negative weights")
        total = w.sum()
        if total <= 0:
            raise InvalidSpecies(f"species {name!r} has zero total weight")
        w = w / total
        w[-1] = 1.0 - w[:-1].sum()  # pin the rounding residue on one peak
        peaks = tuple(
            SpectralPeak(float(f), float(wi)) for f, wi in zip(frequencies_hz, w, strict=True)
        )
        return cls(name, peaks)

    @classmethod
    def single_peak(cls, name, frequency_hz=0.0):
        return cls(name, (SpectralPeak(float(frequency_hz), 1.0),))

    def evaluate(self, times_s):
        """Spectrum phi(t) = sum_p w_p exp(2*pi*i*df_p*t) at times in seconds."""
        t = np.asarray(times_s, dtype=float)
        freqs = np.array([p.frequency_hz for p in self.peaks])
        weights = np.array([p.weight for p in self.peaks])
        return np.exp(2j * np.pi * np.multiply.outer(t, freqs)) @ weights


def species_from_dict(doc, hz_per_ppm=None):
    """Build a :class:`Species` from a preset-style dict.

    Each peak carries either ``hz`` or ``ppm``; ppm entries require
    ``hz_per_ppm`` (field-strength dependent, e.g. 127.73 Hz/ppm at 3 T).
    """
    peaks_hz = []
    weights = []
    for peak in doc["peaks"]:
        if "hz" in peak:
            peaks_hz.append(float(peak["hz"]))
        elif "ppm" in peak:
            if hz_per_ppm is None:
                raise InvalidSpecies(
                    f"species {doc.get('name')!r} is defined in ppm; hz_per_ppm is required"
                )
            peaks_hz.append(float(peak["ppm"]) * float(hz_per_ppm))
        else:
            raise InvalidSpecies("each peak needs an 'hz' or 'ppm' entry")
        weights.append(float(peak["weight"]))
    return Species.normalized(str(doc["name"]), peaks_hz, weights)


def load_species(name, hz_per_ppm=None):
    """Load a bundled species preset (``water``, ``fat6`` or ``silicone``)."""
    if name not in PRESET_NAMES:
        raise InvalidSpecies(f"unknown species preset {name!r}; have {PRESET_NAMES}")
    text = resources.files("csemri.data").joinpath(f"{name}.json").read_text()
    return species_from_dict(json.loads(text), hz_per_ppm=hz_per_ppm)


@dataclass(frozen=True)
class EchoSpec:
    """Echo times in seconds, strictly increasing and positive."""

    times_s: tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(x) for x in self.times_s)
        if len(t) == 0:
            raise DimensionError("echo spec needs at least one echo time")
        if t[0] <= 0.0 or any(b <= a for a, b in zip(t, t[1:])):
            raise DimensionError(f"echo times must be positive and strictly increasing: {t}")
        object.__setattr__(self, "times_s", t)

    @classmethod
    def from_ms(cls, times_ms):
        return cls(tuple(1e-3 * float(x) for x in times_ms))

    @classmethod
    def uniform_ms(cls, first_ms, spacing_ms, n_echoes):
        return cls.from_ms([first_ms + spacing_ms * k for k in range(n_echoes)])

    def array(self):
        return np.asarray(self.times_s, dtype=float)


@dataclass(frozen=True)
class AcquisitionModel:
    """Echo schedule, species list, model matrix and echo-time diagonal.

    ``phi`` is the ``n_e x n_s`` matrix with entries ``phi_l(t_k)``;
    ``times`` holds the echo times, i.e. the diagonal of ``T``.
    """

    echoes: EchoSpec
    species: tuple[Species, ...]
    phi: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_e < self.n_s:
            raise DimensionError(
                f"need at least as many echoes as species: n_e={self.n_e} < n_s={self.n_s}"
            )
        if not np.all(np.isfinite(self.phi)):
            raise InvalidSpecies("model matrix has non-finite entries")
        self.phi.setflags(write=False)
        self.times.setflags(write=False)

    @property
    def n_e(self):
        return self.phi.shape[0]

    @property
    def n_s(self):
        return self.phi.shape[1]


def build_model(species, echoes):
    """Assemble the acquisition model for the given species and echoes."""
    species = tuple(species)
    if len(species) == 0:
        raise InvalidSpecies("need at least one species")
    t = echoes.array()
    if len(t) < len(species):
        raise DimensionError(
            f"need at least as many echoes as species: n_e={len(t)} < n_s={len(species)}"
        )
    phi = np.column_stack([sp.evaluate(t) for sp in species]).astype(np.complex128)
    return AcquisitionModel(echoes=echoes, species=species, phi=phi, times=t.copy())


def weighting_diag(xi, times_s):
    """Diagonal entries exp(2*pi*i*xi*t_k) of the weighting matrix, broadcast over
    an array ``xi`` with the echo axis last; a scalar ``xi`` gives shape (n_e,)."""
    t = np.asarray(times_s, dtype=float)
    return np.exp(2j * np.pi * np.asarray(xi, dtype=complex)[..., None] * t)


def signal(xi, c, model):
    """Forward signal ``W(xi) @ Phi @ c`` for one voxel."""
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (model.n_s,):
        raise DimensionError(f"concentration vector has shape {c.shape}, expected ({model.n_s},)")
    return weighting_diag(xi, model.times) * (model.phi @ c)


@dataclass(frozen=True)
class SubmatrixReport:
    min_abs_det: float
    worst_selection: tuple[int, ...]
    scale: float
    ok: bool


def check_submatrices_nonsingular(model):
    """Scan every ``n_s x n_s`` row selection of the model matrix.

    Returns the minimum absolute determinant, the selection attaining it,
    and ``ok`` relative to ``RANK_TOL`` times the Hadamard row-norm scale of
    the worst selection. Exact singularity happens only for exceptional echo
    choices, so the tolerance sits at machine-precision scale.
    More than ``MAX_SELECTIONS`` selections raise :class:`CombinatorialLimit`.
    """
    n_e, n_s = model.n_e, model.n_s
    n_sel = comb(n_e, n_s)
    if n_sel > MAX_SELECTIONS:
        raise CombinatorialLimit(
            f"{n_sel} selections exceed the guard of {MAX_SELECTIONS}"
        )
    selections = list(combinations(range(n_e), n_s))
    stacked = model.phi[np.array(selections), :]  # (n_sel, n_s, n_s)
    dets = np.abs(np.linalg.det(stacked))
    worst = int(np.argmin(dets))
    rows = stacked[worst]
    scale = float(np.prod(np.linalg.norm(rows, axis=1)))
    min_det = float(dets[worst])
    return SubmatrixReport(
        min_abs_det=min_det,
        worst_selection=selections[worst],
        scale=scale,
        ok=bool(min_det > RANK_TOL * scale),
    )


@dataclass(frozen=True)
class JRankReport:
    sigma_min: float
    sigma_max: float
    ok: bool
    reason: str = ""


def check_J_full_rank(model):
    """Smallest singular value of ``[T*Phi, Phi]``.

    Full rank of this ``n_e x 2n_s`` matrix is the echo-time condition for
    every parameter pair to be locally identifiable; it can only hold when
    ``n_e >= 2 n_s``, and ``ok`` asks ``sigma_min > RANK_TOL sigma_max``.
    """
    j = np.hstack([model.times[:, None] * model.phi, model.phi])
    svals = np.linalg.svd(j, compute_uv=False)
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])
    if model.n_e < 2 * model.n_s:
        return JRankReport(sigma_min, sigma_max, ok=False, reason="rank deficient by dimension")
    return JRankReport(sigma_min, sigma_max, ok=bool(sigma_min > RANK_TOL * sigma_max))
