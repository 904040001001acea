"""File formats: acquisition and flow configs and the CSIR container.

The CSIR image container is a pair of files: a JSON header

    {"width": W, "height": H, "n_e": E, "echo_times_ms": [...],
     "dtype": "f64",
     "layout": "row-major, per-voxel interleaved re/im, echo-major",
     "payload": "<name>.bin", "hz_per_ppm": 127.73, ...}

with an optional ``hz_per_ppm`` (a number or null, the field strength that
converts ppm species), and a raw little-endian float64 payload of exactly
W*H*E*2*8 bytes laid out voxel by voxel in row-major order, echoes in order
within a voxel and (re, im) within an echo.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import CsemriError, SpecError
from .imaging import ImageGrid
from .solver import FlowConfig
from .species import EchoSpec, build_model, load_species, species_from_dict, PRESET_NAMES

__all__ = [
    "model_from_config",
    "flow_config_from_dict",
    "write_csir",
    "read_csir",
    "grid_from_csir",
]

CSIR_LAYOUT = "row-major, per-voxel interleaved re/im, echo-major"
FLOW_CONFIG_KEYS = ("step", "max_iters", "grad_tol", "certified")


def _is_number(value):
    """True for a finite JSON number; a JSON boolean is no number."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def model_from_config(config):
    """Build an acquisition model from a config dict.

    Expected keys: ``echo_times_ms`` (list), ``species`` (preset names or
    inline species dicts) and, when any species is given in ppm,
    ``hz_per_ppm``. The echo times, ``hz_per_ppm`` and each inline peak's
    ``hz``, ``ppm`` and ``weight`` must be finite JSON numbers (a boolean is
    none), or :class:`SpecError` is raised.
    """
    if not isinstance(config, dict):
        raise SpecError(f"acquisition config must be a JSON object, got {type(config).__name__}")
    try:
        times_ms = config["echo_times_ms"]
    except KeyError as exc:
        raise SpecError("acquisition config needs echo_times_ms") from exc
    if type(times_ms) is not list or not all(map(_is_number, times_ms)):
        raise SpecError(f"echo_times_ms must be a list of numbers, got {times_ms!r}")
    echoes = EchoSpec.from_ms(times_ms)
    entries = config.get("species", [])
    if not isinstance(entries, list):
        raise SpecError(f"species must be a list, got {entries!r}")
    hz_per_ppm = config.get("hz_per_ppm")
    if not (hz_per_ppm is None or _is_number(hz_per_ppm)):
        raise SpecError(f"hz_per_ppm must be a number, got {hz_per_ppm!r}")
    species = []
    try:
        for entry in entries:
            if isinstance(entry, str):
                if entry not in PRESET_NAMES:
                    raise SpecError(f"unknown species preset {entry!r}")
                species.append(load_species(entry, hz_per_ppm=hz_per_ppm))
                continue
            for peak in entry["peaks"]:
                bad = [k for k in ("hz", "ppm", "weight") if k in peak and not _is_number(peak[k])]
                if bad:
                    raise SpecError(f"peak {bad} of species {entry.get('name')!r} must be numbers")
            species.append(species_from_dict(entry, hz_per_ppm=hz_per_ppm))
    except CsemriError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # an entry or peak of the wrong type
        raise SpecError(f"malformed species: {exc}") from exc
    if not species:
        raise SpecError("acquisition config needs at least one species")
    return build_model(species, echoes)


def flow_config_from_dict(doc):
    """Build a :class:`FlowConfig` from a JSON object with keys among ``FLOW_CONFIG_KEYS``.

    ``certified`` defaults to true when no ``step`` is given, so an empty
    object gives the :class:`FlowConfig` defaults in certified mode; the
    certified step takes the margin ``solver.RHO``. ``step`` and ``grad_tol``
    must be finite JSON numbers, ``max_iters`` one with an integral value and
    ``certified`` a boolean; anything else, and an unknown key, raises
    :class:`SpecError`.
    """
    if not isinstance(doc, dict):
        raise SpecError(f"flow config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(FLOW_CONFIG_KEYS))
    if unknown:
        raise SpecError(f"unknown flow config keys {unknown}; allowed are {list(FLOW_CONFIG_KEYS)}")
    step, grad_tol = doc.get("step"), doc.get("grad_tol")
    max_iters = doc.get("max_iters", 100_000)
    certified = doc.get("certified", step is None)
    if not isinstance(certified, bool):
        raise SpecError(f"flow config certified must be true or false, got {certified!r}")
    if not all(v is None or _is_number(v) for v in (step, grad_tol)):
        raise SpecError(f"flow config step and grad_tol must be numbers, got {step!r}, {grad_tol!r}")
    if not (_is_number(max_iters) and float(max_iters).is_integer()):
        raise SpecError(f"flow config max_iters must be an integer, got {max_iters!r}")
    return FlowConfig(
        step=None if step is None else float(step),
        max_iters=int(max_iters),
        grad_tol=None if grad_tol is None else float(grad_tol),
        certified=certified,
    )


def write_csir(header_path, signal, echo_times_ms, extra_header=None):
    """Write a complex (height, width, n_e) array as a CSIR pair.

    The payload file sits next to the header with a ``.bin`` suffix.
    """
    header_path = Path(header_path)
    signal = np.asarray(signal, dtype=complex)
    if signal.ndim != 3:
        raise SpecError(f"signal must be (height, width, n_e), got {signal.shape}")
    h, w, n_e = signal.shape
    if len(echo_times_ms) != n_e:
        raise SpecError("echo_times_ms length does not match the echo axis")
    payload_path = header_path.with_suffix(".bin")
    buf = np.empty((h, w, n_e, 2), dtype="<f8")
    buf[..., 0] = signal.real
    buf[..., 1] = signal.imag
    buf.tofile(payload_path)
    header = {
        "width": w,
        "height": h,
        "n_e": n_e,
        "echo_times_ms": [float(x) for x in echo_times_ms],
        "dtype": "f64",
        "layout": CSIR_LAYOUT,
        "payload": payload_path.name,
    }
    if extra_header:
        header.update(extra_header)
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1)
    return header_path, payload_path


def read_csir(header_path):
    """Read a CSIR pair; returns (signal array, header dict).

    Validates the header (integer sizes of at least 1, ``n_e`` finite echo
    times, a finite ``hz_per_ppm`` if any) and the payload byte length
    against width*height*n_e*2*8.
    """
    header_path = Path(header_path)
    with open(header_path) as fh:
        header = json.load(fh)
    if not isinstance(header, dict):
        raise SpecError(f"CSIR header must be a JSON object, got {type(header).__name__}")
    for key in ("width", "height", "n_e", "echo_times_ms", "dtype", "layout", "payload"):
        if key not in header:
            raise SpecError(f"CSIR header misses {key!r}")
    if header["dtype"] != "f64":
        raise SpecError(f"unsupported dtype {header['dtype']!r}")
    if header["layout"] != CSIR_LAYOUT:
        raise SpecError(f"unsupported layout {header['layout']!r}")
    w, h, n_e = header["width"], header["height"], header["n_e"]
    if not all(type(v) is int and v >= 1 for v in (w, h, n_e)):  # bool is no size
        raise SpecError(f"CSIR width, height and n_e must be integers >= 1, got {w!r}, {h!r}, {n_e!r}")
    times = header["echo_times_ms"]
    if not (
        type(times) is list and len(times) == n_e
        and all(map(_is_number, times))
    ):
        raise SpecError(f"CSIR echo_times_ms must be a list of {n_e} finite numbers, got {times!r}")
    hz_per_ppm = header.get("hz_per_ppm")
    if not (hz_per_ppm is None or _is_number(hz_per_ppm)):
        raise SpecError(f"CSIR hz_per_ppm must be a finite number, got {hz_per_ppm!r}")
    payload_path = header_path.parent / header["payload"]
    expected = w * h * n_e * 2 * 8
    actual = payload_path.stat().st_size
    if actual != expected:
        raise SpecError(f"payload has {actual} bytes, expected {expected}")
    # interleaved (re, im) pairs are the layout of a little-endian complex128,
    # so the values come back bit for bit, signed zeros included
    signal = np.fromfile(payload_path, dtype="<c16").reshape(h, w, n_e)
    return signal.astype(complex, copy=False), header


def grid_from_csir(header_path):
    """Read a CSIR pair as an :class:`ImageGrid` of its signal; returns (grid, header dict)."""
    signal, header = read_csir(header_path)
    return ImageGrid(signal), header
