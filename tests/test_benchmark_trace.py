"""The benchmark's per-layer trace finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

from csemri import imaging

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    """``benchmark/tracing.py`` loaded by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for module, attribute, name, _, _ in load_tracing().TARGETS:
        assert callable(getattr(importlib.import_module(module), attribute, None)), name


def test_the_descent_loop_looks_up_the_traced_names():
    # the trace replaces module attributes, so the loop must call these through imaging's globals
    names = imaging.projected_descent.__code__.co_names
    for name in ("voxelwise_value_and_gradient", "certified_step", "project_onto_C_phi",
                 "voxelwise_concentrations"):
        assert name in names, name
