"""The benchmark trace finds every function it wraps, and every exported name resolves."""

import importlib
import importlib.util
import pkgutil
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


def test_every_exported_name_resolves():
    # importing the package resolves every name its __init__ imports; a name left in a
    # module's __all__ after its object went fails here
    import csemri

    for info in pkgutil.iter_modules(csemri.__path__):
        module = importlib.import_module(f"csemri.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_the_descent_loop_looks_up_the_traced_names():
    # the trace replaces module attributes, so the loop must call these through imaging's globals
    names = imaging.projected_descent.__code__.co_names
    for name in ("voxelwise_value_and_gradient", "certified_step", "project_onto_C_phi",
                 "voxelwise_concentrations"):
        assert name in names, name
