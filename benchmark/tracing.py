"""Span recording for the traced benchmark run.

A traced pass temporarily replaces public csemri functions at the module
attribute their caller looks up (``csemri.imaging.project_onto_C_phi`` is
what ``reconstruct`` calls, ``csemri.cli.reconstruct`` is what the CLI
calls) with wrappers that record a span per call, and restores the
originals afterwards. The benchmark's own direct library calls record their
spans at the call site through :meth:`Tracer.span`.

A span is ``[name, start, end, parent, run, failed, size, info]``: the
parent is the index of the enclosing span (-1 for a root), ``run`` the pass
it belongs to, ``failed`` whether the call raised, ``size`` the number of
voxels a batched call worked on, and ``info`` a small value taken from the
call's result (iterations and final objective of a reconstruction). Spans
stay in memory; :func:`write_spans` saves them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, RUN, FAILED, SIZE, INFO = range(8)


def _batch(args):
    return len(args[1])


def _recon_info(result):
    return {"iterations": result.iterations, "final_objective": result.objective_trace[-1]}


# (module whose attribute the caller looks up, attribute, span name,
#  size from the call's arguments, info from the call's result)
TARGETS = (
    ("csemri.imaging", "voxelwise_value_and_gradient", "residual.value_grad", _batch, None),
    ("csemri.imaging", "voxelwise_signal_gradient", "residual.signal_grad", _batch, None),
    ("csemri.imaging", "voxelwise_concentrations", "residual.concentrations", _batch, None),
    ("csemri.imaging", "make_residual_operator", "residual.make_operator", None, None),
    ("csemri.imaging", "project_onto_C_phi", "imaging.project", None, None),
    ("csemri.imaging", "certified_step", "solver.certified_step", None, None),
    ("csemri.solver", "wirtinger_gradient_f0", "residual.grad_f0", None, None),
    ("csemri.lattice", "classify_zero", "lattice.classify", None, None),
    ("csemri.containers", "build_model", "species.build_model", None, None),
    ("csemri.containers", "load_species", "species.load_species", None, None),
    ("csemri.cli", "model_from_config", "containers.model_from_config", None, None),
    ("csemri.cli", "reconstruct", "imaging.reconstruct", None, _recon_info),
    ("csemri.cli", "reconstruct_noisy", "imaging.reconstruct_noisy", None, _recon_info),
    ("csemri.cli", "metrics_table", "imaging.metrics_table", None, None),
    ("csemri.cli", "pdff_map", "imaging.pdff_map", None, None),
    ("csemri.cli", "grid_from_csir", "containers.csir_read", None, None),
    ("csemri.cli", "read_csir", "containers.csir_read", None, None),
    ("csemri.cli", "write_csir", "containers.csir_write", None, None),
    ("csemri.cli", "generate_phantom", "phantom.generate", None, None),
    ("csemri.cli", "corrupt", "phantom.corrupt", None, None),
    ("csemri.cli", "rationalize_echoes", "lattice.rationalize", None, None),
    ("csemri.cli", "fieldmap_lattice", "lattice.fieldmap_lattice", None, None),
    ("csemri.cli", "delta_zero_set", "lattice.zero_set", None, None),
    ("csemri.cli", "sigma_min_profile", "lattice.sigma_min_profile", None, None),
    ("csemri.cli", "write_matrix_csv", "experiments.write_matrix_csv", None, None),
)


class NullTracer:
    """Stands in for a tracer in untraced passes; records nothing."""

    enabled = False

    def span(self, name):
        return nullcontext()

    @contextmanager
    def active(self, run):
        yield


class Tracer:
    """Records spans in memory while :meth:`active` has the wrappers in place."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._run = None

    def _begin(self, name, size=0):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], self._run, False, size, None])
        self._stack.append(idx)
        return idx

    def _end(self, idx, failed=False, info=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        span[INFO] = info
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield
        except BaseException:
            self._end(idx, failed=True)
            raise
        self._end(idx)

    def _wrap(self, fn, name, size_of, info_of):
        def traced(*args, **kwargs):
            idx = self._begin(name, size_of(args) if size_of else 0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(idx, failed=True)
                raise
            self._end(idx, info=info_of(result) if info_of else None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self, run):
        """Install the wrappers for one pass (or set-up) and restore them after."""
        saved = []
        self._run = run
        try:
            for module_name, attr, name, size_of, info_of in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, size_of, info_of))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._run = None


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def write_spans(path, spans, header):
    with open(path, "w") as fh:
        json.dump(
            {
                **header,
                "fields": ["name", "start", "end", "parent", "run", "failed", "size", "info"],
                "spans": spans,
            },
            fh,
        )


LAYERS = (
    "bench", "cli", "species", "lattice", "residual", "solver",
    "imaging", "phantom", "containers", "experiments",
)

PER_LAYER_UNITS = {
    "residual.value_grad.calls": "count",
    "residual.value_grad.us_per_voxel": "us",
    "residual.value_grad.share": "fraction",
    "residual.signal_grad.us_per_voxel": "us",
    "residual.grad_f0.calls": "count",
    "residual.grad_f0.us_per_call": "us",
    "imaging.iterations": "count",
    "imaging.final_objective": "1",
    "imaging.project.calls": "count",
    "imaging.project.ms_per_call": "ms",
    "imaging.project.share": "fraction",
    "imaging.driver.self_ms_per_iter": "ms",
    "solver.certified_step.calls": "count",
    "solver.certified_step.us_per_call": "us",
    "solver.certified_step.failed": "count",
    "solver.radius_tight.ms_per_voxel": "ms",
    "solver.radius_loose.us_per_voxel": "us",
    "solver.radius_lambert.us_per_voxel": "us",
    "solver.curvature_profile.ms_per_voxel": "ms",
    "solver.flow.ms_per_voxel": "ms",
    "solver.flow.iterations_p50": "count",
    "lattice.zero_set.ms": "ms",
    "lattice.zero_set.self_ms": "ms",
    "lattice.classify.calls": "count",
    "lattice.classify.ms": "ms",
    "lattice.sigma_min_profile.ms": "ms",
    "phantom.generate_ms": "ms",
    "phantom.corrupt_ms": "ms",
    "containers.csir_read_ms": "ms",
    "containers.csir_write_ms": "ms",
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
    "trace.spans_per_pass": "count",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, traced_runs, qualities, speed_factors):
    """Per-layer numbers from the spans of the traced passes.

    Counts are per pass; times carry their unit in the name. Set-up
    numbers (phantom, CSIR writes) are medians over every recorded call.
    A metric whose layer the workload never reaches reads 0. Each span's
    times are read at the reference host speed by its run's factor in
    ``speed_factors`` (see hostspeed.py).
    """
    scale = [speed_factors[s[RUN]] for s in spans]
    own = [t * f for t, f in zip(self_times(spans), scale)]
    duration = [(s[END] - s[START]) * f for s, f in zip(spans, scale)]
    runs = set(traced_runs)
    n_pass = max(len(runs), 1)
    in_pass = [i for i, s in enumerate(spans) if s[RUN] in runs]
    pass_time = sum(duration[i] for i in in_pass if spans[i][PARENT] == -1)
    by_name = {}
    for i in in_pass:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def idx(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def count(*names):
        return len(idx(*names))

    def total(*names):
        return sum(duration[i] for i in idx(*names))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def median_ms(name):
        return 1e3 * _median([duration[i] for i, s in enumerate(spans) if s[NAME] == name])

    recon = idx("imaging.reconstruct", "imaging.reconstruct_noisy")
    iterations = sum(spans[i][INFO]["iterations"] for i in recon if spans[i][INFO])
    voxels = count("bench.voxel")
    protocols = count("lattice.zero_set")
    flow_iters = [q["flow_iterations"] for q in qualities if "flow_iterations" in q]
    m = {
        "residual.value_grad.calls": ratio(count("residual.value_grad"), n_pass),
        "residual.value_grad.us_per_voxel": ratio(
            total("residual.value_grad"), sum(spans[i][SIZE] for i in idx("residual.value_grad")), 1e6
        ),
        "residual.value_grad.share": ratio(total("residual.value_grad"), pass_time),
        "residual.signal_grad.us_per_voxel": ratio(
            total("residual.signal_grad"), sum(spans[i][SIZE] for i in idx("residual.signal_grad")), 1e6
        ),
        "residual.grad_f0.calls": ratio(count("residual.grad_f0"), n_pass),
        "residual.grad_f0.us_per_call": ratio(total("residual.grad_f0"), count("residual.grad_f0"), 1e6),
        "imaging.iterations": ratio(iterations, n_pass),
        "imaging.final_objective": _median(
            [spans[i][INFO]["final_objective"] for i in recon if spans[i][INFO]]
        ),
        "imaging.project.calls": ratio(count("imaging.project"), n_pass),
        "imaging.project.ms_per_call": ratio(total("imaging.project"), count("imaging.project"), 1e3),
        "imaging.project.share": ratio(total("imaging.project"), pass_time),
        "imaging.driver.self_ms_per_iter": ratio(sum(own[i] for i in recon), iterations, 1e3),
        "solver.certified_step.calls": ratio(count("solver.certified_step"), n_pass),
        "solver.certified_step.us_per_call": ratio(
            total("solver.certified_step"), count("solver.certified_step"), 1e6
        ),
        "solver.certified_step.failed": ratio(
            sum(spans[i][FAILED] for i in idx("solver.certified_step")), n_pass
        ),
        "solver.radius_tight.ms_per_voxel": ratio(total("solver.radius_tight"), voxels, 1e3),
        "solver.radius_loose.us_per_voxel": ratio(total("solver.radius_loose"), voxels, 1e6),
        "solver.radius_lambert.us_per_voxel": ratio(total("solver.radius_lambert"), voxels, 1e6),
        "solver.curvature_profile.ms_per_voxel": ratio(total("solver.curvature_profile"), voxels, 1e3),
        "solver.flow.ms_per_voxel": ratio(total("solver.flow"), voxels, 1e3),
        "solver.flow.iterations_p50": _median(flow_iters),
        "lattice.zero_set.ms": ratio(total("lattice.zero_set"), protocols, 1e3),
        "lattice.zero_set.self_ms": ratio(sum(own[i] for i in idx("lattice.zero_set")), protocols, 1e3),
        "lattice.classify.calls": ratio(count("lattice.classify"), n_pass),
        "lattice.classify.ms": ratio(total("lattice.classify"), protocols, 1e3),
        "lattice.sigma_min_profile.ms": ratio(total("lattice.sigma_min_profile"), protocols, 1e3),
        "phantom.generate_ms": median_ms("phantom.generate"),
        "phantom.corrupt_ms": median_ms("phantom.corrupt"),
        "containers.csir_read_ms": median_ms("containers.csir_read"),
        "containers.csir_write_ms": median_ms("containers.csir_write"),
    }
    layer_own = dict.fromkeys(LAYERS, 0.0)
    for i in in_pass:
        layer_own[spans[i][NAME].split(".", 1)[0]] += own[i]
    for layer, seconds in layer_own.items():
        m[f"{layer}.self_share"] = ratio(seconds, pass_time)
    m["trace.spans_per_pass"] = ratio(len(in_pass), n_pass)
    return m
