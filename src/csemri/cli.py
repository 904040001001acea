"""Command-line interface.

Subcommands: model-info, analyze, solve, phantom, corrupt, reconstruct,
metrics, experiment. Inputs and outputs are JSON configs, CSIR containers
and CSV tables; errors are reported as one JSON object on stderr with
exit code 2 for input problems and 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import errors
from .containers import (
    flow_config_from_dict,
    grid_from_csir,
    model_from_config,
    read_csir,
    write_csir,
)
from .imaging import (
    FieldmapConstraint,
    ImageGrid,
    metrics_table,
    pdff_map,
    reconstruct,
    reconstruct_noisy,
)
from .lattice import delta_zero_set, fieldmap_lattice, rationalize_echoes, sigma_min_profile
from .phantom import CorruptionSpec, corrupt, default_phantom_spec, generate_phantom
from .residual import make_residual_operator
from .solver import FlowConfig, wirtinger_flow
from .species import check_J_full_rank, check_submatrices_nonsingular, load_species
from .experiments import (
    BAND_HZ,
    GRID_STEP_HZ,
    experiment_curvature,
    experiment_solution_set,
    write_matrix_csv,
    zero_set_record,
)

log = logging.getLogger(__name__)

DEFAULT_ACQUISITION = {
    "echo_times_ms": [1.238 + 0.986 * k for k in range(6)],
    "species": ["water", "fat6", "silicone"],
    "hz_per_ppm": 3.0 * 42.57747892,
}
MAX_GRID_POINTS = 10**6  # guard on the rows of the analyze --csv profile


def _acquisition_config(path):
    """The acquisition config object in the JSON file at ``path``; the default one without."""
    if path is None:
        return DEFAULT_ACQUISITION
    with open(path) as fh:
        return json.load(fh)


def _load_acquisition(path):
    return model_from_config(_acquisition_config(path))


def _require_positive(flag, value):
    if not 0 < value < np.inf:
        raise errors.SpecError(f"{flag} must be positive and finite, got {value}")


def _dump(obj, path=None):
    text = json.dumps(obj, indent=1)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_model_info(args):
    model = _load_acquisition(args.config)
    sub = check_submatrices_nonsingular(model)
    jr = check_J_full_rank(model)
    _dump(
        {
            "n_e": model.n_e,
            "n_s": model.n_s,
            "echo_times_ms": [1e3 * t for t in model.echoes.times_s],
            "species": [sp.name for sp in model.species],
            "submatrices": {
                "min_abs_det": sub.min_abs_det,
                "worst_selection": list(sub.worst_selection),
                "scale": sub.scale,
                "ok": sub.ok,
            },
            "j_full_rank": {
                "sigma_min": jr.sigma_min,
                "sigma_max": jr.sigma_max,
                "ok": jr.ok,
                "reason": jr.reason,
            },
        },
        args.out,
    )
    return 0


def cmd_analyze(args):
    if not (np.isfinite(args.band).all() and args.band[0] < args.band[1]):
        raise errors.SpecError(f"--band needs finite ends, the low below the high, got {args.band}")
    _require_positive("--grid-step", args.grid_step)
    points = (args.band[1] - args.band[0]) / args.grid_step + 1
    if args.csv and points > MAX_GRID_POINTS:
        raise errors.SpecError(f"--csv profile of {points:.3g} points exceeds {MAX_GRID_POINTS}")
    model = _load_acquisition(args.config)
    structure = rationalize_echoes(model.echoes)
    period = fieldmap_lattice(structure)
    report = {
        "lattice": {
            "commensurable": structure.commensurable,
            "period_hz": period if structure.commensurable else None,
        },
        **zero_set_record(delta_zero_set(model, search_band_hz=tuple(args.band))),
    }
    _dump(report, args.out)
    if args.csv:
        grid = np.arange(args.band[0], args.band[1] + args.grid_step / 2, args.grid_step)
        write_matrix_csv(
            args.csv,
            np.column_stack([grid, sigma_min_profile(model, grid)]),
            header=("eta_hz", "sigma_min"),
        )
    return 0


def cmd_solve(args):
    with open(args.input) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise errors.SpecError(f"solve input must be a JSON object, got {type(doc).__name__}")
    model = model_from_config(doc["acquisition"])
    try:
        signal = np.array([complex(re, im) for re, im in doc["signal"]])
        init = complex(*doc.get("init", [1.0, 0.0]))
    except (TypeError, ValueError) as exc:
        raise errors.SpecError(f"malformed signal or init: {exc}") from exc
    cfg = flow_config_from_dict(doc.get("flow", {}))
    if args.trajectory:
        cfg = dataclasses.replace(cfg, keep_trajectory=True)
    op = make_residual_operator(model)
    res = wirtinger_flow(op, signal, init, cfg)
    _dump(
        {
            "xi_hat": [res.xi_hat.real, res.xi_hat.imag],
            "c_hat": [[c.real, c.imag] for c in res.c_hat],
            "iterations": res.iterations,
            "final_grad_norm": res.final_grad_norm,
            "converged": res.converged,
        },
        args.out,
    )
    if args.trajectory:
        write_matrix_csv(
            args.trajectory,
            [(k, z.real, z.imag) for k, z in enumerate(res.trajectory)],
            header=("iteration", "fieldmap_hz", "r2star_hz"),
        )
    return 0


def cmd_phantom(args):
    config = _acquisition_config(args.config)
    model = model_from_config(config)
    spec = default_phantom_spec(
        width=args.width, height=args.height, fieldmap_amplitude_hz=args.fieldmap_amplitude
    )
    truth = generate_phantom(spec, model)
    write_csir(
        args.out,
        truth.grid.signal,
        [1e3 * t for t in model.echoes.times_s],
        extra_header={"n_s": model.n_s, "hz_per_ppm": config.get("hz_per_ppm")},
    )
    if args.truth:
        np.savez(
            args.truth,
            c0_map=truth.c0_map,
            xi0_map=truth.xi0_map,
            mask=truth.mask,
        )
    return 0


def cmd_corrupt(args):
    signal, header = read_csir(args.input)
    grid = ImageGrid(signal)
    mismatch_species = None
    mismatch_c = None
    xi0 = None
    times = None
    if args.mismatch_species:
        mismatch_species = load_species(args.mismatch_species, hz_per_ppm=header.get("hz_per_ppm"))
        mismatch_c = complex(args.mismatch_concentration)
        if not args.truth:
            raise errors.SpecError("model mismatch needs --truth for the true xi map")
        xi0 = np.load(args.truth)["xi0_map"]
        times = [1e-3 * t for t in header["echo_times_ms"]]
    sigma = args.sigma
    if args.relative:
        sigma = sigma * float(np.max(np.abs(signal)))
    noisy, report = corrupt(
        grid,
        CorruptionSpec(
            sigma=sigma,
            mismatch_species=mismatch_species,
            mismatch_concentration=mismatch_c,
        ),
        seed=args.seed,
        xi0_map=xi0,
        echo_times_s=times,
    )
    # the model's species count and field strength pass through for later commands
    kept = {key: header[key] for key in ("n_s", "hz_per_ppm") if key in header}
    write_csir(args.out, noisy.signal, header["echo_times_ms"], extra_header={**kept, "sigma": sigma})
    print(
        json.dumps(
            {
                "sigma": sigma,
                "max_budget": float(np.max(report.budget)),
                "max_empirical": float(np.max(report.empirical)),
            }
        )
    )
    return 0


def cmd_reconstruct(args):
    if args.flow is not None and args.max_iters is not None:
        raise errors.SpecError("--max-iters conflicts with --flow; set max_iters in the flow config")
    config = _acquisition_config(args.config)
    model = model_from_config(config)
    if not (0 <= args.water_index < model.n_s and 0 <= args.fat_index < model.n_s):
        raise errors.DimensionError(
            f"species index out of range: --water-index {args.water_index}, "
            f"--fat-index {args.fat_index} for n_s={model.n_s}"
        )
    grid, header = grid_from_csir(args.input)
    _check_scan(header, model, config.get("hz_per_ppm"))
    # on the mask are the voxels with signal, the rule of the driver's support
    mask = np.any(grid.signal != 0, axis=-1)
    constraint = FieldmapConstraint.from_mask(mask, args.eps_on_mask)
    if args.flow is not None:
        with open(args.flow) as fh:
            cfg = flow_config_from_dict(json.load(fh))
    else:
        max_iters = 2000 if args.max_iters is None else args.max_iters
        cfg = FlowConfig(certified=True, max_iters=max_iters)
    # momentum needs the signals held, which only the run without --delta does
    cfg = dataclasses.replace(cfg, momentum=args.delta is None)
    xi_init = np.full((grid.height, grid.width), 1.0 + 0j)
    if args.delta is not None:
        res = reconstruct_noisy(grid, model, constraint, args.delta, cfg, xi_init)
    else:
        res = reconstruct(grid, model, constraint, cfg, xi_init)
    np.savez(
        args.out,
        xi_map=res.xi_map,
        c_map=res.c_map,
        pdff=pdff_map(res.c_map, args.water_index, args.fat_index),
        objective_trace=np.asarray(res.objective_trace),
        mask=mask,
        s_map=res.s_map,
    )
    summary = {
        "iterations": res.iterations,
        "momentum": cfg.momentum,
        "restarts": res.restarts,
        "fallback_iterations": res.fallback_iterations,
        "zero_branch_voxels": res.zero_branch_voxels,
        "step_spread": None if res.step_spread is None else list(res.step_spread),
        "converged": res.converged,
        "constraint_violation": res.constraint_violation,
        "final_objective": res.objective_trace[-1],
    }
    if args.truth:
        names = [sp.name for sp in model.species]
        summary["metrics"] = _metrics_on_mask(np.load(args.truth), names, res.c_map, res.xi_map)
    _dump(summary, args.metrics_out)
    return 0


def _check_scan(header, model, hz_per_ppm):
    """Refuse an image whose echo times are not the model's (to 1e-12 relative, the
    rounding of the ms -> s -> ms round trip) or whose recorded field strength, if any,
    is not ``hz_per_ppm``; the fitted species set is the user's choice and goes unchecked."""
    times_ms = np.asarray(header["echo_times_ms"], dtype=float)
    model_ms = 1e3 * model.echoes.array()
    if times_ms.shape != model_ms.shape or not np.allclose(times_ms, model_ms, rtol=1e-12, atol=0):
        raise errors.SpecError(
            f"image echo times {times_ms.tolist()} ms are not the model's {model_ms.tolist()} ms"
        )
    scan_hz = header.get("hz_per_ppm")
    if scan_hz is not None and scan_hz != hz_per_ppm:
        raise errors.SpecError(f"image hz_per_ppm {scan_hz} is not the model's {hz_per_ppm}")


def _metrics_on_mask(truth, names, c_map, xi_map):
    """Metric table of the named maps on the truth mask; off it the truth is arbitrary."""
    mask = np.asarray(truth["mask"], dtype=bool)
    if np.shape(xi_map) != mask.shape:
        raise errors.DimensionError(f"maps of shape {np.shape(xi_map)} against a {mask.shape} mask")
    if not mask.any():
        raise errors.SpecError("the truth mask selects no voxel")
    return metrics_table(
        _named_maps(names, truth["c0_map"][mask], truth["xi0_map"][mask]),
        _named_maps(names, c_map[mask], xi_map[mask]),
    )


def _named_maps(names, c_map, xi_map):
    """Species maps under the given names, plus the fieldmap and R2* maps."""
    maps = {name: c_map[..., k] for k, name in enumerate(names)}
    maps["fieldmap"] = np.real(xi_map)
    maps["r2star"] = np.imag(xi_map)
    return maps


def cmd_metrics(args):
    truth = np.load(args.truth)
    recon = np.load(args.recon)
    names = [f"species_{k}" for k in range(truth["c0_map"].shape[-1])]
    _dump(_metrics_on_mask(truth, names, recon["c_map"], recon["xi_map"]), args.out)
    return 0


def cmd_experiment(args):
    model = _load_acquisition(args.config)
    if args.study == "solution-set":
        experiment_solution_set(model.species, args.out)
    elif args.study == "curvature":
        _require_positive("--stride", args.stride)
        spec = default_phantom_spec(width=args.width, height=args.height)
        truth = generate_phantom(spec, model)
        experiment_curvature(truth, model, args.out, stride=args.stride)
    else:
        raise errors.SpecError(f"unknown study {args.study!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="csemri")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model-info", help="model matrix diagnostics")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_model_info)

    p = sub.add_parser("analyze", help="solution lattice and Delta zero set")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--band", type=float, nargs=2, default=BAND_HZ)
    p.add_argument("--grid-step", type=float, default=GRID_STEP_HZ)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("solve", help="single-voxel recovery")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--trajectory")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("phantom", help="generate the default in-silico phantom")
    p.add_argument("--out", required=True)
    p.add_argument("--truth")
    p.add_argument("--config")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--fieldmap-amplitude", type=float, default=20.0)
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("corrupt", help="add noise / model mismatch to a container")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--relative", action="store_true", help="sigma relative to peak |signal|")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mismatch-species")
    p.add_argument("--mismatch-concentration", type=float, default=0.0)
    p.add_argument("--truth")
    p.set_defaults(fn=cmd_corrupt)

    p = sub.add_parser("reconstruct", help="constrained image reconstruction")
    p.add_argument("--input", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics-out")
    p.add_argument("--truth")
    p.add_argument(
        "--flow",
        help="JSON flow config with keys among step, max_iters, grad_tol and certified; "
        "without --delta the field steps take restarted momentum",
    )
    p.add_argument("--delta", type=float, default=None, help="per-voxel noise ball radius")
    p.add_argument(
        "--eps-on-mask", type=float, default=30.0,
        help="gradient bound on the voxels with signal; the others are unbounded and uncoupled",
    )
    p.add_argument("--max-iters", type=int, default=None, help="default 2000; not with --flow")
    p.add_argument("--water-index", type=int, default=0)
    p.add_argument("--fat-index", type=int, default=1)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("metrics", help="error metric table from truth and recon files")
    p.add_argument("--truth", required=True)
    p.add_argument("--recon", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("experiment", help="write experiment artifact files")
    p.add_argument("study", choices=("solution-set", "curvature"))
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--width", type=int, default=32, help="curvature only")
    p.add_argument("--height", type=int, default=32, help="curvature only")
    p.add_argument("--stride", type=int, default=4, help="curvature only")
    p.set_defaults(fn=cmd_experiment)
    return parser


def _limit_threads():
    """Cap the BLAS worker count at ``CSI_THREADS`` when threadpoolctl is installed."""
    n = os.environ.get("CSI_THREADS")
    if not n:
        return
    if not n.strip().isdigit() or int(n) < 1:
        raise errors.SpecError(f"CSI_THREADS must be a positive integer, got {n!r}")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        log.debug("CSI_THREADS=%s ignored: threadpoolctl is not installed", n)
        return  # thread capping is best effort
    threadpool_limits(int(n))


def cli_main(argv=None):
    parser = build_parser()
    try:
        _limit_threads()
        args = parser.parse_args(argv)
        return args.fn(args)
    except (errors.InputError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except errors.NumericalError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
