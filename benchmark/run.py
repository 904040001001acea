"""csemri benchmark: one workload, measured for a fixed time, outputs checked.

Run from the repository root:

    python3 benchmark/run.py --workload recon_clean --seed 1 --seconds 25 --trace 0

Workloads: recon_clean, recon_noisy, certify, identify (see workloads.py and
README.md). The run sets the workload up several times, then repeats timed
passes until the next one would end after ``--seconds``, checking every
operation's outputs after its pass. Every time is read at a fixed host speed
(see hostspeed.py), and each operation is timed by its median over the
passes. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics plus
the tracing overhead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
csemri sources under ``src/`` next to this directory the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
WORKLOAD_NAMES = ("recon_clean", "recon_noisy", "certify", "identify")
# A plain single-threaded run is the baseline, and it leaves the machine's
# second core to other processes.
BLAS_THREADS = "1"


def pin_blas_threads():
    """Pin BLAS to BLAS_THREADS; takes effect only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
UNITS = {"setup_s": "s", "solve_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MiB"}


def import_csemri():
    """Import numpy, scipy and csemri from ``src/``."""
    if not (SRC / "csemri" / "__init__.py").is_file():
        raise FileNotFoundError(f"csemri sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import csemri.cli  # noqa: F401

    if Path(csemri.cli.__file__).resolve().parent != SRC / "csemri":
        raise ImportError(f"csemri imported from {csemri.cli.__file__}, not from {SRC}")


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import hostspeed
sys.path[0] = sys.argv[1]
speed = hostspeed.SpeedSampler(hostspeed.float_loop, hostspeed.LOOP_REFERENCE_S)
with speed.sampling():
    t0 = time.perf_counter()
    import csemri.cli
    t1 = time.perf_counter()
print(t1 - t0, speed.normalised(t0, t1))
"""


def import_seconds_fresh(reps):
    """Time the import of csemri in ``reps`` fresh interpreters, one after another.

    Returns (wall seconds, seconds at the reference host speed) per interpreter.
    """
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(tuple(map(float, proc.stdout.split())))
    return times


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    """Machine and library facts that the timings depend on."""
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401

        threadpoolctl_state = "present"
    except ImportError:
        threadpoolctl_state = "absent: CSI_THREADS has no effect"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threadpoolctl": threadpoolctl_state,
    }


def quantile(values, q):
    """Linearly interpolated quantile, as numpy's default method."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(ops_per_pass):
    """Highest quantile with at least ten of a pass's operations beyond it."""
    return (ops_per_pass - 10) / ops_per_pass if ops_per_pass > 10 else 1.0


def op_medians(pass_latencies):
    """Each operation's median latency over the passes.

    Every pass runs the same operations in the same order, so the k-th
    latency of each pass belongs to one operation.
    """
    return [statistics.median(lats) for lats in zip(*pass_latencies)]


def run_workload(name, seed, seconds, trace, smoke=False, out_dir=None):
    """Set up, measure and check one workload; returns (result, report).

    Inputs and outputs of the workload live in a scratch directory under
    ``out_dir`` that is removed afterwards; a traced run leaves its spans
    in ``out_dir``.
    """
    import_csemri()
    from hostspeed import SpeedSampler
    from tracing import PER_LAYER_UNITS, NullTracer, Tracer, layer_metrics, write_spans
    from workloads import WORKLOADS

    # a process imports once, so the import is timed in fresh interpreters
    import_times = import_seconds_fresh(1 if smoke else SETUP_REPS)
    out_dir = Path(out_dir) if out_dir is not None else ROOT / ".bench_out"
    work_dir = out_dir / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else NullTracer()
    untraced = NullTracer()
    speed = SpeedSampler()
    try:
        wl = WORKLOADS[name](seed=seed, work_dir=work_dir, smoke=smoke)
        with speed.sampling():
            setups = []  # (start, end)
            for _ in range(1 if smoke else SETUP_REPS):
                t0 = time.perf_counter()
                with tracer.active("setup"), tracer.span("bench.setup"):
                    wl.setup()
                setups.append((t0, time.perf_counter()))

            passes = []  # (start, end, traced, [(start, end, problems, quality)])
            t_start = time.perf_counter()
            while True:
                run = len(passes)
                tr = tracer if trace and run % 2 == 1 else untraced
                t0 = time.perf_counter()
                with tr.active(run), tr.span("bench.pass"):
                    raw = wl.run_pass(tr)
                t1 = time.perf_counter()
                passes.append((t0, t1, tr.enabled, [(a, b, *wl.check(payload)) for a, b, payload in raw]))
                if trace and len(passes) < 2:
                    continue  # a traced run needs one pass of each kind
                next_traced = bool(trace) and len(passes) % 2 == 1
                estimate = statistics.median(p[1] - p[0] for p in passes if p[2] == next_traced)
                if time.perf_counter() - t_start + estimate > seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = [op for p in passes for op in p[3]]
    failures = [problem for op in ops for problem in op[2]]
    failed = sum(1 for op in ops if op[2])
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit": wl.unit,
        "passes": len(passes),
        "ops_per_pass": len(passes[0][3]),
        "import_times_s": [t[1] for t in import_times],
        "import_wall_s": [t[0] for t in import_times],
        "setup_times_s": [speed.normalised(*s) for s in setups],
        "setup_wall_s": [b - a for a, b in setups],
        "pass_times_s": [speed.normalised(p[0], p[1]) for p in passes],
        "pass_wall_s": [p[1] - p[0] for p in passes],
        "failed_frac": failed / len(ops),
        "problems": failures[:20],
        "quality": _quality_summary([op[3] for op in ops]),
        "environment": {
            **environment(),
            "host_speed_kernel_median_s": statistics.median(speed.times),
            "host_speed_samples": len(speed.times),
        },
    }

    def op_latencies(traced):
        return [[speed.normalised(op[0], op[1]) for op in p[3]] for p in passes if p[2] == traced]

    if trace:
        traced_runs = [run for run, p in enumerate(passes) if p[2]]
        factors = {run: speed.factor(passes[run][0], passes[run][1]) for run in traced_runs}
        factors["setup"] = speed.factor(setups[0][0], setups[-1][1])
        metrics = layer_metrics(
            tracer.spans, traced_runs, [op[3] for run in traced_runs for op in passes[run][3]], factors
        )
        metrics["trace.solve_s"] = sum(op_medians(op_latencies(True)))
        metrics["trace.untraced_solve_s"] = sum(op_medians(op_latencies(False)))
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - metrics["trace.untraced_solve_s"]
        spans_path = out_dir / f"spans-{name}-seed{seed}.json"
        write_spans(spans_path, tracer.spans, {"workload": name, "seed": seed, "speed_factors": factors})
        report["spans_file"] = str(spans_path)
        units = PER_LAYER_UNITS
    else:
        per_op = op_medians(op_latencies(False))
        q = tail_quantile(report["ops_per_pass"])
        report["op_tail_quantile"] = q
        report["op_samples"] = len(per_op)
        metrics = {
            "setup_s": statistics.median(report["import_times_s"]) + statistics.median(report["setup_times_s"]),
            "solve_s": sum(per_op),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * quantile(per_op, q),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def _quality_summary(qualities):
    """Median, minimum, maximum and sum of each quality value over the run's operations."""
    keys = sorted({k for q in qualities for k in q})
    out = {}
    for k in keys:
        vals = [q[k] for q in qualities if isinstance(q.get(k), (int, float))]
        if vals:
            out[k] = {"median": statistics.median(vals), "min": min(vals), "max": max(vals), "sum": sum(vals)}
    return out


def print_report(result, report):
    from hostspeed import REFERENCE_S

    print(f"# csemri benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("environment " + json.dumps(report["environment"]))
    n_ops = result["attempted"]
    print(f"passes {report['passes']}, {report['ops_per_pass']} {report['unit']}(s) per pass, "
          f"{n_ops} operations")
    print("pass times s " + " ".join(f"{t:.4f}" for t in report["pass_times_s"]))
    print("pass wall s " + " ".join(f"{t:.4f}" for t in report["pass_wall_s"]))
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        print(f"  setup_s = median of {len(report['import_times_s'])} imports "
              f"({', '.join(f'{t:.4f}' for t in report['import_times_s'])} s) "
              f"+ median of {len(report['setup_times_s'])} set-ups "
              f"({', '.join(f'{t:.4f}' for t in report['setup_times_s'])} s)")
        print(f"  each of {report['op_samples']} operations is timed by its median over "
              f"{report['passes']} passes; solve_s is their sum, op_p50_ms their median, "
              f"op_tail_ms their q={report['op_tail_quantile']:.3f} quantile")
        print(f"  all times are read at the host speed where the calibration kernel takes "
              f"{REFERENCE_S * 1e3:g} ms; wall times for comparison: median pass "
              f"{statistics.median(report['pass_wall_s']):.4f} s, import "
              f"{statistics.median(report['import_wall_s']):.4f} s, set-up "
              f"{statistics.median(report['setup_wall_s']):.4f} s")
    print(f"failed_frac {report['failed_frac']:.6g} fraction ({result['failed']} of {n_ops} failed)")
    for k, v in report["quality"].items():
        print(f"quality {k} median {v['median']:.6g} min {v['min']:.6g} "
              f"max {v['max']:.6g} sum {v['sum']:.6g}")
    for problem in report["problems"]:
        print(f"problem {problem}")
    if "spans_file" in report:
        print(f"spans written to {report['spans_file']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass (harness test)")
    args = parser.parse_args(argv)
    pin_blas_threads()
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (FileNotFoundError, ImportError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
