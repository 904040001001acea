"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 benchmark/steadiness.py --runs 10 [--workloads certify identify] [--trace 1] [--write]

Each run uses another seed (1, 2, ...). For every end-to-end metric the
spread is (Q3 - Q1) / median over the runs, with the quartiles from
``statistics.quantiles(values, n=4)``. With ``--trace 1`` the traced
per-layer metrics are summarised instead, and the runs repeat one seed, so
that counts can be seen to repeat exactly. ``--write`` stores the summary
in steadiness.json (end-to-end) or steadiness-trace.json (traced), next to
this file, replacing the entries of the workloads it ran.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = HERE / ("steadiness-trace.json" if args.trace else "steadiness.json")
    record = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    if args.write and out.exists():
        previous = json.loads(out.read_text())
        if (previous["runs"], previous["seconds"]) == (args.runs, args.seconds):
            record["workloads"] = previous["workloads"]
    for name in args.workloads:
        results, walls = [], []
        for k in range(args.runs):
            seed = 1 if args.trace else k + 1
            cmd = [sys.executable, *bench["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for key, prefix in (("pass_times_s", "pass times s "), ("pass_wall_s", "pass wall s ")):
                result[key] = [float(t) for line in lines if line.startswith(prefix) for t in line.split()[3:]]
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed", flush=True)
            results.append(result)
        metrics = {
            metric: spread([r["metrics"][metric]["value"] for r in results])
            for metric in results[0]["metrics"]
        }
        record["workloads"][name] = {
            "pass_times_s": [r["pass_times_s"] for r in results],
            "pass_wall_s": [r["pass_wall_s"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "run_wall_s": spread(walls),
            "metrics": metrics,
        }
        for metric, s in metrics.items():
            bound = bounds.get(metric)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"{name:12s} {metric:40s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" [{s['min']:.6g}, {s['max']:.6g}]{flag}", flush=True)
        print(f"{name:12s} run wall median {statistics.median(walls):.1f} s max {max(walls):.1f} s", flush=True)
    if args.write:
        out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
