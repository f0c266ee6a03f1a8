"""Run the benchmark on several seeds per workload and report each
end-to-end metric's median, quartiles and spread (interquartile distance
over median), next to the bound BENCHMARK.json gives it.

    python3 bench/steadiness.py --seeds 10 [--first-seed 1] [--workload NAME ...] [--out FILE]

Runs the command and run_seconds from BENCHMARK.json, from the repository
root, one run at a time. With --out the record (runs, spreads, machine) is
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace=0):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail = next((json.loads(x)["detail"] for x in lines if x.startswith('{"detail"')), None)
    return json.loads(lines[-1]), detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, detail = run_once(spec, name, seed)
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: outputs failed their checks")
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            record["machine"] = detail["machine"]
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric] for r in runs])
            s.update(bound=bound, within_third_of_bound=s["spread"] < bound / 3)
            summary[metric] = s
            print(f"  {metric:12s} median {s['median']:.6g} spread {s['spread']:.4f} bound {bound}", flush=True)
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
