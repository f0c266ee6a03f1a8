"""orthoproc benchmark: closed-loop workloads, end-to-end metrics, and an
outside-in per-layer trace.

    python3 bench/run.py --workload select-sweep --seed 1 --seconds 45 --trace 0

Workloads: select-sweep, verify-cli, or ``all`` to run them in turn. With ``--trace 0`` the run measures for ``--seconds`` of job
time and reports the end-to-end metrics; with ``--trace 1`` it runs a fixed,
seed-drawn job list twice (plain, then traced) and reports per-layer metrics,
so their counts repeat exactly. Every job's output is checked outside the
timed region. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("select-sweep", "verify-cli")
END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WORK_NAME = {"select-sweep": "orders_per_s", "verify-cli": "paths_per_s"}
CHILD_TIMEOUT_S = 90


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_package():
    if not (SRC / "orthoproc" / "__init__.py").is_file():
        raise BenchError(f"no orthoproc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import orthoproc

    if Path(orthoproc.__file__).resolve().parent != (SRC / "orthoproc").resolve():
        raise BenchError(f"imported orthoproc from {orthoproc.__file__}, not from {SRC}")
    return orthoproc


def _tail(times):
    """Highest percentile with at least ten jobs beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "orthoproc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_record(thread_env):
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_seen_by_children": thread_env,
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
    }


class Runner:
    """Runs children in a scratch directory inside the checkout."""

    def __init__(self, op, sizes, work_dir: Path):
        self.op = op
        self.sizes = sizes
        self.work_dir = work_dir.resolve()
        self.count = 0
        self.failures = []
        self.thread_env = None
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def new_dir(self):
        self.count += 1
        path = self.work_dir / f"job{self.count}"
        path.mkdir()
        return path

    def child(self, job: dict, job_dir: Path):
        """Run one child in ``job_dir``; returns (wall seconds, stats, error).
        stats is None and error a reason when the child left no stats."""
        (job_dir / "job.json").write_text(json.dumps(job))
        argv = [sys.executable, str(BENCH / "child.py"), str(SRC), "job.json", "stats.json"]
        timeout = CHILD_TIMEOUT_S + (job.get("seconds") or 0)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=job_dir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, "timed out"
        wall = time.perf_counter() - start
        try:
            stats = json.loads((job_dir / "stats.json").read_text())
        except (OSError, ValueError):
            last = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return wall, None, f"exit {proc.returncode}, no stats: {' '.join(last)}"
        if self.thread_env is None:
            self.thread_env = stats["thread_env"]
        return wall, stats, None

    def fail(self, what, reason):
        self.failures.append(f"{what}: {reason}")

    def check(self, fn, *args):
        """Run one output check; a check that raises on malformed output
        fails the job instead of the run."""
        try:
            return fn(self.op, *args)
        except Exception as exc:
            return f"check raised {exc!r}"

    # -- select-sweep -------------------------------------------------------

    def sweep(self, jobs, seconds, trace):
        """One child runs select_N over ``jobs`` (until ``seconds`` if set)."""
        job_dir = self.new_dir()
        wall, stats, err = self.child({"kind": "sweep", "jobs": jobs, "seconds": seconds, "trace": trace}, job_dir)
        if err:
            raise BenchError(f"select-sweep child failed: {err}")
        results = stats["results"]
        records = []
        for i, (job, result) in enumerate(zip(jobs, results)):
            reason = self.check(workloads.check_select, job, result)
            if reason:
                self.fail(f"select job {i}", reason)
            n = result.get("selected_n")
            orders = (job["n_max"] if n is None else n) + 1
            records.append({"s": result["s"], "ok": reason is None, "work": orders if reason is None else 0})
        shutil.rmtree(job_dir)
        return records, stats, wall

    def setup_probes(self, count):
        samples = []
        for _ in range(count):
            job_dir = self.new_dir()
            _, stats, err = self.child({"kind": "probe"}, job_dir)
            if err:
                raise BenchError(f"import probe failed: {err}")
            samples.append(stats["import_s"])
            shutil.rmtree(job_dir)
        return samples

    # -- verify-cli ---------------------------------------------------------

    def verify_job(self, job, trace):
        job_dir = self.new_dir()
        (job_dir / "cfg.json").write_text(json.dumps(job))
        out_dir = job_dir / "out"
        argv = ["verify", "--config", str(job_dir / "cfg.json"), "--out", str(out_dir)]
        wall, stats, err = self.child({"kind": "cli", "argv": argv, "trace": trace}, job_dir)
        record = {"s": wall, "ok": False, "work": 0}
        if err is None:
            err = self.check(workloads.check_verify, job, stats["rc"], out_dir)
            record.update(
                import_s=stats["import_s"],
                startup_s=wall - stats["import_s"] - stats["main_s"],
                main_s=stats["main_s"],
                rss_kb=stats["maxrss_kb"],
                bytes_out=sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0,
                trace=stats.get("trace"),
            )
        if err:
            self.fail(f"verify job seed={job['seed']}", err)
        else:
            record.update(ok=True, work=job["paths"])
        shutil.rmtree(job_dir)
        return record


def end_to_end(runner, workload, seed, seconds):
    """Closed loop for ``seconds`` of job time; returns (metrics, detail)."""
    if workload == "select-sweep":
        # import probes before and after the sweep sample the machine's state
        # across the run, as verify-cli's per-job imports do
        setup = runner.setup_probes(runner.sizes.setup_probes // 2)
        jobs = workloads.select_jobs(seed, runner.sizes)
        # far more requests than a run can reach; the child stops at the deadline
        job_list = [next(jobs) for _ in range(max(64, int(seconds * 200)))]
        records, stats, _ = runner.sweep(job_list, seconds, False)
        setup += [stats["import_s"]] + runner.setup_probes(runner.sizes.setup_probes - len(setup))
        rss_kb = [stats["maxrss_kb"]]
        busy = sum(r["s"] for r in records)
    else:
        stream = workloads.verify_jobs(seed, runner.sizes, runner.workers)
        records, setup, rss_kb, busy = [], [], [], 0.0
        while busy < seconds:
            record = runner.verify_job(next(stream), False)
            records.append(record)
            busy += record["s"]
            if "import_s" in record:
                setup.append(record["import_s"])
                rss_kb.append(record["rss_kb"])
    if not records:
        raise BenchError(f"{workload}: no job ran")
    if not setup or not rss_kb:
        raise BenchError(f"{workload}: no child reported its import time or memory")
    times = [r["s"] for r in records]
    tail, pct = _tail(times)
    work = sum(r["work"] for r in records)
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail,
        "work_per_s": work / busy,
        "peak_rss_mb": max(rss_kb) / 1024.0,
    }
    detail = {
        "jobs": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "job_s_tail_percentile": round(pct, 2),
        "setup_samples": len(setup),
        "busy_s": busy,
        WORK_NAME[workload]: metrics["work_per_s"],
        "work_units": work,
    }
    return metrics, detail


RULE_BUILDERS = ("quadrature.gauss_legendre_rule", "quadrature.semi_infinite_rule", "quadrature.cosine_mapped_rule")
LAYER_UNITS = {
    # name: (unit, better)
    "quadrature.rules_built": ("count", "lower"),
    "quadrature.rule_nodes": ("count", "lower"),
    "quadrature.rule_reuse": ("ratio", "higher"),
    "quadrature.self_s": ("s", "lower"),
    "orthopoly.legendre_pair_calls": ("count", "lower"),
    "orthopoly.legendre_pair_s": ("s", "lower"),
    "orthopoly.block_evals": ("count", "lower"),
    "orthopoly.block_s": ("s", "lower"),
    "specfun.hyp2f1_calls": ("count", "lower"),
    "specfun.hyp2f1_s": ("s", "lower"),
    "bounds.orders_scanned": ("count", "higher"),
    "bounds.c_n_calls": ("count", "lower"),
    "bounds.c_n_self_s": ("s", "lower"),
    "bounds.gf_oracle_calls": ("count", "lower"),
    "bounds.gf_oracle_s": ("s", "lower"),
    "bounds.tail_weight_calls": ("count", "lower"),
    "bounds.tail_weights_computed": ("count", "lower"),
    "bounds.tail_weights_s": ("s", "lower"),
    "process.coef_tables": ("count", "lower"),
    "process.coef_rows": ("count", "lower"),
    "process.coef_row_reuse": ("ratio", "higher"),
    "process.coef_s": ("s", "lower"),
    "process.xi_draws": ("count", "lower"),
    "process.draw_xi_s": ("s", "lower"),
    "process.rng_streams": ("count", "lower"),
    "process.path_rng_s": ("s", "lower"),
    "process.verify_self_s": ("s", "lower"),
    "process.synth_calls": ("count", "lower"),
    "process.synth_s": ("s", "lower"),
    "cli.cmd_self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.jobs": ("count", "higher"),
}


def layer_metrics(summaries, orders_scanned, bytes_out, startup_s, job_inside_s, overhead, jobs):
    """Per-layer metrics from the traced children's summaries. Every time
    is a self time summed over the traced pass."""

    def f(name, field="calls"):
        return sum(s["functions"].get(name, {}).get(field, 0) for s in summaries)

    rules = sum(f(n) for n in RULE_BUILDERS)
    coef_rows = f("process.compute_coefficients", "units")
    self_times = {
        "quadrature.self_s": sum(
            f(n, "self_s") for n in RULE_BUILDERS + ("quadrature.simpson_weights",)
        ),
        "orthopoly.legendre_pair_s": f("orthopoly.legendre_pair", "self_s"),
        "orthopoly.block_s": f("orthopoly.orthonormal_block", "self_s"),
        "specfun.hyp2f1_s": f("specfun.hyp2f1_regularized", "self_s"),
        "bounds.c_n_self_s": f("bounds.c_n_bound", "self_s") + f("bounds.select_N", "self_s"),
        "bounds.gf_oracle_s": f("bounds.gf_square_integral_oracle", "self_s"),
        "bounds.tail_weights_s": f("bounds.tail_weights", "self_s"),
        "process.coef_s": f("process.compute_coefficients", "self_s"),
        "process.draw_xi_s": f("process.draw_xi", "self_s"),
        "process.path_rng_s": f("process.path_rng", "self_s"),
        "process.verify_self_s": f("process.verify_reliability", "self_s"),
        "process.synth_s": f("process.synthesize_path", "self_s"),
        "cli.cmd_self_s": sum(
            f(f"cli.{c}", "self_s") for c in ("cmd_bound", "cmd_select_n", "cmd_simulate", "cmd_verify", "cmd_tables")
        ),
        "cli.main_self_s": f("cli.main", "self_s"),
    }
    m = {
        "quadrature.rules_built": rules,
        "quadrature.rule_nodes": sum(f(n, "units") for n in RULE_BUILDERS),
        "quadrature.rule_reuse": sum(f(n, "distinct") for n in RULE_BUILDERS) / rules if rules else 0.0,
        "orthopoly.legendre_pair_calls": f("orthopoly.legendre_pair"),
        "orthopoly.block_evals": f("orthopoly.orthonormal_block"),
        "specfun.hyp2f1_calls": f("specfun.hyp2f1_regularized"),
        "bounds.orders_scanned": orders_scanned,
        "bounds.c_n_calls": f("bounds.c_n_bound"),
        "bounds.gf_oracle_calls": f("bounds.gf_square_integral_oracle"),
        "bounds.tail_weight_calls": f("bounds.tail_weights"),
        "bounds.tail_weights_computed": f("bounds.tail_weights", "units"),
        "process.coef_tables": f("process.compute_coefficients"),
        "process.coef_rows": coef_rows,
        "process.coef_row_reuse": orders_scanned / coef_rows if coef_rows else 0.0,
        "process.xi_draws": f("process.draw_xi"),
        "process.rng_streams": f("process.path_rng"),
        "process.synth_calls": f("process.synthesize_path"),
        "cli.bytes_out": bytes_out,
        "cli.startup_s": startup_s,
        "trace.overhead": overhead,
        "trace.unattributed_s": job_inside_s - sum(self_times.values()),
        "trace.jobs": jobs,
    }
    m.update(self_times)
    missing = set(LAYER_UNITS) ^ set(m)
    if missing:
        raise BenchError(f"layer metrics out of step with LAYER_UNITS: {sorted(missing)}")
    return {name: m[name] for name in LAYER_UNITS}


def traced(runner, workload, seed):
    """Fixed job list, run plain then traced; returns (metrics, detail)."""
    if workload == "select-sweep":
        jobs = workloads.select_jobs(seed, runner.sizes)
        job_list = [next(jobs) for _ in range(20 * runner.sizes.trace_rounds)]
        plain, _, _ = runner.sweep(job_list, None, False)
        records, stats, wall = runner.sweep(job_list, None, True)
        summaries = [stats["trace"]]
        orders = sum(r["work"] for r in records)
        bytes_out = 0
        startup = wall - stats["import_s"] - stats["main_s"]
        inside = sum(r["s"] for r in records)
    else:
        stream = workloads.verify_jobs(seed, runner.sizes, runner.workers)
        plain, records = [], []
        for _ in range(len(workloads.VERIFY_CONFIGS) * runner.sizes.trace_rounds):
            job = next(stream)
            plain.append(runner.verify_job(job, False))
            records.append(runner.verify_job(job, True))
        done = [r for r in records if r.get("trace")]
        summaries = [r["trace"] for r in done]
        orders = 0
        bytes_out = sum(r["bytes_out"] for r in done)
        startup = sum(r["startup_s"] for r in done)
        inside = sum(r["main_s"] for r in done)
    overhead = statistics.median(r["s"] for r in records) / statistics.median(r["s"] for r in plain)
    metrics = layer_metrics(summaries, orders, bytes_out, startup, inside, overhead, len(records))
    all_records = plain + records
    failed = sum(not r["ok"] for r in all_records)
    detail = {"jobs": len(all_records), "failed": failed, "error_rate": failed / len(all_records)}
    return metrics, detail


def run_workload(op, workload, seed, seconds, trace, sizes, work_dir):
    """One workload; returns (metrics, units, detail)."""
    runner = Runner(op, sizes, work_dir)
    if trace:
        metrics, detail = traced(runner, workload, seed)
        units = {k: LAYER_UNITS[k][0] for k in metrics}
    else:
        metrics, detail = end_to_end(runner, workload, seed, seconds)
        units = dict(END_TO_END)
    detail["workload"] = workload
    detail["failures"] = runner.failures[:5]
    detail["machine"] = machine_record(runner.thread_env)
    return metrics, units, detail


def _print_block(workload, metrics, units, detail):
    print(f"# {workload}: {detail['jobs']} jobs, {detail['failed']} failed")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':32s} {detail['error_rate']:>14.6g} (failed / attempted)")
    if "job_s_tail_percentile" in detail:
        print(f"{'job_s_tail is percentile':32s} {detail['job_s_tail_percentile']:>14.6g}")
        work = WORK_NAME[workload]
        print(f"{work:32s} {detail[work]:>14.6g} 1/s")
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        op = _import_package()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".bench_work" / f"run{os.getpid()}"
    work_root.mkdir(parents=True)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            work_dir = work_root / name
            work_dir.mkdir()
            metrics, units, detail = run_workload(op, name, args.seed, args.seconds, args.trace, workloads.FULL, work_dir)
            _print_block(name, metrics, units, detail)
            out["attempted"] += detail["jobs"]
            out["failed"] += detail["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in metrics.items():
                out["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
