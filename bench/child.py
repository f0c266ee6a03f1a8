"""One benchmark child: a fresh interpreter that imports orthoproc and runs
one job.

    python3 child.py SRC JOB_JSON STATS_JSON

SRC is the directory holding the ``orthoproc`` package. The job file names
a kind: ``probe`` only imports the package, ``cli`` calls
``orthoproc.cli.main(argv)`` once, and ``sweep`` calls ``orthoproc.select_N``
over a job list until an optional deadline. With ``"trace": true`` the layer
tracer is installed after the import and its summary lands in the stats
file. The exit code is the CLI's, or 0.
"""

import sys
import time


def _spec(orthoproc, job):
    # same as workloads._spec; the child stays free of the checking code
    return orthoproc.ProcessSpec(
        kernel=orthoproc.builtin_kernel(job["kernel"]),
        family=orthoproc.PolynomialFamily(job["family"], job.get("family_alpha")),
        horizon=job["horizon"],
        p=job["p"],
        orlicz=orthoproc.OrliczSpec(job["gamma"]),
        tail=orthoproc.TailBoundSpec(job["tau"], job["w"]),
    )


def _sweep(orthoproc, job, tracer):
    """Closed loop of select_N calls; returns one result per call made."""
    results = []
    deadline = None if job["seconds"] is None else time.perf_counter() + job["seconds"]
    for i, sel in enumerate(job["jobs"]):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.job = i
        spec = _spec(orthoproc, sel)
        res = orthoproc.Resolution(
            spectral_nodes=sel["spectral_nodes"], oracle_nodes=sel["oracle_nodes"]
        )
        start = time.perf_counter()
        try:
            out = orthoproc.select_N(spec, sel["delta"], sel["alpha"], sel["n_max"], resolution=res)
        except Exception as exc:  # a raising job is a failed job, not a failed run
            results.append({"s": time.perf_counter() - start, "error": repr(exc)})
            continue
        results.append(
            {
                "s": time.perf_counter() - start,
                "selected_n": out.selected_n,
                "c_n": None if out.report is None else out.report.c_n,
                "best_n": out.best_n,
                "best_c_n": out.best_c_n,
            }
        )
    return results


def _peak_rss_kb():
    """This process's own resident high-water mark. ru_maxrss is not used:
    on Linux it keeps the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    src, job_path, stats_path = sys.argv[1:4]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import orthoproc

    import_s = time.perf_counter() - start

    import json
    import os

    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(orthoproc)

    stats = {"import_s": import_s, "package_file": orthoproc.__file__}
    rc = 0
    start = time.perf_counter()
    if job["kind"] == "cli":
        rc = orthoproc.cli.main(job["argv"])
    elif job["kind"] == "sweep":
        stats["results"] = _sweep(orthoproc, job, tracer)
    stats["main_s"] = time.perf_counter() - start
    stats["rc"] = rc
    stats["maxrss_kb"] = _peak_rss_kb()
    stats["thread_env"] = {
        k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    if tracer is not None:
        stats["trace"] = tracer.summary()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
