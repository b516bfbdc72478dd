#!/usr/bin/env python3
"""fbl-workbench benchmark: three CLI workloads with certified-output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload norm_search --seed 1 --seconds 30 --trace 0

One client runs the workload's fixed job list round after round (a closed
loop) until --seconds have passed, in this single process, with the BLAS
pinned to one thread.  --trace 0 prints the end-to-end metrics in reference
seconds (see perfbench/reference.py); --trace 1 runs the job list
alternately plain and wrapped by perfbench/tracer.py and prints the
per-layer metrics.  Every job's output is checked by perfbench/jobs.py.
The last stdout line is the result object; the line before it holds the
environment and run details.  See perfbench/README.md.
"""

import os

BLAS_THREADS = 1
# the pin must be in the environment before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(workload, details):
    """Median over fresh interpreters of importing fbl plus a first call."""
    probe = os.path.join(HERE, "first_call.py")
    ref, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, SRC, workload], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if result["exit"] != 0:
            _fail(f"set-up probe exited {result['exit']}")
        ref.append(result["setup_s"])
        wall.append(result["wall_s"])
    details["setup_wall_s"] = statistics.median(wall)
    return statistics.median(ref)


def run_round(jobs, job_list):
    """Run each job once, with a reference loop before the first and after each."""
    results = []
    before = reference.reference_time()
    for job in job_list:
        r = jobs.run_job(job)
        after = reference.reference_time()
        r.ref_s = r.elapsed / ((before + after) / 2) * reference.REFERENCE_S
        before = after
        results.append(r)
    return results


def job_times(rounds):
    """Each job's median time in reference seconds over the rounds."""
    return [statistics.median(rs[i].ref_s for rs in rounds) for i in range(len(rounds[0]))]


def wall_times(rounds):
    """Each job's median wall time over the rounds."""
    return [statistics.median(rs[i].elapsed for rs in rounds) for i in range(len(rounds[0]))]


def end_to_end(jobs, workload, seed, seconds, details):
    setup = measure_setup(workload, details)
    job_list = jobs.make_jobs(workload, seed)
    t0 = time.perf_counter()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(jobs, job_list))
    times = job_times(rounds)
    results = [r for rs in rounds for r in rs]
    failed = sum(not r.ok for r in results)
    worst_gap = max(r.gap for r in results if r.gap is not None)
    details.update(rounds=len(rounds), jobs=len(job_list),
                   wall_clock_s=sum(wall_times(rounds)))
    metrics = {
        "setup_s": _metric(setup, "s"),
        "wall_s": _metric(sum(times), "s"),
        "job_p50_s": _metric(statistics.median(times), "s"),
        "job_tail_s": _metric(max(times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_ops": _metric(1.0 - failed / len(results), "share"),
        "bound_digits": _metric(jobs.digits(worst_gap), "digits"),
    }
    return results, metrics


def per_layer(jobs, tracer, workload, seed, seconds, details):
    """Alternate plain and traced rounds of the job list."""
    job_list = jobs.make_jobs(workload, seed)
    t0 = time.perf_counter()
    plain, traced, spans = [], [], []
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - t0 < seconds:
        plain.append(run_round(jobs, job_list))
        with tracer.Tracer() as tr:
            traced.append(run_round(jobs, job_list))
        spans.append(tr.spans)

    # counts must repeat exactly on identical inputs
    def counts(layers):
        return {k: (s.calls, s.work, s.flops) for k, s in layers.items()}

    repeats = [counts(layers) == counts(spans[0]) for layers in spans[1:]]

    metrics = {}
    for name, *_, fields in tracer.LAYERS:
        first = spans[0][name]
        total = statistics.median(layers[name].total_s for layers in spans)
        own = statistics.median(layers[name].self_s for layers in spans)
        values = {"calls": (first.calls, "count"), "rows": (first.work, "count"),
                  "tuples": (first.work, "count"), "evaluations": (first.work, "count"),
                  "s": (total, "s"), "self_s": (own, "s"),
                  "gflops": (first.flops / total / 1e9 if total else 0.0, "GFLOP/s-computed")}
        for f in fields:
            metrics[f"{name}.{f}"] = _metric(*values[f])
    overhead = sum(job_times(traced)) - sum(job_times(plain))
    metrics["trace.overhead_s"] = _metric(overhead, "s")

    self_s = {name: statistics.median(layers[name].self_s for layers in spans)
              for name, *_ in tracer.LAYERS}
    details.update(traced_rounds=len(traced), jobs=len(job_list),
                   count_mismatches=repeats.count(False),
                   self_s_ranking=sorted(self_s, key=self_s.get, reverse=True)[:4])
    results = [r for rs in plain + traced for r in rs]
    return results, metrics, repeats


def environment(fbl, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "backend": fbl.kernels.BACKEND,
        "seed": seed,
        "commit": _commit(),
    }


def _openblas_threads():
    """Thread count OpenBLAS itself reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fbl", "__init__.py")):
        _fail(f"no fbl sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import fbl

    if os.path.dirname(os.path.dirname(os.path.abspath(fbl.__file__))) != SRC:
        _fail(f"imported fbl from {fbl.__file__}, not from {SRC}")
    import jobs
    import tracer

    if args.workload not in jobs.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(jobs.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    details = {"workload": args.workload, "trace": args.trace,
               "env": environment(fbl, args.seed)}
    repeats = []
    if args.trace:
        results, metrics, repeats = per_layer(jobs, tracer, args.workload, args.seed,
                                                 args.seconds, details)
    else:
        results, metrics = end_to_end(jobs, args.workload, args.seed, args.seconds, details)
    if "fbl.bench" in sys.modules:
        _fail("the benchmark must not import fbl.bench")

    failures = [r.reason for r in results if not r.ok]
    details["failures"] = failures[:5]
    print(json.dumps(details, sort_keys=True))
    # each comparison of a traced round's counts with the first is one more op
    failed = len(failures) + repeats.count(False)
    print(json.dumps({"correct": failed == 0, "attempted": len(results) + len(repeats),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
