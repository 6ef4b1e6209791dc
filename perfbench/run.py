"""fockcorr benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact-corr --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run is one client in a closed loop: the jobs of the workload, each a
``fockcorr.cli.main(argv)`` call with stdout captured, run one after another
in this process.  One pass of the job list starts from cold ``lru_cache``s,
which its jobs then share; passes repeat until ``--seconds`` have elapsed.

After timing, every output is checked against the digest recorded for that
job (``digests.json``), ``verify`` output must have no ``[FAIL]`` line,
replayed outputs must equal the first ones byte for byte, and on
``exact-corr`` each exact series specialized at s must equal the eval-mode
series.  The last line of stdout is the result object; the line before it
records the environment of the run.

With ``--trace 0`` it reports the end-to-end metrics; set-up time is probed
in fresh interpreters between jobs, spread over the run.  With ``--trace 1``
it alternates plain and traced passes and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
DIGESTS = os.path.join(HERE, "digests.json")
PROBE_GAP_S = 2.0  # setup probes are spread over the run, one per gap at most
LIMITS = ("CPU only: one process, one thread, no accelerator; wall and CPU "
          "times of this process only, no system-wide tracing; the page "
          "cache is not dropped; the machine is shared with other tenants, "
          "so times carry their load")


def import_fockcorr():
    """Import the package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "fockcorr", "__init__.py")):
        print(f"error: no fockcorr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fockcorr
    import fockcorr.cli
    import fockcorr.identities  # noqa: F401  (every layer is loaded)
    if os.path.dirname(os.path.dirname(os.path.abspath(fockcorr.__file__))) != SRC:
        print(f"error: fockcorr was imported from {fockcorr.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return fockcorr.cli


def lru_caches():
    """Every lru_cache of the package, by module (taken before any patching)."""
    return {name: [v for v in vars(mod).values() if hasattr(v, "cache_info")]
            for name, mod in sys.modules.items() if name.startswith("fockcorr.")}


def hit_ratio(caches):
    hits = misses = 0
    for fn in caches:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


def run_job(main, argv):
    """(exit code or None on an exception, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except (Exception, SystemExit):
        return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


def run_pass(main, work, cache_dir, between_jobs=lambda: None):
    """Run the job list once; returns (wall s, CPU s) per job and the results.
    ``between_jobs`` runs before each job, outside its timing."""
    if work.replay:
        argvs = [("--cache-dir", cache_dir) + job for job in work.jobs] * 2
    else:
        argvs = list(work.jobs)
    gc.collect()  # no garbage of an earlier pass is collected in this one
    times, results = [], []
    for argv in argvs:
        between_jobs()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results.append(run_job(main, argv))
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
    return times, results


def job_failures(work, results, digests):
    """One message per failed job of a pass (an empty list when all pass)."""
    n = len(work.jobs)
    fails = []
    for i, (rc, out, err) in enumerate(results):
        job = workloads.key(work.jobs[i % n])
        what = "replay of " + job if i >= n else job
        sha = hashlib.sha256(out.encode()).hexdigest()
        if rc != 0:
            fails.append(f"{what}: exit code {rc}\n{err}")
        elif any(line.startswith("[FAIL]") for line in out.splitlines()):
            fails.append(f"{what}: verification failed\n{out}")
        elif i >= n and out != results[i - n][1]:
            fails.append(f"{what}: replayed output differs from the first")
        elif digests.get(job) != sha:
            fails.append(f"{what}: output sha256 {sha} != reference {digests.get(job)}")
    return fails


def differential(main, work, cache_dir):
    """Exact series specialized at s == eval-mode series, per exact job."""
    from fockcorr.qseries import QSeries
    fails = []
    for job, svals in work.differential:
        argv = list(job) + ([] if "--json" in job else ["--json"])
        rc, exact_out, err = run_job(main, ["--cache-dir", cache_dir] + argv)
        argv[argv.index("exact")] = "eval"
        rc2, eval_out, err2 = run_job(main, argv + ["--s", svals])
        if rc != 0 or rc2 != 0:
            fails.append(f"{workloads.key(job)} at s={svals}: exit {rc}/{rc2}\n{err}{err2}")
            continue
        exact, evald = QSeries.loads(exact_out), QSeries.loads(eval_out)
        point = {f"s{i + 1}": Fraction(s) for i, s in enumerate(svals.split(","))}
        special = {e: c.eval_at(point) for e, c in exact.terms.items()}
        special = {e: c for e, c in special.items() if c}
        if special != evald.terms or exact.trunc != evald.trunc:
            fails.append(f"{workloads.key(job)}: exact series at s={svals} "
                         f"differs from eval mode")
    return fails


def probe_setup(workload, seed):
    """Seconds from spawning an interpreter until fockcorr is imported and
    the job list is generated."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - t0


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown (no git)"


def src_lines():
    total = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def high_percentile(values):
    """90th percentile of the pass times (or of the setup probes).

    On a shared machine a pass runs contended or idle, and which state holds
    changes every few tens of seconds.  The contended state shows up in
    nearly every run and the idle one does not, so a high percentile varies
    less from run to run than the median or the minimum.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(main, work, seconds, trace, run_dir, digests):
    """Timed passes, then the checks; returns (metrics, attempted, failures, info)."""
    caches = lru_caches()
    all_caches = [fn for fns in caches.values() for fn in fns]
    plain, traced, fails = [], [], []
    attempted = 0
    layer_runs, hit_ratios = [], []
    setups = []
    next_probe = 0.0

    def probe_when_due():
        nonlocal next_probe
        if time.perf_counter() >= next_probe:
            setups.append(probe_setup(work.name, work.seed))
            next_probe = time.perf_counter() + PROBE_GAP_S

    deadline = time.perf_counter() + seconds
    k = 0
    while k < 1 + trace or time.perf_counter() < deadline:
        cache_dir = os.path.join(run_dir, f"pass{k}")
        if trace and k % 2:
            tr = tracer.Tracer()
            installed = tracer.install(tr)
            try:
                times, results = run_pass(main, work, cache_dir)
            finally:
                installed.restore()
            traced.append(sum(w for w, _ in times))
            layer_runs.append(tracer.layer_metrics(tr))
            hit_ratios.append(hit_ratio(caches["fockcorr.correlators"]))
        else:
            times, results = run_pass(main, work, cache_dir,
                                      (lambda: None) if trace else probe_when_due)
            plain.append(times)
        for fn in all_caches:
            fn.cache_clear()
        attempted += len(results)
        fails += job_failures(work, results, digests)
        k += 1
    attempted += len(work.differential)
    fails += differential(main, work, cache_dir)
    walls = [sum(w for w, _ in times) for times in plain]
    cpus = [sum(c for _, c in times) for times in plain]
    info = {"passes": k, "pass_wall_s": [round(w, 4) for w in walls],
            "pass_cpu_s": [round(c, 4) for c in cpus]}
    if trace:
        metrics = {}
        for name in layer_runs[-1]:
            values = [run[name] for run in layer_runs]
            metrics[name] = (statistics.median(values) if name.endswith("_s")
                             or name.endswith(".s") else values[-1])
        metrics["correlators.lru_hit_ratio"] = hit_ratios[-1]
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(walls))
        tracer.write_spans(tr, os.path.join(WORK, f"spans-{work.name}.tsv"))
        info["traced_wall_s"] = [round(w, 4) for w in traced]
    else:
        metrics = {"wall_s": high_percentile(walls), "cpu_s": high_percentile(cpus),
                   "setup_s": high_percentile(setups)}
        info["setup_s"] = [round(s, 4) for s in setups]
    return metrics, attempted, fails, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        import_fockcorr()
        workloads.jobs(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0

    cli = import_fockcorr()
    work = workloads.jobs(args.workload, args.seed)
    with open(DIGESTS) as fh:
        digests = json.load(fh)[args.workload]
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        metrics, attempted, fails, info = measure(
            cli.main, work, args.seconds, args.trace, run_dir, digests)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = len(fails)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_ratio"] = (attempted - failed) / attempted
    for msg in fails:
        print(f"FAILED {msg}", file=sys.stderr)
    info.update({"workload": work.name, "seed": work.seed, "jobs": len(work.jobs),
                 "python": platform.python_version(), "git_rev": git_rev(),
                 "nproc": os.cpu_count(), "src_lines": src_lines(),
                 "limits": LIMITS})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
