"""Record the reference output digests of every job any seed can produce.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: workload -> job (argv joined by spaces) ->
sha256 of the job's stdout.  Run it only at a commit whose outputs are the
reference; a later change must reproduce them bit for bit.  Every exact-corr
job is also checked against eval mode at every s-value of its grid, so that
no seed can pick a failing point.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main():
    cli = run.import_fockcorr()
    cache_dir = os.path.join(run.WORK, f"record-{os.getpid()}")
    out, bad = {}, []
    try:
        for name in workloads.WORKLOADS:
            out[name] = {}
            for job in workloads.universe(name):
                rc, text, err = run.run_job(cli.main, ["--cache-dir", cache_dir, *job])
                if rc != 0 or "[FAIL]" in text:
                    bad.append(f"{workloads.key(job)}: exit {rc}\n{err}{text}")
                out[name][workloads.key(job)] = hashlib.sha256(text.encode()).hexdigest()
                print(f"{name}: {workloads.key(job)}", flush=True)
        for job in workloads.universe("exact-corr"):
            n = int(job[job.index("--n") + 1])
            pairs = tuple((job, s) for s in workloads.EXACT_S[n])
            work = workloads.Workload("exact-corr", 0, (job,), differential=pairs)
            bad += run.differential(cli.main, work, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if bad:
        sys.exit("not recorded:\n" + "\n".join(bad))
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
