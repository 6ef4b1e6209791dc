"""Every exact-mode ``corr`` job of the benchmark prints its recorded bytes.

``perfbench/digests.json`` holds the sha256 of the stdout of every job the
benchmark can run.  The exact-mode outputs are unreduced rational functions
whose printed form depends on the order of the ring operations, so any
change to ``laurent`` or to the correlator builders that reorders them shows
up here as a changed digest, long before a benchmark run.  The test reads
``perfbench/`` (the job list and the digests) and writes nothing there.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from fockcorr import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())["exact-corr"]
JOBS = WORKLOADS.universe("exact-corr")


def test_every_exact_job_has_a_digest():
    assert len(JOBS) == 19
    assert sorted(WORKLOADS.key(job) for job in JOBS) == sorted(DIGESTS)


@pytest.mark.parametrize("job", JOBS, ids=WORKLOADS.key)
def test_exact_corr_output_bytes(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(job)) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[WORKLOADS.key(job)]
