"""Every job of the benchmark prints its recorded bytes.

``perfbench/digests.json`` holds the sha256 of the stdout of every job the
benchmark can run: 19 exact-mode ``corr`` jobs, 105 eval-mode ``corr`` and
``qdim`` jobs, and 72 oracle and ``verify`` jobs.  The exact-mode outputs
are unreduced rational functions whose printed form depends on the order of
the ring operations, so any change to ``laurent`` or to the correlator
builders that reorders them shows up here as a changed digest, long before
a benchmark run; the eval-mode and oracle outputs pin the rational kernels
and the oracle.  The test reads ``perfbench/`` (the job lists and the
digests) and writes nothing there.
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
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
JOBS = WORKLOADS.universe("exact-corr")
EVAL_JOBS = WORKLOADS.universe("eval-corr")
ORACLE_JOBS = WORKLOADS.universe("oracle-verify")


def _digest(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(job)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_exact_job_has_a_digest():
    assert len(JOBS) == 19
    assert sorted(WORKLOADS.key(job) for job in JOBS) == sorted(DIGESTS["exact-corr"])


@pytest.mark.parametrize("name, jobs, count", [
    ("eval-corr", EVAL_JOBS, 105), ("oracle-verify", ORACLE_JOBS, 72)])
def test_every_eval_and_oracle_job_has_a_digest(name, jobs, count):
    assert len(jobs) == count
    assert sorted(WORKLOADS.key(job) for job in jobs) == sorted(DIGESTS[name])


@pytest.mark.parametrize("job", JOBS, ids=WORKLOADS.key)
def test_exact_corr_output_bytes(job):
    assert _digest(job) == DIGESTS["exact-corr"][WORKLOADS.key(job)]


@pytest.mark.parametrize("job", EVAL_JOBS, ids=WORKLOADS.key)
def test_eval_corr_output_bytes(job):
    assert _digest(job) == DIGESTS["eval-corr"][WORKLOADS.key(job)]


@pytest.mark.parametrize("job", ORACLE_JOBS, ids=WORKLOADS.key)
def test_oracle_verify_output_bytes(job):
    assert _digest(job) == DIGESTS["oracle-verify"][WORKLOADS.key(job)]


# The exact n = 3 output is pinned as well: 1,768,142 bytes of unreduced
# rational functions.  It is the slowest tier-1 test, about 5 s under
# CPython 3.11 on a shared 2-core x86-64 host.
N3_JOB = ("corr", "--algebra", "d", "--level", "1", "--n", "3", "--order", "1",
          "--mode", "exact")
N3_DIGEST = "7700f1f18f43b465676321463993ec6267e9c5789c590d426f8a32f18b6e2515"


def test_exact_n3_output_bytes():
    assert _digest(N3_JOB) == N3_DIGEST


# ``verify all`` runs every identity of the registry at its default sizes and
# prints one line each (25 lines), so its bytes pin the whole registry; about
# 2 s under CPython 3.11 on a shared 2-core x86-64 host.
VERIFY_ALL_DIGEST = "7156d5646e31ea4ec046e5a4cfe96e78e65ba44fcfe5d0cf1db6513888da8613"


def test_verify_all_output_bytes():
    assert _digest(("verify", "all")) == VERIFY_ALL_DIGEST
