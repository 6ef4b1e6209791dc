"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cli = run.import_fockcorr()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_times_of_nested_spans():
    spans = [
        ("correlators.weyl_correlator", 0.0, 10.0, -1),
        ("correlators.eps_inner_sum", 1.0, 6.0, 0),
        ("correlators.f_bo", 2.0, 5.0, 1),
        ("laurent.RationalFunction.__add__", 3.0, 4.0, 2),
        ("weyl.weyl_sum", 7.0, 7.5, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs["correlators"] == pytest.approx((10 - 5 - 0.5) + (5 - 3) + (3 - 1))
    assert selfs["laurent"] == pytest.approx(1.0)
    assert selfs["weyl"] == pytest.approx(0.5)
    assert sum(selfs.values()) == pytest.approx(10.0)
    inclusive = tracer.inclusive_times(spans, tracer.INCLUSIVE)
    assert inclusive["correlators.weyl_correlator"] == pytest.approx(10.0)
    assert inclusive["correlators.eps_inner_sum"] == pytest.approx(5.0)
    assert inclusive["correlators.f_bo"] == pytest.approx(3.0)
    assert inclusive["correlators.half_level_base"] == 0.0


def test_recursive_spans_count_once():
    # f_bo -> laurent -> f_bo: the inner f_bo lies inside the outer one
    spans = [
        ("correlators.f_bo", 0.0, 10.0, -1),
        ("laurent.LaurentPoly.__mul__", 1.0, 8.0, 0),
        ("correlators.f_bo", 2.0, 6.0, 1),
        ("correlators.f_bo", 3.0, 4.0, 2),
    ]
    inclusive = tracer.inclusive_times(spans, ("correlators.f_bo",))
    assert inclusive["correlators.f_bo"] == pytest.approx(10.0)
    selfs = tracer.self_times(spans)
    assert selfs["correlators"] == pytest.approx(3.0 + 3.0 + 1.0)
    assert selfs["laurent"] == pytest.approx(3.0)


def test_same_layer_calls_are_counted_without_a_span():
    tr = tracer.Tracer()
    inner = tr.wrap(lambda: None, "laurent.exact_div")       # always a span
    helper = tr.wrap(lambda: inner(), "laurent.try_exact_div")
    outer = tr.wrap(lambda: helper(), "laurent.RationalFunction.__add__")
    outer()
    assert tr.calls == {"laurent.RationalFunction.__add__": 1,
                        "laurent.try_exact_div": 1, "laurent.exact_div": 1}
    names = [s[0] for s in tr.spans()]
    assert names == ["laurent.RationalFunction.__add__", "laurent.exact_div"]
    assert tr.spans()[1][3] == 0


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

def _bindings():
    """Every module global and class attribute of the package."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "fockcorr" or name.startswith("fockcorr."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, raw in vars(value).items():
                        out[(name, key, attr)] = raw
    return out


def test_traced_run_restores_every_patched_name():
    before = _bindings()
    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        from fockcorr import cli as cli_mod, correlators, identities
        assert cli_mod.correlator is not before[("fockcorr.cli", "correlator")]
        assert identities.trace is not before[("fockcorr.identities", "trace")]
        assert correlators.f_bo.__wrapped__ is before[("fockcorr.correlators", "f_bo")]
        rc, out, err = run.run_job(cli.main, [
            "corr", "--algebra", "d", "--level", "1", "--lambda", "0",
            "--n", "1", "--order", "2", "--mode", "exact"])
        assert rc == 0, err
    finally:
        installed.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    metrics = tracer.layer_metrics(tr)
    assert metrics["laurent.self_s"] > 0
    assert metrics["qseries.mul.calls"] > 0
    assert metrics["correlators.f_bo.s"] > 0
    assert metrics["laurent.max_den_terms"] > 0


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

_VALUES = r"(--lambda |--s[= ]|s=)([^;\s]+)"


def _shape(job):
    """The job with labels and s-values blanked: its sizes only."""
    return re.sub(_VALUES, r"\1*", workloads.key(job).replace(" --det", ""))


def _svals(work):
    return sorted(value for job in work.jobs
                  for flag, value in re.findall(_VALUES, workloads.key(job))
                  if flag != "--lambda ")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_jobs_and_other_seed_other_values(name):
    assert workloads.jobs(name, 7) == workloads.jobs(name, 7)
    base = workloads.jobs(name, 0)
    shapes = sorted(_shape(j) for j in base.jobs)
    others = [workloads.jobs(name, seed) for seed in range(1, 20)]
    for other in others:
        assert sorted(_shape(j) for j in other.jobs) == shapes
    if name == "exact-corr":
        assert any(o.jobs != base.jobs for o in others)
        assert any(o.differential != base.differential for o in others)
    else:
        assert any(_svals(o) != _svals(base) for o in others)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_job_of_every_seed_has_a_reference_digest(name):
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)[name]
    universe = {workloads.key(j) for j in workloads.universe(name)}
    assert universe == set(digests)
    for seed in range(50):
        assert {workloads.key(j) for j in workloads.jobs(name, seed).jobs} <= universe


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = dict(tracer.layer_metrics(tracer.Tracer()))
    layer.update({"correlators.lru_hit_ratio": 0, "trace.overhead_ratio": 0})
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ok_ratio"}


def test_differential_check_passes_on_a_small_exact_job(tmp_path):
    job = ("corr", "--algebra", "d", "--level", "1", "--lambda", "1",
           "--n", "2", "--order", "2", "--mode", "exact")
    work = workloads.Workload("exact-corr", 0, (job,),
                              differential=((job, "2,3"), (job, "3/2,5")))
    assert run.differential(cli.main, work, str(tmp_path)) == []


def test_job_failures_catch_each_failure_class():
    work = workloads.Workload("x", 0, (("a",), ("b",)), replay=True)
    digests = {"a": "0" * 64, "b": run.hashlib.sha256(b"ok\n").hexdigest()}
    results = [
        (0, "changed\n", ""),            # digest mismatch
        (0, "ok\n", ""),
        (2, "", "error: boom"),          # nonzero exit (replay of a)
        (0, "ok\n[FAIL] x\n", ""),       # verify failure (replay of b)
    ]
    fails = run.job_failures(work, results, digests)
    assert len(fails) == 3
    assert "sha256" in fails[0] and "exit code 2" in fails[1]
    assert "verification failed" in fails[2]
    results[3] = (0, "other\n", "")
    assert "differs from the first" in run.job_failures(work, results, digests)[-1]
