"""Registry checks at non-default parameters: higher rank, exact z-mode,
and alternate evaluation points.  The default grid lives in the acceptance
module; these push the machinery into corners the grid does not reach.
"""

import inspect
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcorr import cli, identities
from fockcorr import correlators as corr
from fockcorr.combinat import enumerate_labels
from fockcorr.correlators import npoint
from fockcorr.errors import InternalCheckError
from fockcorr.identities import (HOWE_IDS, REGISTRY, Report, _qdim_grid,
                                 check_cor_b, check_graded_a, check_graded_b,
                                 check_gt_osp, check_oracle_a1,
                                 check_qdim_consistency, check_rec_b_half,
                                 check_rec_d_half, check_refined_d,
                                 check_shift_sym, check_weyl_lemma, howe_check)
from fockcorr.qseries import QSeries, RationalRing


def test_howe_d_rank3():
    rep = howe_check("howe-D", l=3, n=1, order=4, svals=(2,))
    assert rep.ok, rep.line()


def test_howe_c_rank3():
    rep = howe_check("howe-C", l=3, n=1, order=4, svals=(2,))
    assert rep.ok, rep.line()


def test_howe_pin_rank2_alternate_point():
    rep = howe_check("howe-Pin", l=2, n=1, order=5, svals=(F(3, 2),))
    assert rep.ok, rep.line()


def test_howe_dhalf_rank2():
    rep = howe_check("howe-Dhalf", l=2, n=1, order=4, svals=(2,))
    assert rep.ok, rep.line()


def test_howe_bhalf_rank2():
    rep = howe_check("howe-Bhalf", l=2, n=1, order=4, svals=(2,))
    assert rep.ok, rep.line()


def test_graded_traces_exact_mode():
    assert check_graded_a(n=1, order=5, mode="exact").ok
    assert check_graded_b(n=1, order=5, mode="exact").ok


def test_howe_exact_mode_two_point():
    # Laurent-level duality with both t-arguments formal
    rep = howe_check("howe-D", l=1, n=2, order=4, mode="exact")
    assert rep.ok, rep.line()
    rep = howe_check("howe-C", l=1, n=1, order=5, mode="exact")
    assert rep.ok, rep.line()
    rep = howe_check("howe-Pin", l=1, n=1, order=4, mode="exact")
    assert rep.ok, rep.line()


@pytest.mark.parametrize("identity, l, lam", [
    ("howe-D", 2, (1, 0)), ("howe-C", 2, (1, 1)), ("howe-Pin", 1, (1,)),
    ("howe-Dhalf", 1, (1,)), ("howe-Bhalf", 1, (0,)),
])
def test_a_wrong_closed_form_fails_under_its_label(monkeypatch, identity, l, lam):
    # one label's correlator scaled by 3/2: the report names that label
    npoint_ = corr.npoint

    def planted(label, *args):
        series = npoint_(label, *args)
        return series * F(3, 2) if label.lam == lam else series

    monkeypatch.setattr(corr, "npoint", planted)
    rep = howe_check(identity, l=l, n=1, order=6, svals=(2,))
    assert not rep.ok
    assert rep.params == {"l": l, "n": 1, "s": (F(2),), "lam": lam}
    assert rep.detail.startswith("first mismatch at q^")


@pytest.mark.parametrize("identity", ["howe-Dhalf", "howe-Bhalf"])
def test_half_level_howe_at_rank_zero(identity, capsys):
    # rank 0: the empty determinant is the one series, and the neutral
    # fermion's trace alone is the level-1/2 correlator
    assert cli.main(["verify", identity, "--l", "0"]) == 0
    assert capsys.readouterr().out == (
        f"[pass] {identity} (l=0 n=1 s=(Fraction(2, 1),)) order<5\n")


@pytest.mark.parametrize("fault", ["early", "asymmetric"])
def test_howe_asserts_where_the_charge_sectors_start(monkeypatch, fault):
    # the completeness argument needs T_k = T_-k starting at q^(k^2/2)
    sectors_ = identities.charge_sectors

    def planted(spec, ops, ring):
        sectors = sectors_(spec, ops, ring)
        k = max(sectors)
        if fault == "early":  # a term below q^(k^2/2) in both T_k and T_-k
            early = QSeries.monomial(ring, k * k / 2 - F(1, 2))
            sectors[k], sectors[-k] = sectors[k] + early, sectors[-k] + early
        else:
            sectors[k] = sectors[k] * F(2)
        return sectors

    monkeypatch.setattr(identities, "charge_sectors", planted)
    with pytest.raises(InternalCheckError, match="charge sector"):
        howe_check("howe-C", l=2, n=1, order=4, svals=(2,))


def test_verify_all_reports_an_internal_check_error_and_goes_on(monkeypatch, capsys):
    # a charge-sector fault makes every Howe check raise; each one is a
    # [FAIL] line with the message, and every identity after it still runs
    sectors_ = identities.charge_sectors

    def planted(spec, ops, ring):
        sectors = sectors_(spec, ops, ring)
        sectors[max(sectors)] = sectors[max(sectors)] * F(2)
        return sectors

    monkeypatch.setattr(identities, "charge_sectors", planted)
    assert cli.main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(REGISTRY)
    failed = {line.split()[1]: line for line in lines if line.startswith("[FAIL]")}
    assert set(failed) == set(HOWE_IDS)
    for key, line in failed.items():
        assert f":: {key}: charge sector " in line


def test_graded_traces_eval_n3():
    assert check_graded_a(n=3, order=3, svals=(2, 3, 5)).ok


def test_recursions_alternate_points():
    assert check_rec_d_half(n=2, order=6, mode="eval", svals=(F(5, 2), 3)).ok
    assert check_rec_b_half(n=2, order=6, mode="eval", svals=(F(5, 2), 3)).ok


def test_recursions_above_one_point_have_an_oracle_route():
    # above n = 1 the subset recursion holds by construction of the base,
    # so a pass has to include the comparison with the oracle
    for check in (check_rec_d_half, check_rec_b_half):
        rep = check(n=2, order=5, mode="eval", svals=(F(5, 2), 3))
        assert rep.ok and rep.checks == 2, rep.line()


def test_rec_d_half_computes_each_subset_trace_once(monkeypatch):
    # one graded trace per nonempty subset of the 3 units, plus the left side
    calls = []
    graded_trace_F = corr.graded_trace_F

    def counted(*args, **kwargs):
        calls.append(args[1])
        return graded_trace_F(*args, **kwargs)

    corr.half_level_base.cache_clear()
    monkeypatch.setattr(corr, "graded_trace_F", counted)
    assert check_rec_d_half(n=3, order=6, mode="eval", svals=(2, 3, 5)).ok
    assert len(calls) <= 2 ** 3


def test_weyl_lemma_rank_zero_reports_rank_zero():
    rep = check_weyl_lemma(l=0, count=1)
    assert rep.ok and rep.params["l"] == 0 and rep.checks == 3


def test_weyl_lemma_spot_high_order():
    assert check_weyl_lemma(wtype="C", l=4, order=18, count=5, seed=7).ok


def test_qdim_duality_at_levels_2_to_9_halves():
    # one oracle-vs-qdim duality check per setup: five at levels 1 and 3/2,
    # then d, c, b at level 2, d, b at level 5/2, d at level 3, d, c, b at
    # level 4 and d, b at level 9/2
    rep = check_qdim_consistency(order=6)
    assert rep.ok, rep.line()
    assert rep.checks == len(_qdim_grid(F(6))) + 16


@pytest.mark.parametrize("family, rank, case", [
    ("Sp2l", 1, {"algebra": "c", "level": 1}),
    ("Pin2l", 4, {"algebra": "b", "level": 4}),
    ("B2l1", 4, {"algebra": "d", "level": F(9, 2)}),
])
def test_a_wrong_dimension_fails_under_its_setup(monkeypatch, family, rank, case):
    # one family's dimensions at one rank are off by one: the duality sum
    # misses the Fock space first at that family's lowest such setup
    dimension = identities.dimension

    def planted(fam, label):
        dim = dimension(fam, label)
        return dim + 1 if fam == family and label.rank() == rank else dim

    monkeypatch.setattr(identities, "dimension", planted)
    rep = check_qdim_consistency(order=6)
    assert not rep.ok
    assert rep.params == case
    assert rep.line().startswith(
        f"[FAIL] qdim-consistency (algebra={case['algebra']} level={case['level']})")


def test_correlator_label_window_scaling():
    # leading exponent of each correlator matches ||weight||^2/2 (the bound
    # used by enumerate_labels), across all three algebras at rank 2
    ring = RationalRing()
    for algebra in ("d", "c", "b"):
        for label in enumerate_labels(algebra, 2, 3):
            series = npoint(label, (F(2),), ring, 3)
            assert F(min(series.terms), 16) == label.norm2() / 2


def _off_poles(svals):
    """No product of t_i^{+-1} (t = s^2) over a nonempty subset equals 1."""
    for eps in itertools.product((-1, 0, 1), repeat=len(svals)):
        if any(eps) and math.prod(s ** (2 * e) for s, e in zip(svals, eps)) == 1:
            return False
    return True


@given(check=st.sampled_from((check_graded_a, check_graded_b)),
       n=st.integers(1, 2), order=st.integers(1, 5),
       svals=st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5)
                      .filter(lambda s: s not in (0, 1, -1)),
                      min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_oracle_equals_graded_trace_at_random_points(check, n, order, svals):
    # the Fock-space trace against the closed graded trace, off the fixed grid
    svals = tuple(svals[:n])
    assume(_off_poles(svals))
    rep = check(n=n, order=order, svals=svals, mode="eval")
    assert rep.ok, rep.line()


@given(identity=st.sampled_from(sorted(HOWE_IDS)),
       l=st.integers(1, 3), n=st.integers(1, 2), order=st.integers(2, 5),
       svals=st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5)
                      .filter(lambda s: s not in (0, 1, -1)),
                      min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_howe_duality_at_random_points(identity, l, n, order, svals):
    # the oracle's graded-trace product against the sum over labels of
    # closed-form correlators, off the fixed grid; at n = 2 the points avoid
    # |s1| = |s2| and s1 s2 = +-1 as well, where the correlators have poles
    svals = tuple(svals[:n])
    assume(_off_poles(svals))
    rep = howe_check(identity, l=l, n=n, order=order, svals=svals, mode="eval")
    assert rep.ok, rep.line()


# ---------------------------------------------------------------------------
# the registry's contract
# ---------------------------------------------------------------------------

VERIFY_FLAGS = ["--order", "3", "--l", "1", "--n", "1", "--type", "C",
                "--s", "2", "--mode", "eval", "--seed", "0", "--count", "1",
                "--kmax", "1", "--mmax", "1"]


@pytest.mark.parametrize("identity", sorted(REGISTRY))
def test_every_runner_parameter_is_a_verify_option(identity, monkeypatch, capsys):
    # with every verify flag given, the CLI passes each parameter the runner
    # takes; the runner-specific partials hide their sector argument
    seen = {}

    def record(identity_id, **kwargs):
        seen.update(kwargs)
        return Report(identity_id, {}, F(0), True)

    monkeypatch.setattr(identities, "run", record)
    assert cli.main(["verify", identity, *VERIFY_FLAGS]) == 0
    params = set(inspect.signature(REGISTRY[identity][0]).parameters)
    assert "sector" not in params
    assert set(seen) == params


@pytest.mark.parametrize("order", [F(3, 2), F(7, 2)])
@pytest.mark.parametrize("identity", sorted(
    key for key, (fn, _) in REGISTRY.items()
    if "order" in inspect.signature(fn).parameters))
def test_every_identity_holds_at_a_fractional_order(identity, order):
    # partition sums and geometric expansions reach every size below the
    # order, int(order) included
    rep = identities.run(identity, order=order)
    assert rep.ok, rep.line()


@pytest.mark.parametrize("check, kwargs, checks", [
    (check_shift_sym, dict(order=3), 5),
    (check_oracle_a1, dict(order=3), 5),
    (check_refined_d, dict(order=3), 6),
    (check_gt_osp, dict(order=4), 2),
    (check_cor_b, dict(order=4), 2),
    (check_rec_d_half, dict(n=1, order=3, mode="eval"), 2),
    (check_rec_d_half, dict(n=2, order=3, mode="eval"), 2),
    (check_rec_b_half, dict(n=1, order=3, mode="eval"), 2),
    (check_rec_b_half, dict(n=2, order=3, mode="eval"), 2),
    # one check per label
    (howe_check, dict(identity="howe-D", l=2, n=1, order=4, svals=(2,)), 5),
    (howe_check, dict(identity="howe-C", l=3, n=1, order=4, svals=(2,)), 7),
    (howe_check, dict(identity="howe-Bhalf", l=2, n=1, order=4, svals=(2,)), 4),
])
def test_a_pass_counts_one_check_per_compared_pair(check, kwargs, checks):
    rep = check(**kwargs)
    assert rep.ok, rep.line()
    assert rep.checks == checks


def _plus_term(fn, rings):
    """``fn`` with q^(3/16) added to each series it returns: no identity
    here has a term at that exponent, so both sides are zero there."""
    def patched(*args, **kwargs):
        series = fn(*args, **kwargs)
        rings.append(series.ring)
        return series + QSeries.monomial(series.ring, F(3, 16))
    return patched


@pytest.mark.parametrize("module, name, run, case, checks, coeff", [
    (corr, "a_npoint", lambda: check_oracle_a1(order=3, mmax=1), {"m": -1}, 1, 1),
    (corr, "refined_form2", lambda: check_refined_d(order=3),
     {"sign": 1, "form": "log"}, 3, 1),
    (identities, "weyl_sum_product_form",
     lambda: check_weyl_lemma(wtype="C", l=1, order=4, count=1),
     {"type": "C", "l": 1, "lam": (F(random.Random(0).randrange(0, 6)),)}, 1, 1),
    # the rec-b-half oracle route compares with half the R trace
    (identities, "trace",
     lambda: check_rec_b_half(n=2, order=4, mode="eval", svals=(2, 3)),
     {"n": 2, "mode": "eval", "route": "oracle"}, 2, F(1, 2)),
])
def test_a_failing_route_reports_its_case_and_first_mismatch(
        monkeypatch, module, name, run, case, checks, coeff):
    # one route of the identity gains a term: the report names the failing
    # case and both coefficients at the first exponent where they differ
    rings = []
    monkeypatch.setattr(module, name, _plus_term(getattr(module, name), rings))
    rep = run()
    assert not rep.ok
    assert rep.params == case
    ring = rings[-1]
    assert rep.detail == (f"first mismatch at q^3/16: {ring.zero()!r} "
                          f"!= {ring.from_fraction(coeff)!r}")
    assert rep.checks == checks
