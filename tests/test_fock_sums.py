"""The eval-mode Fock sums against the theta route.

``correlators.eps_inner_sum`` and ``half_level_base`` take their series
from ``fock_sums`` where ``fock_route`` picks it.  Eval coefficients are
canonical, so both routes must print the same bytes, truncation included,
on either side of the rule's bound, and the Fock route must refuse exactly
the points the theta route refuses.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcorr import cli, fock_sums
from fockcorr import correlators as corr
from fockcorr.errors import PoleError
from fockcorr.fock_sums import check_poles, f_bo_sum, fock_route
from fockcorr.qseries import NS, RAMOND, LaurentRing, RatFuncRing, RationalRing

RING = RationalRing()
POINTS = (F(2), F(-3), F(5, 7), F(11, 2), F(-13, 3), F(17))


def _theta_eps(units, order, k):
    return corr.eps_sum(lambda v: corr.f_bo(v, RING, order), units, RING, order, k)


def _fock_eps(units, order, k):
    return corr.eps_sum(lambda v: f_bo_sum(v, order), units, RING, order, k)


@pytest.mark.parametrize("n, order", [
    (3, F(7, 2)), (3, 12), (3, 16), (3, 17), (3, F(35, 2)),
    (4, F(11, 2)), (4, 8), (5, F(9, 2)), (6, F(5, 2)), (6, 4)])
def test_both_routes_print_the_same_bytes(n, order):
    units = POINTS[:n]
    for k in (0, F(1, 2), 1, F(-3, 2)):
        assert _theta_eps(units, order, k).dumps() == _fock_eps(units, order, k).dumps()
    for sector in (NS, RAMOND):
        theta = corr.half_level_recursion(sector, units, RING, order)
        assert theta.dumps() == corr.fock_base(sector, units, order).dumps()
        # the routed functions, whichever side of the bound they fall on
        assert corr.half_level_base(sector, units, RING, order).dumps() == theta.dumps()
    assert (corr.eps_inner_sum(units, RING, order, 1).dumps()
            == _theta_eps(units, order, 1).dumps())


@pytest.mark.parametrize("svals", [(F(1, 2), F(-3), F(2, 5)), (F(-2, 3), F(5, 4), F(-7, 2), F(3))])
def test_points_below_one_in_size(svals):
    for sector in (NS, RAMOND):
        assert (corr.half_level_recursion(sector, svals, RING, 6).dumps()
                == corr.fock_base(sector, svals, 6).dumps())
    assert _theta_eps(svals, 6, F(1, 2)).dumps() == _fock_eps(svals, 6, F(1, 2)).dumps()


def test_the_rule_picks_fock_for_the_eval_jobs_and_theta_elsewhere():
    # the eval-corr benchmark jobs run n = 3-4 at orders 6-12
    for n, order in itertools.product((3, 4), (6, 10, 12)):
        assert fock_route(RING, n, F(order))
    for n in (0, 1, 2):
        assert not fock_route(RING, n, F(6))
    assert not fock_route(RING, 3, F(1, 2))
    assert not fock_route(RING, 3, F(17))
    assert fock_route(RING, 8, F(36)) and not fock_route(RING, 8, F(37))
    for ring in (LaurentRing(("z",)), RatFuncRing(("s1", "s2", "s3"))):
        assert not fock_route(ring, 3, F(6))


# s-values whose signed products reach +-1 for about 40% of the triples and
# 70% of the 4-tuples
SMALL = st.sampled_from([F(2), F(3), F(-1, 2), F(3, 2), F(6), F(5), F(-7), F(5, 3),
                         F(7, 2), F(-10, 3)])


def _raises_pole(fn):
    try:
        fn()
    except PoleError as exc:
        return str(exc)
    return None


@given(svals=st.lists(SMALL, min_size=3, max_size=4))
@settings(max_examples=60, deadline=None)
def test_the_fock_guard_refuses_exactly_the_theta_poles(svals):
    units = tuple(svals)
    theta = _raises_pole(lambda: _theta_eps(units, 2, 0))
    assert _raises_pole(lambda: check_poles(units)) == theta
    assert _raises_pole(lambda: corr.half_level_base(NS, units, RING, 2)) == theta


@pytest.mark.parametrize("svals", ["2,3,5,30", "2,3,7,3/2", "2,3,5,-1/5", "-2,3,5,-15"],
                         ids=["t1t2t3=t4", "t2=t1t4", "s3s4=-1", "s4=-s2s3"])
@pytest.mark.parametrize("level", ["1", "1/2"])
def test_four_point_pole_exits_3(svals, level, capsys):
    argv = ["corr", "--algebra", "d", "--level", level, "--n", "4", "--order", "2",
            "--mode", "eval", "--s", svals]
    assert fock_route(RING, 4, F(2))
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "pole-guard violation: theta argument t = 1 (vanishing leading term)\n"


def test_a_sign_error_in_phi_fails_fock_kernel_and_names_its_case(monkeypatch):
    from fockcorr import identities
    states = fock_sums._partition_states

    def planted(order):
        top, exps, parents, plus, minus = states(order)
        return top, exps, parents, minus, plus  # phi's finite part negated

    for fn in (fock_sums._partition_states, fock_sums._factors, f_bo_sum):
        fn.cache_clear()
    monkeypatch.setattr(fock_sums, "_partition_states", planted)
    try:
        line = identities.run("fock-kernel").line()
    finally:
        for fn in (fock_sums._factors, f_bo_sum):
            fn.cache_clear()
    assert line.startswith("[FAIL] fock-kernel (n=1 k=0) order<4 ")
    assert ":: first mismatch at q^1: " in line
