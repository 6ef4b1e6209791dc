"""The eval-mode Fock sums against the theta route.

``correlators.eps_inner_sum`` and ``half_level_base`` take their series
from ``fock_sums`` where ``fock_route`` picks it.  Eval coefficients are
canonical, so both routes must print the same bytes, truncation included,
on either side of the rule's bound, and the Fock route must refuse exactly
the points the theta route refuses.
"""

import itertools
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcorr import cli, fock_sums
from fockcorr import correlators as corr
from fockcorr.errors import PoleError
from fockcorr.fock_sums import check_poles, eps_sum_fock, f_bo_sum, fock_route
from fockcorr.qseries import NS, RAMOND, LaurentRing, QSeries, RatFuncRing, RationalRing

RING = RationalRing()
POINTS = (F(2), F(-3), F(5, 7), F(11, 2), F(-13, 3), F(17))


def _theta_eps(units, order, k):
    return corr.eps_sum(units, RING, order, k)


def _fock_eps(units, order, k):
    return eps_sum_fock(units, order, abs(int(2 * F(k))))


def _sign_vector_fock_eps(units, order, k):
    """The eps sum over the sign vectors with eps_1 = +1, F_bo the partition
    sum: the Fock route before the sum was factorized."""
    k2 = int(2 * F(k))
    return QSeries.sum_products(RING, [
        (sign, 0, f_bo_sum(us, order), corr._pair_weights(RING, uprod, [k2], len(us))[0])
        for sign, us, uprod in corr._eps_data(units, RING)], order)


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

    for fn in (fock_sums._partition_states, fock_sums._factors, f_bo_sum, eps_sum_fock):
        fn.cache_clear()
    monkeypatch.setattr(fock_sums, "_partition_states", planted)
    try:
        line = identities.run("fock-kernel").line()
    finally:
        for fn in (fock_sums._factors, f_bo_sum, eps_sum_fock):
            fn.cache_clear()
    assert line.startswith("[FAIL] fock-kernel (n=1 k=0) order<4 ")
    assert ":: first mismatch at q^1: " in line


def test_a_sign_error_in_the_t_minus_k_term_fails_fock_kernel(monkeypatch):
    from fockcorr import identities

    def planted(states, unit, k2):
        (d, nums), (_, inv) = (fock_sums._factors(states, unit, False),
                               fock_sums._factors(states, 1 / unit, False))
        x, y = unit.numerator ** k2, unit.denominator ** k2
        return x * y * d, [x * x * n - y * y * m for n, m in zip(nums, inv)]

    eps_sum_fock.cache_clear()
    monkeypatch.setattr(fock_sums, "_eps_table", planted)
    try:
        line = identities.run("fock-kernel").line()
    finally:
        eps_sum_fock.cache_clear()
    assert line.startswith("[FAIL] fock-kernel (n=1 k=0) order<4 :: first mismatch at q^0: ")


@pytest.mark.parametrize("n, order", [
    (3, 1), (3, F(5, 2)), (3, 12), (3, 17), (4, 6), (4, F(41, 2)), (5, 10), (6, 4), (6, 29)])
def test_the_factorized_eps_sum_is_the_sign_vector_sum(n, order):
    # fock_route's bound is 4n + 4: (3, 17), (4, 41/2) and (6, 29) lie
    # beyond it, where eps_inner_sum runs the theta route
    units = POINTS[:n]
    for k in (0, F(1, 2), F(-1, 2), 1, -1, F(3, 2), 2, F(-5, 2), 3):
        fock = _fock_eps(units, order, k)
        signed = _sign_vector_fock_eps(units, order, k)
        assert (fock.nums, fock.den, fock.trunc) == (signed.nums, signed.den, signed.trunc)
        assert fock.dumps() == signed.dumps()
        if n <= 4:
            assert corr.eps_inner_sum(units, RING, F(order), k).dumps() == fock.dumps()
        if n <= 4 and order <= 12:
            assert _theta_eps(units, order, k).dumps() == fock.dumps()


@given(units=st.lists(st.sampled_from([F(2), F(-2), F(3), F(1, 2), F(-3, 2), F(2, 3), F(6),
                                       F(-1, 6), F(5), F(4), F(-1), F(1, 4)]),
                      min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_check_poles_is_the_brute_force_test(units):
    units = tuple(units)
    pole = any(any(e) and prod(abs(u) ** x for u, x in zip(units, e)) == 1
               for e in itertools.product((-1, 0, 1), repeat=len(units)))
    assert (_raises_pole(lambda: check_poles(units)) is not None) == pole


def test_check_poles_reaches_sixteen_points():
    primes = tuple(map(F, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)))
    check_poles(primes)  # no product of distinct primes is 1
    with pytest.raises(PoleError):
        check_poles(primes[:15] + (F(6, 35),))  # 6/35 * 5 * 7 / (2 * 3) = 1
