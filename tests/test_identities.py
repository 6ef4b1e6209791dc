"""Registry checks at non-default parameters: higher rank, exact z-mode,
and alternate evaluation points.  The default grid lives in the acceptance
module; these push the machinery into corners the grid does not reach.
"""

import itertools
import math
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcorr import correlators as corr
from fockcorr.combinat import enumerate_labels
from fockcorr.correlators import npoint
from fockcorr.identities import (_HOWE_SETUP, _qdim_grid, check_graded_a,
                                 check_graded_b, check_qdim_consistency,
                                 check_rec_b_half, check_rec_d_half,
                                 check_weyl_lemma, howe_check)
from fockcorr.qseries import RationalRing


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


def test_qdim_duality_at_levels_2_to_3():
    # one oracle-vs-qdim duality check per setup: five at levels 1 and 3/2,
    # then d, c, b at level 2, d, b at level 5/2 and d at level 3
    rep = check_qdim_consistency(order=6)
    assert rep.ok, rep.line()
    assert rep.checks == len(_qdim_grid(F(6))) + 11


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


@given(identity=st.sampled_from(sorted(_HOWE_SETUP)),
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
