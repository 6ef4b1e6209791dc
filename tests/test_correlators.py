import itertools
import math
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcorr import correlators
from fockcorr.combinat import ModuleLabel, enumerate_labels
from fockcorr.correlators import (CorrelatorRequest, a_npoint, correlator,
                                  corollary_b_rhs, corollary_b_rhs_log,
                                  corollary_d_rhs, corollary_lhs, em_half, em_one,
                                  eps_inner_sum, f_bo, graded_trace_F, half_level_base, inv_qq,
                                  inv_theta_at, make_ring, make_units, npoint,
                                  qdim, qq_series,
                                  refined_form1, refined_form2, refined_g,
                                  refined_level1, theta_at, theta_k, theta_num_k,
                                  theta_num_at, weyl_correlator)
from fockcorr.errors import LabelError, PoleError
from fockcorr.laurent import LaurentPoly, RationalFunction
from fockcorr.qseries import (NS, RAMOND, LaurentRing, QSeries, RatFuncRing, RationalRing,
                              lattice_points, pochhammer,
                              unit_pow)
from fockcorr.weyl import weyl_qpoly, weyl_sum

SV = ("s",)


def lp(terms):
    return LaurentPoly(SV, {tuple(e): F(c) for e, c in terms.items()})


class TestTheta:
    def test_leading_terms(self):
        th = theta_k(0, 2)
        sm = lp({(1,): 1, (-1,): -1})
        assert th.coeff(0) == sm
        assert th.coeff(1) == -(sm * sm * sm)

    def test_antisymmetry(self):
        th = theta_k(0, 8)
        flipped = th.map_to(th.ring, lambda c: c.subst(SV, {"s": LaurentPoly.var(SV, "s", -1)}))
        assert flipped.first_mismatch(-th) is None

    def test_first_derivative_constant_term(self):
        assert theta_k(1, 3).coeff(0) == lp({(1,): F(1, 2), (-1,): F(1, 2)})

    def test_derivative_at_one(self):
        ring = RatFuncRing(("s1",))
        assert theta_at(1, ring.one(), ring, 8).first_mismatch(
            QSeries.one(ring, 8)) is None
        assert not theta_at(2, ring.one(), ring, 8)


class TestFbo:
    def test_one_point_closed_form(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        lhs = f_bo((u,), ring, 8)
        rhs = inv_qq(ring, 8) * inv_theta_at(u, ring, 8)
        assert lhs.first_mismatch(rhs) is None

    def test_one_point_eval_constant(self):
        ring = RationalRing()
        assert f_bo((F(2),), ring, 3).coeff(0) == F(2, 3)

    def test_one_point_antisymmetry(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        assert f_bo((ring.inv(u),), ring, 6).first_mismatch(
            -f_bo((u,), ring, 6)) is None

    @pytest.mark.parametrize("svals", [(F(2), F(3)), (F(2), F(3), F(5))])
    def test_symmetry_in_arguments(self, svals):
        ring = RationalRing()
        order = 5 if len(svals) == 2 else 4
        base = f_bo(svals, ring, order)
        swapped = f_bo(svals[::-1], ring, order)
        assert base.first_mismatch(swapped) is None

    def test_zero_point_kernel(self):
        ring = RationalRing()
        assert f_bo((), ring, 8).first_mismatch(inv_qq(ring, 8)) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("svals", [(F(1, 2), F(3), F(-2, 5), F(7, 2)),
                                       (F(3), F(-1, 2), F(5), F(2, 7))])
    def test_eval_tuples_below_one_equal_the_exact_kernel(self, n, svals):
        # eval f_bo reads a tuple whose first unit is below 1 in size off the
        # inverted tuple, and so do the sub-tuples of its recursion; the
        # exact kernel, formal in s1 and at the other points as constants,
        # specialized at s1
        svals, order = svals[:n], 3
        ring = RatFuncRing(("s1",))
        units = (ring.var("s1"),) + tuple(map(ring.from_fraction, svals[1:]))
        exact = f_bo(units, ring, order)
        special = {e: c.eval_at({"s1": svals[0]}) for e, c in exact.terms.items()}
        got = f_bo(svals, RationalRing(), order)
        assert got.terms == {e: c for e, c in special.items() if c}
        assert got.trunc == exact.trunc


# A plain reference for f_bo: every permutation's determinant expanded along
# its first row afresh, and every unit power recomputed per term, with
# no cache but that of the theta series.  Theta is built in its product
# form, which the package does not use.  Over RatFuncRing the package
# shares unit powers but must do the same arithmetic in the same order, so
# even exact-mode outputs (whose denominators are not reduced) agree byte
# for byte.  Over the other rings it runs the subset recursion on the
# numerators of the Jacobi triple product, whose values must agree term by
# term.

@lru_cache(maxsize=None)
def _ref_theta_k(k, order):
    """(t d/dt)^k of (s - 1/s) (q;q)^-2 (qs^2;q) (qs^-2;q), t = s^2,
    applied term by term: s^m picks up a factor m/2."""
    ring = LaurentRing(SV)
    qq = pochhammer(ring, 1, 1, 1, order)
    th = (QSeries.monomial(ring, 0, lp({(1,): 1, (-1,): -1}), order)
          * qq.inverse() ** 2
          * pochhammer(ring, ring.var("s", 2), 1, 1, order)
          * pochhammer(ring, ring.var("s", -2), 1, 1, order))
    return th.map_to(ring, lambda c: lp({e: c_e * F(e[0], 2) ** k
                                         for e, c_e in c.terms.items()}))


def _ref_theta_at(k, unit, ring, order):
    def subst(coeff):
        acc = ring.zero()
        for (m,), c in coeff.terms.items():
            acc = acc + ring.from_fraction(c) * unit_pow(ring, unit, m)
        return acc
    return _ref_theta_k(k, order).map_to(ring, subst)


def _ref_det(rows, ring, order):
    n = len(rows)
    if n == 1:
        return rows[0][0] if rows[0][0] is not None else QSeries.zero(ring, order)
    total = QSeries.zero(ring, order)
    for j in range(n):
        entry = rows[0][j]
        if entry is None or not entry:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * _ref_det(minor, ring, order)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _ref_f_bo(units, ring, order):
    order = F(order)
    n = len(units)
    total = QSeries.zero(ring, order)
    for sigma in itertools.permutations(range(n)):
        partial = [ring.one()]
        for m in range(n):
            partial.append(partial[-1] * units[sigma[m]])
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                k = j - i + 1
                if k < 0:
                    row.append(None)
                    continue
                entry = _ref_theta_at(k, partial[n - j], ring, order)
                if k > 1:
                    entry = entry * F(1, math.factorial(k))
                row.append(entry)
            rows.append(row)
        term = _ref_det(rows, ring, order)
        for m in range(1, n + 1):
            term = term * _ref_theta_at(0, partial[m], ring, order).inverse()
        total = total + term
    return (total * qq_series(ring, order).inverse()).truncated(order)


class TestSharedMinors:
    @pytest.mark.parametrize("svals, order", [
        ((F(3),), 6),
        ((F(-2, 3),), F(7, 2)),
        ((F(2), F(-5, 3)), 5),
        ((F(2), F(3), F(5)), 5),
        ((F(-3, 2), F(7), F(2, 5)), 4),
        ((F(2), F(-3, 2), F(5), F(7, 3)), 3),
        ((F(2), F(3), F(-5), F(7, 2), F(1, 11)), 1),
        ((F(-2, 3), F(3), F(5), F(7), F(11, 2)), 2),
    ])
    def test_eval_mode_matches_reference(self, svals, order):
        ring = RationalRing()
        got = f_bo(svals, ring, order)
        ref = _ref_f_bo(svals, ring, order)
        assert got.terms == ref.terms
        assert got.trunc == ref.trunc

    @given(svals=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9)
                          .filter(lambda s: s not in (0, 1, -1)),
                          min_size=1, max_size=4),
           order=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_eval_recursion_matches_reference(self, svals, order):
        svals = tuple(svals)
        assume(_off_poles(svals))
        ring = RationalRing()
        got = f_bo(svals, ring, order)
        ref = _ref_f_bo(svals, ring, order)
        assert got.terms == ref.terms
        assert got.trunc == ref.trunc

    @pytest.mark.parametrize("svals", [(F(2),), (F(3), F(-1, 2))])
    def test_z_graded_laurent_matches_reference(self, svals):
        # eval mode with a grading variable: the Laurent ring, canonical too
        ring = make_ring(len(svals), "eval", ("z",))
        units = make_units(ring, len(svals), "eval", svals)
        assert f_bo(units, ring, 3).dumps() == _ref_f_bo(units, ring, 3).dumps()
        got = graded_trace_F(NS, units, ring, 3, zvar="z")
        ref = _ref_graded_trace_F(NS, units, ring, 3, zvar="z", kernel=_ref_f_bo)
        assert got.dumps() == ref.dumps()

    def test_eval_f_bo_runs_at_most_3_to_the_n_products(self, monkeypatch):
        # the subset recursion makes about 2^|B| products for each subset B
        # of the 4 units, 3^4 in all; the permutation sum made about 350
        ring, order = RationalRing(), 6
        inv_qq(ring, order)
        f_bo.cache_clear()
        calls = Counter()
        mul = QSeries.__mul__

        def counting_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(QSeries, "__mul__", counting_mul)
        f_bo((F(2), F(3), F(5), F(7)), ring, order)
        assert 0 < calls["mul"] <= 3 ** 4

    def test_exact_two_point_bytes_match_reference(self):
        ring = RatFuncRing(("s1", "s2"))
        units = (ring.var("s1"), ring.var("s2"))
        assert f_bo(units, ring, 4).dumps() == _ref_f_bo(units, ring, 4).dumps()

    @given(st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=1000),
        st.builds(F, st.integers(min_value=-10**30, max_value=10**30),
                  st.integers(min_value=1, max_value=10**20))).filter(bool),
        st.integers(min_value=0, max_value=4),
        st.sampled_from((1, F(5, 2), 3, 6)))
    @settings(max_examples=60, deadline=None)
    def test_eval_theta_at_matches_reference(self, s, k, order):
        # s negative, non-integral and large: the integer evaluator must
        # give the per-term values exactly, and N_k (q;q)^-3 (the Jacobi
        # triple product) must equal the reference's product form
        ring = RationalRing()
        ref = _ref_theta_at(k, s, ring, order)
        inv_qq3 = pochhammer(ring, 1, 1, 1, order).inverse() ** 3
        from_num = theta_num_at(k, s, ring, order) * inv_qq3
        for got in (theta_at(k, s, ring, order), from_num):
            assert got.terms == ref.terms
            assert got.trunc == ref.trunc

    @pytest.mark.parametrize("s", [3, -2, F(5, 7), F(-3, 2)])
    def test_eval_theta_numerator_matches_eval_at(self, s):
        # negative and sub-unit s give the common denominator a^M b^M a
        # negative or odd factor; the series is N_k term by term at s
        ring = RationalRing()
        for k in range(4):
            for order in (1, F(7, 2), 8):
                num = theta_num_k(k, order)
                ref = QSeries(ring, {e: c.eval_at({"s": s}) for e, c in num.terms.items()},
                              num.trunc)
                got = theta_num_at(k, s, ring, order)
                assert (got.nums, got.den, got.trunc) == (ref.nums, ref.den, ref.trunc)
                assert got.dumps() == ref.dumps()

    @pytest.mark.parametrize("s", [F(1, 2), F(-2, 5), F(3, 7)])
    def test_eval_numerator_below_one_equals_direct_evaluation(self, s):
        # N_k at |s| < 1 is read off N_k at 1/s, as N_k(1/t) = (-1)^(k+1) N_k(t)
        ring = RationalRing()
        for k in range(5):
            direct = ring.evaluate(theta_num_k(k, 6), s)
            got = theta_num_at(k, s, ring, 6)
            assert (got.nums, got.den, got.trunc) == (direct.nums, direct.den, direct.trunc)

    def test_eval_f_bo_builds_no_laurent_theta(self, monkeypatch):
        # eval mode runs on N_k evaluated term by term: it neither builds
        # the symbolic Theta^(k) nor multiplies Laurent polynomials
        for cached in vars(correlators).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        calls = Counter()
        theta_k_, mul = correlators.theta_k, LaurentPoly.__mul__

        def counting_theta_k(*args):
            calls["theta_k"] += 1
            return theta_k_(*args)

        def counting_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(correlators, "theta_k", counting_theta_k)
        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        f_bo((F(2), F(3), F(5), F(7)), RationalRing(), 6)
        assert calls == Counter()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constant_laurent_units_run_the_rational_kernel(self, n, monkeypatch):
        # eval-mode graded checks pass constant Laurent units: f_bo runs the
        # RationalRing recursion and lifts its result once, so its values
        # are the rational ones and it multiplies no Laurent polynomial
        svals = (F(2), F(-3), F(5, 3))[:n]
        ring = LaurentRing(("z",))
        for cached in vars(correlators).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        calls = Counter()
        mul = LaurentPoly.__mul__

        def counting_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        got = f_bo(tuple(ring.from_fraction(s) for s in svals), ring, 4)
        assert calls == Counter()
        want = f_bo(svals, RationalRing(), 4)
        lifted = QSeries(ring, {e: LaurentPoly.const(ring.vars, c)
                                for e, c in want.terms.items()}, want.trunc)
        assert got.to_json() == lifted.to_json()

    def test_eval_f_bo_scales_and_converts_each_series_once(self, monkeypatch):
        counts = Counter()
        scale, init = QSeries.scale, QSeries.__init__

        def counting_scale(series, c):
            counts["scale"] += 1
            return scale(series, c)

        def counting_init(series, ring, terms, *args, **kwargs):
            counts["conversions"] += ring.mode == "rational"  # to numerators
            init(series, ring, terms, *args, **kwargs)

        monkeypatch.setattr(QSeries, "scale", counting_scale)
        monkeypatch.setattr(QSeries, "__init__", counting_init)
        f_bo.cache_clear()  # the sub-tuples' values come from f_bo's cache
        f_bo.__wrapped__((F(2), F(3), F(5), F(7)), RationalRing(), 6)
        # the subset recursion scales nothing (the permutation sum scaled its
        # 17 entries theta^(k)/k!); a rational series converts its
        # coefficients to numerators once, when it is built from them: about
        # 80 from cold theta numerator caches, 15 from warm ones (146 if both
        # factors of each of the 73 products were converted)
        assert counts["scale"] == 0
        assert counts["conversions"] < 100

    @pytest.mark.parametrize("unit", [F(3, 2), F(-5), F(1, 7), "z1"])
    def test_laurent_theta_at_matches_reference(self, unit):
        # a constant unit (eval mode with z-variables) and a monomial one
        ring = LaurentRing(("z1",))
        u = ring.var("z1", 1, F(2, 3)) if unit == "z1" else ring.from_fraction(unit)
        for k in range(3):
            assert (theta_at(k, u, ring, 4).dumps()
                    == _ref_theta_at(k, u, ring, 4).dumps())

    def test_exact_theta_at_bytes_match_reference(self):
        ring = RatFuncRing(("s1", "s2"))
        s1, s2 = ring.var("s1"), ring.var("s2")
        for unit in (s1, ring.inv(s1), s1 * s2):
            for k in range(3):
                assert (theta_at(k, unit, ring, 4).dumps()
                        == _ref_theta_at(k, unit, ring, 4).dumps())


# Reference eps sum and graded trace: every sign vector and every lattice
# point on its own, as the formulas read.  The package pairs eps with -eps
# through F_bo(q; 1/t) = (-1)^n F_bo(q; t) and folds the k-sum into one
# product per pair; even exact-mode outputs must keep their bytes.

def _ref_eps_inner_sum(units, ring, order, k, kernel=f_bo):
    total = QSeries.zero(ring, F(order))
    for eps in itertools.product((1, -1), repeat=len(units)):
        us = tuple(u if e > 0 else ring.inv(u) for u, e in zip(units, eps))
        x = ring.one()
        for u in us:
            x = x * u
        term = kernel(us, ring, order).scale(unit_pow(ring, x, int(2 * k)))
        total = total + (term if math.prod(eps) > 0 else -term)
    return total


def _ref_graded_trace_F(sector, units, ring, order, zvar=None, zscale=1, kernel=f_bo):
    order = F(order)
    total = QSeries.zero(ring, order)
    for k in lattice_points(sector, order):
        term = _ref_eps_inner_sum(units, ring, order, k, kernel).shift(k * k / 2).truncated(order)
        if zvar is not None:
            term = term.scale(ring.var(zvar, int(zscale * k)))
        total = total + term
    return total.truncated(order)


def _exact_units(n, *extra):
    ring = RatFuncRing(tuple(f"s{i + 1}" for i in range(n)) + extra)
    return ring, tuple(ring.var(f"s{i + 1}") for i in range(n))


# Labels of the n = 3 eval symmetry test, by (algebra, level, lambda).
SYMMETRY_LABELS = [("d", F(1, 2), ()), ("d", 1, (0,)), ("c", 1, (1,)),
                   ("c", 2, (0, 0)), ("b", F(3, 2), (0,)), ("d", F(3, 2), (1,)),
                   ("d", 2, (1, 0))]


@pytest.mark.parametrize("algebra, level, lam", SYMMETRY_LABELS)
@pytest.mark.parametrize("svals", [(F(2), F(3), F(5)), (F(-3, 2), F(7), F(2, 5))])
def test_eval_three_point_symmetries(algebra, level, lam, svals):
    # no closed form is derived from these: each correlator is symmetric in
    # the t_i, and inverting t_1 multiplies it by (-1)^ceil(level)
    label = ModuleLabel(algebra, level, lam)

    def corr(s):
        return correlator(CorrelatorRequest(label, 3, 6, "eval", s))

    base = corr(svals)
    assert base
    for i, j in itertools.combinations(range(3), 2):
        swapped = list(svals)
        swapped[i], swapped[j] = svals[j], svals[i]
        got = corr(tuple(swapped))
        assert got.terms == base.terms and got.trunc == base.trunc
    got = corr((1 / svals[0],) + svals[1:])
    sign = (-1) ** math.ceil(F(level))
    assert (got * sign).terms == base.terms and got.trunc == base.trunc


class TestEpsPairs:
    @given(svals=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7)
                          .filter(lambda s: s not in (0, 1, -1)),
                          min_size=1, max_size=3),
           order=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_f_bo_under_inversion_eval(self, svals, order):
        assume(_off_poles(svals))
        ring = RationalRing()
        inverted = tuple(1 / s for s in svals)
        got = f_bo(inverted, ring, order)
        want = f_bo(tuple(svals), ring, order) * (-1) ** len(svals)
        assert got.terms == want.terms
        assert got.trunc == want.trunc

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_eps_inner_sum_bytes_match_reference(self, n):
        ring, units = _exact_units(n)
        for k in (0, 1, -2, F(1, 2), F(-3, 2)):
            assert (eps_inner_sum(units, ring, 3, k).dumps()
                    == _ref_eps_inner_sum(units, ring, 3, k).dumps())

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_graded_trace_bytes_match_reference(self, n):
        ring, units = _exact_units(n, "z")
        assert (graded_trace_F(NS, units, ring, 3, zvar="z").dumps()
                == _ref_graded_trace_F(NS, units, ring, 3, zvar="z").dumps())
        ring, units = _exact_units(n, "w")
        assert (graded_trace_F(RAMOND, units, ring, 3, zvar="w").dumps()
                == _ref_graded_trace_F(RAMOND, units, ring, 3, zvar="w", zscale=2).dumps())

    def test_zero_points(self):
        ring = RationalRing()
        for k in (0, 2, F(-1, 2)):
            assert (eps_inner_sum((), ring, 4, k).dumps()
                    == _ref_eps_inner_sum((), ring, 4, k).dumps())

    def test_second_label_over_the_same_units_reuses_the_inner_sums(self):
        ring, units = RationalRing(), (F(2), F(3))
        eps_inner_sum.cache_clear()
        npoint(ModuleLabel("d", 2, (1, 0)), units, ring, 5)
        before = eps_inner_sum.cache_info()
        npoint(ModuleLabel("c", 2, (1, 0)), units, ring, 5)
        after = eps_inner_sum.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestTypeA:
    def test_level1_one_point(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        a = a_npoint((3,), 1, (u,), ring, 8)
        ref = f_bo((u,), ring, 8).scale(ring.var("s1", 6)).shift(F(9, 2)).truncated(8)
        assert a.first_mismatch(ref) is None

    def test_level2_trivial_label(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        a = a_npoint((0, 0), 2, (u,), ring, 6)
        ref = f_bo((u,), ring, 6) ** 2 \
            * (QSeries.one(ring, 6) - QSeries.monomial(ring, 1, ring.one(), 6))
        assert a.first_mismatch(ref) is None

    def test_zero_label_prefactor(self):
        ring = RationalRing()
        a = a_npoint((0,) * 3, 3, (F(2),), ring, 5)
        pref = QSeries.one(ring, 5)
        for e in (1, 2, 1):  # j - i over i<j<=3
            pref = pref * (QSeries.one(ring, 5) - QSeries.monomial(ring, e, F(1), 5))
        ref = f_bo((F(2),), ring, 5) ** 3 * pref
        assert a.first_mismatch(ref) is None

    def test_negative_parts_allowed(self):
        ring = RationalRing()
        a = a_npoint((1, -2), 2, (F(2),), ring, 4)
        assert a.coeff(F(5, 2)) != 0  # leading exponent ||lam||^2/2 = 5/2
        with pytest.raises(LabelError):
            a_npoint((-2, 1), 2, (F(2),), ring, 4)


class TestBCDOnePoint:
    def setup_method(self):
        self.ring = RatFuncRing(("s1",))
        self.u = self.ring.var("s1")

    def tp(self, k):
        return self.ring.var("s1", 2 * k) + self.ring.var("s1", -2 * k)

    def test_d_level1(self):
        lab = ModuleLabel("d", 1, (0,))
        d0 = npoint(lab, (self.u,), self.ring, 8)
        assert d0.first_mismatch(f_bo((self.u,), self.ring, 8) * F(2)) is None
        lab = ModuleLabel("d", 1, (2,))
        d2 = npoint(lab, (self.u,), self.ring, 8)
        ref = f_bo((self.u,), self.ring, 8).scale(self.tp(2)).shift(2).truncated(8)
        assert d2.first_mismatch(ref) is None

    def test_c_level1(self):
        fbo = f_bo((self.u,), self.ring, 8)
        for m in (0, 1, 2):
            lab = ModuleLabel("c", 1, (m,))
            got = npoint(lab, (self.u,), self.ring, 8)
            ref = (fbo.scale(self.tp(m)).shift(F(m * m, 2))
                   - fbo.scale(self.tp(m + 2)).shift(F((m + 2) ** 2, 2))).truncated(8)
            assert got.first_mismatch(ref) is None
        # constant term of the m = 0 case: 2/(t^{1/2}-t^{-1/2})
        lab = ModuleLabel("c", 1, (0,))
        c0 = npoint(lab, (self.u,), self.ring, 1)
        s = LaurentPoly.var(("s1",), "s1")
        expect = RationalFunction(LaurentPoly.const(("s1",), 2), s - s ** -1)
        assert c0.coeff(0) == expect

    def test_b_level1(self):
        lab = ModuleLabel("b", 1, (0,))
        b0 = npoint(lab, (self.u,), self.ring, 8)
        ref = f_bo((self.u,), self.ring, 8).scale(self.tp(F(1, 2))).shift(F(1, 8)).truncated(8)
        assert b0.first_mismatch(ref) is None

    def test_b_matches_d_engine_formally(self):
        # the integer-level b formula coincides with the d formula in lambda
        w = (F(3, 2), F(1, 2))
        direct = weyl_correlator(w, "D", 2, (self.u,), self.ring, 6)
        via_label = npoint(ModuleLabel("b", 2, (1, 0)), (self.u,), self.ring, 6)
        assert via_label.first_mismatch(direct) is None

    def test_half_level_dispatch(self):
        lab = ModuleLabel("d", F(1, 2), ())
        assert npoint(lab, (self.u,), self.ring, 6).first_mismatch(
            half_level_base(NS, (self.u,), self.ring, 6)) is None
        lab = ModuleLabel("b", F(1, 2), ())
        assert npoint(lab, (self.u,), self.ring, 6).first_mismatch(
            half_level_base(RAMOND, (self.u,), self.ring, 6)) is None

    def test_t_permutation_symmetry(self):
        ring = RationalRing()
        for algebra, level, lam in (("d", 2, (1, 0)), ("c", 2, (1, 1)),
                                    ("b", 2, (1, 0))):
            lab = ModuleLabel(algebra, level, lam)
            a = npoint(lab, (F(2), F(3)), ring, 4)
            b = npoint(lab, (F(3), F(2)), ring, 4)
            assert a.first_mismatch(b) is None

    def test_t_inversion_parity(self):
        # X(t^{-1}) = -X(t) for the D/C/B observables, so every n-point
        # function flips by (-1)^n under inverting all arguments
        ring = RationalRing()
        cases = ((ModuleLabel("d", 1, (1,)), 1), (ModuleLabel("c", 1, (0,)), 1),
                 (ModuleLabel("b", 1, (0,)), 1),
                 (ModuleLabel("d", 1, (0,)), 2))
        for lab, n in cases:
            svals = (F(2), F(3))[:n]
            inv = tuple(1 / s for s in svals)
            a = npoint(lab, svals, ring, 3)
            b = npoint(lab, inv, ring, 3)
            ref = b if n % 2 == 0 else -b
            assert a.first_mismatch(ref) is None


class TestHalfLevelBases:
    def test_d_empty(self):
        ring = RatFuncRing(("s1",))
        assert half_level_base(NS, (), ring, 8).first_mismatch(
            em_half(ring, 8)) is None

    def test_d_one_point_product_form(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        t, tinv = ring.var("s1", 2), ring.var("s1", -2)
        got = half_level_base(NS, (u,), ring, 8)
        prod = (pochhammer(ring, -t, F(1, 2), 1, 8)
                * pochhammer(ring, -tinv, F(1, 2), 1, 8)
                * em_half(ring, 8).inverse()
                * inv_theta_at(u, ring, 8))
        assert got.first_mismatch(prod) is None

    def test_b_empty(self):
        ring = RatFuncRing(("s1",))
        got = half_level_base(RAMOND, (), ring, 8)
        ref = em_one(ring, 8 - F(1, 16)).shift(F(1, 16))
        assert got.first_mismatch(ref) is None

    def test_b_one_point_product_form(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        t, tinv = ring.var("s1", 2), ring.var("s1", -2)
        got = half_level_base(RAMOND, (u,), ring, 6)
        num = (pochhammer(ring, -t, 1, 1, 6)
               * pochhammer(ring, -tinv, 0, 1, 6)
               * qq_series(ring, 6) ** 2)
        den = (pochhammer(ring, t, 1, 1, 6)
               * pochhammer(ring, tinv, 0, 1, 6)
               * em_one(ring, 6) * F(2))
        ref = (num * den.inverse()).shift(F(1, 16))
        assert got.first_mismatch(ref) is None

    @pytest.mark.parametrize("sector", [NS, RAMOND])
    def test_normalizer_is_inverted_once_per_sector(self, sector, monkeypatch):
        # with f_bo warm, the 7 subset calls of an n = 3 recursion share one
        # normalizer, built once per (sector, ring, order)
        ring, units = RationalRing(), (F(2), F(3), F(5))
        half_level_recursion = correlators.half_level_recursion
        half_level_recursion(sector, units, ring, 6)
        half_level_recursion.cache_clear()
        correlators._half_level_norm.cache_clear()
        calls = Counter()
        inverse = QSeries.inverse

        def counting_inverse(series):
            calls["inverse"] += 1
            return inverse(series)

        monkeypatch.setattr(QSeries, "inverse", counting_inverse)
        half_level_recursion(sector, units, ring, 6)
        assert calls["inverse"] <= 1

    @pytest.mark.parametrize("algebra", ["d", "b"])
    def test_half_level_qdim_inverts_no_normalizer(self, algebra, monkeypatch):
        # qdim's half-level factor is the level-1/2 vacuum (the base at
        # n = 0), so cold its one series inverse is 1/(q;q)
        for cached in (half_level_base, correlators._half_level_norm, inv_qq):
            cached.cache_clear()
        calls = Counter()
        inverse = QSeries.inverse

        def counting_inverse(series):
            calls["inverse"] += 1
            return inverse(series)

        monkeypatch.setattr(QSeries, "inverse", counting_inverse)
        qdim(ModuleLabel(algebra, F(5, 2), (1, 0)), 10)
        assert calls["inverse"] == 1

    @pytest.mark.parametrize("order", [F(1, 16), F(7, 16), F(1, 2), F(15, 16),
                                       F(17, 16), F(5, 2), F(49, 16)])
    def test_half_level_qdim_matches_the_explicit_prefactor(self, order):
        # (-q^{1/2};q) in NS and q^{1/16}(-q;q) in R times (q;q)^-l times the
        # B Weyl sum, known below q^order in NS and q^{order + 1/16} in R,
        # byte for byte, at orders just above and below a power q^{m + 1/16}
        ring = RationalRing()
        for algebra, em, shift in (("d", em_half, 0), ("b", em_one, F(1, 16))):
            for level in (F(1, 2), F(3, 2), F(5, 2)):
                for label in enumerate_labels(algebra, level, max(order, 2)):
                    l = label.rank()
                    ref = (em(ring, order) * inv_qq(ring, order) ** l
                           * weyl_qpoly(label.weight(), "B", l, order))
                    want = ref.shift(shift).truncated(order + shift)
                    assert qdim(label, order).dumps() == want.dumps(), label


class TestClosedSumForms:
    """The partition-identity sum forms of the two 1-point base functions."""

    def test_d_half_sum_form(self):
        # (-q^{1/2};q) [ 1/(t^{1/2}-t^{-1/2}) + sum_r (-1)^r (...) ]; the
        # bracket equals rhs-of-cor-d divided by (t^{1/2}-t^{-1/2})
        ring = RatFuncRing(("s",))
        u = ring.var("s")
        base = half_level_base(NS, (u,), ring, 8)
        inv_sm = ring.inv(ring.var("s") - ring.var("s", -1))
        sum_form = em_half(ring, 8) * corollary_d_rhs(8).scale(inv_sm)
        assert base.first_mismatch(sum_form) is None

    def test_b_half_sum_form(self):
        # q^{1/16} (-q;q) [ (t+1)/(2(t-1)) + sum_r (-1)^r (...) ]
        ring = RatFuncRing(("s",))
        u = ring.var("s")
        base = half_level_base(RAMOND, (u,), ring, 8)
        sum_form = (em_one(ring, 8) * corollary_b_rhs(8)
                    * F(1, 2)).shift(F(1, 16))
        assert base.first_mismatch(sum_form, 8) is None


class TestGradedTraces:
    def test_ns_vacuum_trace(self):
        ring = RatFuncRing(("z",))
        gt = graded_trace_F(NS, (), ring, F(9, 2), zvar="z")
        # sum_k z^k q^{k^2/2}, the NS lattice graded by z itself
        lattice = QSeries.from_terms(ring, [(k * k / 2, ring.var("z", int(k)))
                                            for k in lattice_points(NS, F(9, 2))], F(9, 2))
        ref = lattice * inv_qq(ring, F(9, 2))
        assert gt.first_mismatch(ref) is None

    def test_r_vacuum_lowest_term(self):
        ring = RationalRing()
        gt = graded_trace_F(RAMOND, (), ring, 1)
        assert gt.coeff(F(1, 8)) == 2  # k = +-1/2 both contribute q^{1/8}

    def test_ns_z_zero_coefficient_is_2fbo(self):
        ring = RatFuncRing(("s1", "z"))
        u = ring.var("s1")
        gt = graded_trace_F(NS, (u,), ring, 2, zvar="z")
        two_fbo = f_bo((u,), ring, 2) * F(2)
        for e, c in gt.sorted_terms():
            zpart = {}
            idx = ring.vars.index("z")
            for ee, cc in c.num.terms.items():
                if ee[idx] == 0:
                    zpart[ee] = cc
            znum = LaurentPoly(c.num.vars, zpart)
            ref = two_fbo.terms.get(e)
            if ref is None:
                assert not RationalFunction(znum, c.den)
            else:
                assert RationalFunction(znum, c.den) == ref


class TestGeometric:
    RING = RatFuncRing(SV)

    @pytest.mark.parametrize("order, count", [(F(9, 2), 2), (F(19, 4), 3)])
    def test_positive_step_expands_below_a_fractional_order(self, order, count):
        # 3 s q^(1/2) / (1 - s^2 q^2) = sum_j 3 s^(2j+1) q^(1/2 + 2j); the
        # q^(9/2) term is at the order 9/2, so it is dropped there
        ring = self.RING
        got = correlators._geometric(
            ring, order, [(ring.var("s", 1, 3), F(1, 2), ring.var("s", 2), 2)])
        want = QSeries.from_terms(
            ring, [(F(1, 2) + 2 * j, ring.var("s", 2 * j + 1, 3)) for j in range(count)],
            order)
        assert got.first_mismatch(want) is None
        assert len(got.terms) == count and got.trunc == want.trunc

    def test_zero_step_is_the_exact_quotient(self):
        # (1 + t^-1) / (1 - t^-1) = (t + 1)/(t - 1), one exact q^0 coefficient
        ring = self.RING
        got = correlators._geometric(
            ring, F(5, 2), [(ring.one() + ring.var("s", -2), 0, ring.var("s", -2), 0)])
        s = LaurentPoly.var(SV, "s")
        assert got.terms == {0: RationalFunction(s ** 2 + 1, s ** 2 - 1)}


class TestRefined:
    def test_g_constant_term(self):
        g = refined_g(6)
        s = LaurentPoly.var(SV, "s")
        assert g.coeff(0) == RationalFunction(LaurentPoly.const(SV, 2), s - s ** -1)

    def test_plus_minus_sum_is_full_correlator(self):
        ring = RatFuncRing(("s",))
        d0 = weyl_correlator((F(0),), "D", 1, (ring.var("s"),), ring, 6)
        total = refined_level1(1, 6) + refined_level1(-1, 6)
        assert total.first_mismatch(d0) is None

    def test_matches_displayed_forms(self):
        for sign in (1, -1):
            base = refined_level1(sign, 6)
            assert base.first_mismatch(refined_form1(sign, 6)) is None
            assert base.first_mismatch(refined_form2(sign, 6)) is None

    @pytest.mark.parametrize("form", [refined_level1, refined_form1, refined_form2])
    @pytest.mark.parametrize("sign", [0, 2])
    def test_bad_sign_raises_before_any_work(self, form, sign, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("built a series before checking the sign")

        for name in ("f_bo", "weyl_correlator", "qq_odd"):
            monkeypatch.setattr(correlators, name, no_work)
        with pytest.raises(ValueError, match="sign must be"):
            form(sign, 4)

    def test_literal_log_form_orientation_fails(self):
        # the printed Pochhammer ratio yields the negated correction
        lit = refined_form2(1, 6, literal=True)
        assert refined_level1(1, 6).first_mismatch(lit) is not None
        neg_corr = refined_form2(-1, 6, literal=True)
        assert refined_level1(1, 6).first_mismatch(neg_corr) is None


class TestQdim:
    def test_d_level1_trivial(self):
        qd = qdim(ModuleLabel("d", 1, (0,)), 10)
        assert qd.first_mismatch(inv_qq(RationalRing(), 10)) is None

    def test_c_level1_product(self):
        ring = RationalRing()
        for m in (0, 1, 2):
            qd = qdim(ModuleLabel("c", 1, (m,)), 10)
            ref = (inv_qq(ring, 10)
                   * (QSeries.one(ring, 10)
                      - QSeries.monomial(ring, 2 * (m + 1), F(1), 10)))
            ref = ref.shift(F(m * m, 2)).truncated(10)
            assert qd.first_mismatch(ref) is None

    def test_b_half_level_zero(self):
        qd = qdim(ModuleLabel("b", F(1, 2), ()), 10)
        ref = em_one(RationalRing(), 10).shift(F(1, 16))
        assert qd.first_mismatch(ref) is None

    def test_d_half_prefactor_positive_exponent(self):
        # the (-q^{1/2};q) prefactor (not the printed -q^{-1/2} variant)
        qd = qdim(ModuleLabel("d", F(1, 2), ()), 6)
        assert qd.first_mismatch(em_half(RationalRing(), 6)) is None
        assert min(qd.terms) == 0


class TestCorollaries:
    RING = RatFuncRing(SV)

    def test_d_identity(self):
        lhs = corollary_lhs(NS, self.RING.var("s"), self.RING, 8)
        assert lhs.first_mismatch(corollary_d_rhs(8)) is None

    def test_b_identity_and_log_form(self):
        lhs = corollary_lhs(RAMOND, self.RING.var("s"), self.RING, 8)
        assert lhs.first_mismatch(corollary_b_rhs(8)) is None
        assert lhs.first_mismatch(corollary_b_rhs_log(8)) is None

    @pytest.mark.parametrize("sector", [NS, RAMOND])
    @pytest.mark.parametrize("s", [F(2), F(3, 2), F(-5, 3)])
    def test_rational_ring_product_is_the_exact_one_at_s(self, sector, s):
        # the eval-mode rec-half route builds the product over RationalRing
        evald = corollary_lhs(sector, s, RationalRing(), 8)
        exact = corollary_lhs(sector, self.RING.var("s"), self.RING, 8)
        special = {e: c.eval_at({"s": s}) for e, c in exact.terms.items()}
        assert {e: c for e, c in special.items() if c} == evald.terms
        assert exact.trunc == evald.trunc


class TestRequests:
    def test_eval_pole_guard_on_s(self):
        req = CorrelatorRequest(ModuleLabel("d", 1, (0,)),
                                npoints=1, order=3, mode="eval", eval_points=(1,))
        with pytest.raises(PoleError):
            correlator(req)  # the guard sits in make_units

    def test_eval_pole_guard_on_products(self):
        req = CorrelatorRequest(ModuleLabel("d", 1, (0,)),
                                npoints=2, order=3, mode="eval",
                                eval_points=(2, F(1, 2)))
        with pytest.raises(PoleError):
            correlator(req)  # t1 t2 = 1 poisons a theta denominator

    def test_request_roundtrip(self):
        req = CorrelatorRequest(ModuleLabel("c", 1, (1,)), npoints=1,
                                order=2, mode="eval", eval_points=(2,))
        series = correlator(req)
        assert series.coeff(F(1, 2)) == (F(4) + F(1, 4)) / (F(2) - F(1, 2))


def _off_poles(svals):
    """No product of t_i^{+-1} (t = s^2) over a nonempty subset equals 1."""
    for eps in itertools.product((-1, 0, 1), repeat=len(svals)):
        if any(eps):
            prod = F(1)
            for s, e in zip(svals, eps):
                prod *= s ** (2 * e)
            if prod == 1:
                return False
    return True


@given(algebra=st.sampled_from("bcd"), level=st.sampled_from((F(1), F(3, 2))),
       part=st.integers(0, 2), det=st.booleans(), n=st.integers(1, 2),
       order=st.sampled_from((1, F(3, 2), 2, F(5, 2), 3)),
       svals=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7)
                      .filter(lambda s: s not in (0, 1, -1)),
                      min_size=2, max_size=2))
@settings(max_examples=15, deadline=None)
def test_exact_mode_specialized_at_s_equals_eval_mode(
        algebra, level, part, det, n, order, svals):
    try:
        label = ModuleLabel(algebra, level, (part,), det=det)
    except LabelError:
        assume(False)
    svals = tuple(svals[:n])
    assume(_off_poles(svals))
    exact = correlator(CorrelatorRequest(label, n, order, "exact"))
    evald = correlator(CorrelatorRequest(label, n, order, "eval", svals))
    point = {f"s{i + 1}": s for i, s in enumerate(svals)}
    special = {e: c.eval_at(point) for e, c in exact.terms.items()}
    assert {e: c for e, c in special.items() if c} == evald.terms
    assert exact.trunc == evald.trunc


def _full_length_weyl_correlator(weight, wtype, l, units, ring, order):
    """The Weyl-sum fold with every record's product at full length,
    truncated afterwards."""
    total = QSeries.zero(ring, order)
    for sign, qexp, kvec in weyl_sum(weight, wtype, l, order):
        inner = [eps_inner_sum(units, ring, order, k) for k in kvec]
        term = inner[0]
        for y in inner[1:]:
            term = term * y
        term = term.shift(qexp)
        total = total + (term if sign > 0 else -term)
    return total.truncated(order)


@pytest.mark.parametrize("label", [ModuleLabel("d", 2, (1, 0)), ModuleLabel("c", 3, (1, 0, 0))])
@pytest.mark.parametrize("n", [1, 2])
def test_exact_weyl_products_stop_where_their_shift_leaves_the_sum(label, n):
    # each record's products stop at q^(order - qexp): an exact value keeps
    # its bytes, as the dropped terms enter no surviving coefficient
    ring, units = _exact_units(n)
    weight, wtype, l = label.weight(), label.weyl_type(), label.rank()
    got = weyl_correlator(weight, wtype, l, units, ring, 5)
    want = _full_length_weyl_correlator(weight, wtype, l, units, ring, 5)
    assert got.to_json() == want.to_json()
