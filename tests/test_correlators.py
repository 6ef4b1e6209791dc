import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcorr import qseries
from fockcorr.combinat import ModuleLabel
from fockcorr.correlators import (CorrelatorRequest, a_npoint, correlator,
                                  corollary_b_lhs, corollary_b_rhs,
                                  corollary_b_rhs_log, corollary_d_lhs,
                                  corollary_d_rhs, em_half, em_one,
                                  eps_inner_sum, f_bo, graded_trace_F, half_level_base, inv_qq,
                                  inv_theta_at, make_ring, make_units, npoint,
                                  qdim, qq_series,
                                  refined_form1, refined_form2, refined_g,
                                  refined_level1, theta, theta_at, theta_k,
                                  weyl_correlator)
from fockcorr.errors import LabelError, PoleError
from fockcorr.laurent import LaurentPoly, RationalFunction
from fockcorr.qseries import (QSeries, RatFuncRing, RationalRing,
                              lattice_points, lattice_sum, pochhammer,
                              unit_pow)

SV = ("s",)


def lp(terms):
    return LaurentPoly(SV, {tuple(e): F(c) for e, c in terms.items()})


class TestTheta:
    def test_leading_terms(self):
        th = theta(2)
        sm = lp({(1,): 1, (-1,): -1})
        assert th.coeff(0) == sm
        assert th.coeff(1) == -(sm * sm * sm)

    def test_antisymmetry(self):
        th = theta(8)
        flipped = th.map_coeffs(lambda c: c.invert_vars(("s",)))
        assert flipped.first_mismatch(-th) is None

    def test_first_derivative_constant_term(self):
        assert theta_k(1, 3).coeff(0) == lp({(1,): F(1, 2), (-1,): F(1, 2)})

    def test_derivative_at_one(self):
        ring = RatFuncRing(("s1",))
        assert theta_at(1, ring.one(), ring, 8).first_mismatch(
            QSeries.one(ring, 8)) is None
        assert theta_at(2, ring.one(), ring, 8).is_zero


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


# A plain reference for f_bo: every permutation's determinant expanded along
# its first row afresh, and every unit power recomputed per term, with
# no cache of any kind.  Over RatFuncRing the package shares unit powers
# but must do the same arithmetic in the same order, so even
# exact-mode outputs (whose denominators are not reduced) agree byte for
# byte.  Over the other rings it runs the subset recursion, whose values
# must agree term by term.

def _ref_theta_at(k, unit, ring, order):
    def subst(coeff):
        acc = ring.zero()
        for (m,), c in coeff.terms.items():
            acc = ring.add(acc, ring.mul(ring.from_fraction(c), unit_pow(ring, unit, m)))
        return acc
    return theta_k(k, order).map_to(ring, subst)


def _ref_det(rows, ring, order):
    n = len(rows)
    if n == 1:
        return rows[0][0] if rows[0][0] is not None else QSeries.zero(ring, order)
    total = QSeries.zero(ring, order)
    for j in range(n):
        entry = rows[0][j]
        if entry is None or entry.is_zero:
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
            partial.append(ring.mul(partial[-1], units[sigma[m]]))
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
        got = graded_trace_F("NS", units, ring, 3, zvar="z")
        ref = _ref_graded_trace_F("NS", units, ring, 3, zvar="z", kernel=_ref_f_bo)
        assert got.dumps() == ref.dumps()

    def test_eval_f_bo_runs_at_most_3_to_the_n_products(self, monkeypatch):
        # the subset recursion makes about 2^|B| products for each subset B
        # of the 4 units, 3^4 in all; the permutation sum made about 350
        ring, order = RationalRing(), 6
        inv_qq(ring, order)
        for k in range(5):
            theta_k(k, order)
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
        st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_eval_theta_at_matches_reference(self, s, k):
        # s negative, non-integral and large: the integer evaluator must
        # give the per-term values exactly
        ring = RationalRing()
        got, ref = theta_at(k, s, ring, 3), _ref_theta_at(k, s, ring, 3)
        assert got.terms == ref.terms
        assert got.trunc == ref.trunc

    def test_eval_f_bo_scales_and_converts_each_series_once(self, monkeypatch):
        counts = Counter()
        scale, ints = QSeries.scale, qseries._integer_numerators

        def counting_scale(series, c):
            counts["scale"] += 1
            return scale(series, c)

        def counting_ints(terms):
            counts["ints"] += 1
            return ints(terms)

        monkeypatch.setattr(QSeries, "scale", counting_scale)
        monkeypatch.setattr(qseries, "_integer_numerators", counting_ints)
        f_bo.cache_clear()  # the sub-tuples' values come from f_bo's cache
        f_bo.__wrapped__((F(2), F(3), F(5), F(7)), RationalRing(), 6)
        # the subset recursion scales nothing (the permutation sum scaled its
        # 17 entries theta^(k)/k!); about 70 integer forms from cold theta
        # caches, 15 from warm ones (146 if both factors of each of the 73
        # products were converted)
        assert counts["scale"] == 0
        assert counts["ints"] < 100

    def test_exact_theta_at_bytes_match_reference(self):
        ring = RatFuncRing(("s1", "s2"))
        s1, s2 = ring.var("s1"), ring.var("s2")
        for unit in (s1, ring.inv(s1), ring.mul(s1, s2)):
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
            x = ring.mul(x, u)
        term = kernel(us, ring, order).scale(unit_pow(ring, x, int(2 * k)))
        total = total + (term if math.prod(eps) > 0 else -term)
    return total


def _ref_graded_trace_F(sector, units, ring, order, zvar=None, zscale=1, kernel=f_bo):
    order = F(order)
    total = QSeries.zero(ring, order)
    for k in lattice_points("int" if sector == "NS" else "half", order):
        term = _ref_eps_inner_sum(units, ring, order, k, kernel).shift(k * k / 2).truncated(order)
        if zvar is not None:
            term = term.scale(ring.var(zvar, int(zscale * k)))
        total = total + term
    return total.truncated(order)


def _exact_units(n, *extra):
    ring = RatFuncRing(tuple(f"s{i + 1}" for i in range(n)) + extra)
    return ring, tuple(ring.var(f"s{i + 1}") for i in range(n))


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
        assert (graded_trace_F("NS", units, ring, 3, zvar="z").dumps()
                == _ref_graded_trace_F("NS", units, ring, 3, zvar="z").dumps())
        ring, units = _exact_units(n, "w")
        assert (graded_trace_F("R", units, ring, 3, zvar="w", zscale=2).dumps()
                == _ref_graded_trace_F("R", units, ring, 3, zvar="w", zscale=2).dumps())

    def test_zero_points_and_z_exponent_check(self):
        ring = RationalRing()
        for k in (0, 2, F(-1, 2)):
            assert (eps_inner_sum((), ring, 4, k).dumps()
                    == _ref_eps_inner_sum((), ring, 4, k).dumps())
        ring, units = _exact_units(1, "w")
        with pytest.raises(ValueError, match="z-exponent"):
            graded_trace_F("R", units, ring, 2, zvar="w")


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
        return self.ring.add(self.ring.var("s1", 2 * k), self.ring.var("s1", -2 * k))

    def test_d_level1(self):
        lab = ModuleLabel("d", 1, (0,), folded=True)
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
        lab = ModuleLabel("b", 1, (0,), spin=True)
        b0 = npoint(lab, (self.u,), self.ring, 8)
        ref = f_bo((self.u,), self.ring, 8).scale(self.tp(F(1, 2))).shift(F(1, 8)).truncated(8)
        assert b0.first_mismatch(ref) is None

    def test_b_matches_d_engine_formally(self):
        # the integer-level b formula coincides with the d formula in lambda
        w = (F(3, 2), F(1, 2))
        direct = weyl_correlator(w, "D", 2, (self.u,), self.ring, 6)
        via_label = npoint(ModuleLabel("b", 2, (1, 0), spin=True), (self.u,), self.ring, 6)
        assert via_label.first_mismatch(direct) is None

    def test_half_level_dispatch(self):
        lab = ModuleLabel("d", F(1, 2), (), folded=True)
        assert npoint(lab, (self.u,), self.ring, 6).first_mismatch(
            half_level_base("D", (self.u,), self.ring, 6)) is None
        lab = ModuleLabel("b", F(1, 2), (), spin=True)
        assert npoint(lab, (self.u,), self.ring, 6).first_mismatch(
            half_level_base("B", (self.u,), self.ring, 6)) is None

    def test_t_permutation_symmetry(self):
        ring = RationalRing()
        for algebra, level, lam, spin in (("d", 2, (1, 0), False),
                                          ("c", 2, (1, 1), False),
                                          ("b", 2, (1, 0), True)):
            lab = ModuleLabel(algebra, level, lam, spin=spin,
                              folded=not spin and lam[-1] == 0)
            a = npoint(lab, (F(2), F(3)), ring, 4)
            b = npoint(lab, (F(3), F(2)), ring, 4)
            assert a.first_mismatch(b) is None

    def test_t_inversion_parity(self):
        # X(t^{-1}) = -X(t) for the D/C/B observables, so every n-point
        # function flips by (-1)^n under inverting all arguments
        ring = RationalRing()
        cases = ((ModuleLabel("d", 1, (1,)), 1), (ModuleLabel("c", 1, (0,)), 1),
                 (ModuleLabel("b", 1, (0,), spin=True), 1),
                 (ModuleLabel("d", 1, (0,), folded=True), 2))
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
        assert half_level_base("D", (), ring, 8).first_mismatch(
            em_half(ring, 8)) is None

    def test_d_one_point_product_form(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        t, tinv = ring.var("s1", 2), ring.var("s1", -2)
        got = half_level_base("D", (u,), ring, 8)
        prod = (pochhammer(ring, ring.neg(t), F(1, 2), 1, 8)
                * pochhammer(ring, ring.neg(tinv), F(1, 2), 1, 8)
                * em_half(ring, 8).inverse()
                * inv_theta_at(u, ring, 8))
        assert got.first_mismatch(prod) is None

    def test_b_empty(self):
        ring = RatFuncRing(("s1",))
        got = half_level_base("B", (), ring, 8)
        ref = em_one(ring, 8 - F(1, 16)).shift(F(1, 16))
        assert got.first_mismatch(ref) is None

    def test_b_one_point_product_form(self):
        ring = RatFuncRing(("s1",))
        u = ring.var("s1")
        t, tinv = ring.var("s1", 2), ring.var("s1", -2)
        got = half_level_base("B", (u,), ring, 6)
        num = (pochhammer(ring, ring.neg(t), 1, 1, 6)
               * pochhammer(ring, ring.neg(tinv), 0, 1, 6)
               * qq_series(ring, 6) ** 2)
        den = (pochhammer(ring, t, 1, 1, 6)
               * pochhammer(ring, tinv, 0, 1, 6)
               * em_one(ring, 6) * F(2))
        ref = (num * den.inverse()).shift(F(1, 16))
        assert got.first_mismatch(ref) is None


class TestClosedSumForms:
    """The partition-identity sum forms of the two 1-point base functions."""

    def test_d_half_sum_form(self):
        # (-q^{1/2};q) [ 1/(t^{1/2}-t^{-1/2}) + sum_r (-1)^r (...) ]; the
        # bracket equals rhs-of-cor-d divided by (t^{1/2}-t^{-1/2})
        ring = RatFuncRing(("s",))
        u = ring.var("s")
        base = half_level_base("D", (u,), ring, 8)
        inv_sm = ring.inv(ring.add(ring.var("s"), ring.neg(ring.var("s", -1))))
        sum_form = em_half(ring, 8) * corollary_d_rhs(8).scale(inv_sm)
        assert base.first_mismatch(sum_form) is None

    def test_b_half_sum_form(self):
        # q^{1/16} (-q;q) [ (t+1)/(2(t-1)) + sum_r (-1)^r (...) ]
        ring = RatFuncRing(("s",))
        u = ring.var("s")
        base = half_level_base("B", (u,), ring, 8)
        sum_form = (em_one(ring, 8) * corollary_b_rhs(8)
                    * F(1, 2)).shift(F(1, 16))
        assert base.first_mismatch(sum_form, 8) is None


class TestGradedTraces:
    def test_ns_vacuum_trace(self):
        ring = RatFuncRing(("z",))
        gt = graded_trace_F("NS", (), ring, F(9, 2), zvar="z")
        ref = lattice_sum(ring, "int", ring.var("z"), F(9, 2)) * inv_qq(ring, F(9, 2))
        assert gt.first_mismatch(ref) is None

    def test_r_vacuum_lowest_term(self):
        ring = RationalRing()
        gt = graded_trace_F("R", (), ring, 1)
        assert gt.coeff(F(1, 8)) == 2  # k = +-1/2 both contribute q^{1/8}

    def test_ns_z_zero_coefficient_is_2fbo(self):
        ring = RatFuncRing(("s1", "z"))
        u = ring.var("s1")
        gt = graded_trace_F("NS", (u,), ring, 2, zvar="z")
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
                assert RationalFunction(znum, c.den).is_zero
            else:
                assert RationalFunction(znum, c.den) == ref


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

    def test_literal_log_form_orientation_fails(self):
        # the printed Pochhammer ratio yields the negated correction
        lit = refined_form2(1, 6, literal=True)
        assert refined_level1(1, 6).first_mismatch(lit) is not None
        neg_corr = refined_form2(-1, 6, literal=True)
        assert refined_level1(1, 6).first_mismatch(neg_corr) is None


class TestQdim:
    def test_d_level1_trivial(self):
        qd = qdim(ModuleLabel("d", 1, (0,), folded=True), 10)
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
        qd = qdim(ModuleLabel("b", F(1, 2), (), spin=True), 10)
        ref = em_one(RationalRing(), 10).shift(F(1, 16))
        assert qd.first_mismatch(ref) is None

    def test_d_half_prefactor_positive_exponent(self):
        # the (-q^{1/2};q) prefactor (not the printed -q^{-1/2} variant)
        qd = qdim(ModuleLabel("d", F(1, 2), (), folded=True), 6)
        assert qd.first_mismatch(em_half(RationalRing(), 6)) is None
        assert min(qd.terms) == 0


class TestCorollaries:
    def test_d_identity(self):
        assert corollary_d_lhs(8).first_mismatch(corollary_d_rhs(8)) is None

    def test_b_identity_and_log_form(self):
        lhs = corollary_b_lhs(8)
        assert lhs.first_mismatch(corollary_b_rhs(8)) is None
        assert lhs.first_mismatch(corollary_b_rhs_log(8)) is None


class TestRequests:
    def test_eval_pole_guard_on_s(self):
        req = CorrelatorRequest(ModuleLabel("d", 1, (0,), folded=True),
                                npoints=1, order=3, mode="eval", eval_points=(1,))
        with pytest.raises(PoleError):
            correlator(req)  # the guard sits in make_units

    def test_eval_pole_guard_on_products(self):
        req = CorrelatorRequest(ModuleLabel("d", 1, (0,), folded=True),
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
        label = ModuleLabel(algebra, level, (part,), det=det,
                            spin=algebra == "b", folded=not det)
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
