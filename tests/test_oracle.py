from fractions import Fraction as F
from itertools import product

import pytest

from fockcorr.correlators import (em_half, em_one, f_bo, graded_trace_F,
                                  half_level_base, inv_qq, qq_odd,
                                  refined_level1)
from fockcorr.errors import ResourceLimitError
from fockcorr.fock_oracle import (FockState, OpSpec, SectorSpec,
                                  enumerate_states, eigenvalue, reorder_sign,
                                  tau_refined_trace, trace)
from fockcorr.laurent import LaurentPoly, RationalFunction
from fockcorr.qseries import (LaurentRing, QSeries, RatFuncRing, RationalRing,
                              lattice_sum)

SV = ("s",)


def rf(num_terms, den_terms):
    return RationalFunction(
        LaurentPoly(SV, {tuple(e): F(c) for e, c in num_terms.items()}),
        LaurentPoly(SV, {tuple(e): F(c) for e, c in den_terms.items()}))


class TestEnumeration:
    def test_single_pair_low_cutoff(self):
        spec = SectorSpec(1, 0, "ns", F(3, 2))
        states = list(enumerate_states(spec))
        assert len(states) == 4
        energies = sorted(s.energy for s in states)
        assert energies == [0, F(1, 2), F(1, 2), 1]

    def test_neutral_ns(self):
        spec = SectorSpec(0, 1, "ns", 2)
        states = list(enumerate_states(spec))
        assert len(states) == 3  # vacuum, phi_{1/2}, phi_{3/2}
        count = trace(spec, [], RationalRing())
        assert count.first_mismatch(em_half(RationalRing(), 2)) is None

    def test_neutral_r_zero_mode_doubling(self):
        spec = SectorSpec(0, 1, "r", 1)
        states = list(enumerate_states(spec))
        assert len(states) == 2
        assert all(s.energy == F(1, 16) for s in states)
        count = trace(spec, [], RationalRing())
        ref = (em_one(RationalRing(), 1) * F(2)).shift(F(1, 16))
        assert count.first_mismatch(ref, 1) is None

    def test_state_count_generating_functions(self):
        R = RationalRing()
        # NS pair, z-graded: prod over pairs of sum_k z^k q^{k^2/2} / (q;q)
        ring = LaurentRing(("z1",))
        tr = trace(SectorSpec(1, 0, "ns", 6), [], ring, zvars=("z1",))
        ref = lattice_sum(ring, "int", ring.var("z1"), 6) * inv_qq(ring, 6)
        assert tr.first_mismatch(ref) is None
        # two pairs, ungraded: the square of the one-pair count
        t2 = trace(SectorSpec(2, 0, "ns", 5), [], R)
        t1 = trace(SectorSpec(1, 0, "ns", 5), [], R)
        assert t2.first_mismatch(t1 * t1) is None

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            trace(SectorSpec(2, 0, "ns", 8), [], RationalRing(), max_states=50)
        with pytest.raises(ResourceLimitError):
            list(enumerate_states(SectorSpec(1, 0, "ns", 8), max_states=20))


class TestEigenvalues:
    def test_vacuum_d_eigenvalue(self):
        ring = RatFuncRing(("s",))
        spec = SectorSpec(1, 0, "ns", 2)
        vac = FockState(((),), ((),), (), F(0), (F(0),))
        val = eigenvalue(OpSpec("D", ring.var("s")), vac, spec, ring)
        assert val == rf({(0,): 2}, {(1,): 1, (-1,): -1})

    def test_frobenius_a_eigenvalue(self):
        # psi^+_{-5/2} psi^-_{-3/2}|0>: normal part t^{5/2} - t^{-3/2}
        ring = RatFuncRing(("s",))
        spec = SectorSpec(1, 0, "ns", 4)
        st = FockState(((F(5, 2),),), ((F(3, 2),),), (), F(4), (F(0),))
        val = eigenvalue(OpSpec("A", ring.var("s")), st, spec, ring)
        central = rf({(0,): 1}, {(1,): 1, (-1,): -1})
        normal = val - central
        assert normal == rf({(5,): 1, (-3,): -1}, {(0,): 1})
        # matches sum_i (t^{lam_i-i+1/2} - t^{-i+1/2}) for lam = (3,1)
        lam = (3, 1)
        acc = {}
        for i, part in enumerate(lam, start=1):
            for e, sgn in ((2 * (part - i) + 1, 1), (-2 * i + 1, -1)):
                acc[(e,)] = acc.get((e,), 0) + sgn
        assert normal == RationalFunction.from_laurent(
            LaurentPoly(SV, {e: F(c) for e, c in acc.items()}))

    def test_r_zero_mode_b_eigenvalue(self):
        ring = RatFuncRing(("s",))
        spec = SectorSpec(0, 1, "r", 2)
        st = FockState((), (), (F(0),), F(1, 16), ())
        val = eigenvalue(OpSpec("B", ring.var("s")), st, spec, ring)
        assert val == rf({(2,): 1, (0,): 1}, {(2,): 2, (0,): -2})  # (t+1)/(2(t-1))


class TestTraces:
    def setup_method(self):
        self.ring = RatFuncRing(("s",))
        self.u = self.ring.var("s")

    def test_charge_zero_d_trace(self):
        spec = SectorSpec(1, 0, "ns", 8)
        tr = trace(spec, [OpSpec("D", self.u)], self.ring, charge=0)
        assert tr.first_mismatch(f_bo((self.u,), self.ring, 8) * F(2)) is None

    def test_shift_symmetry(self):
        spec = SectorSpec(1, 0, "ns", 6)
        tr0 = trace(spec, [OpSpec("D", self.u)], self.ring, charge=0)
        for k in (1, 2, -2):
            trk = trace(spec, [OpSpec("D", self.u)], self.ring, charge=k)
            w = self.ring.add(self.ring.var("s", 2 * k), self.ring.var("s", -2 * k))
            ref = (tr0.scale(w) * F(1, 2)).shift(F(k * k, 2)).truncated(6)
            assert trk.first_mismatch(ref) is None

    def test_charge_sector_isomorphism(self):
        # F^{(-k)} and F^{(k)} carry identical D-traces
        spec = SectorSpec(1, 0, "ns", 6)
        for k in (1, 2):
            plus = trace(spec, [OpSpec("D", self.u)], self.ring, charge=k)
            minus = trace(spec, [OpSpec("D", self.u)], self.ring, charge=-k)
            assert plus.first_mismatch(minus) is None

    @pytest.mark.parametrize("pairs, neutral, sector, kind",
                             [(2, 1, "ns", "D"), (2, 0, "r", "B")])
    def test_charge_filtered_traces_sum_to_the_trace(self, pairs, neutral, sector, kind):
        # each state has one charge per pair, so summing the filtered traces
        # over every charge value, one pair at a time or all pairs jointly,
        # gives back the unfiltered trace
        spec = SectorSpec(pairs, neutral, sector, 3)
        ops = [OpSpec(kind, self.u)]
        full = trace(spec, ops, self.ring)
        shift = F(1, 2) if sector == "r" else F(0)
        values = [F(k) + shift for k in range(-3, 3)]
        for p in range(pairs):
            total = QSeries.zero(self.ring, 3)
            for c in values:
                charge = tuple(c if q == p else None for q in range(pairs))
                total = total + trace(spec, ops, self.ring, charge=charge)
            assert total.first_mismatch(full) is None
        total = QSeries.zero(self.ring, 3)
        for charge in product(values, repeat=pairs):
            total = total + trace(spec, ops, self.ring, charge=charge)
        assert total.first_mismatch(full) is None

    def test_neutral_trace_matches_recursion(self):
        spec = SectorSpec(0, 1, "ns", 6)
        tr = trace(spec, [OpSpec("D", self.u)], self.ring)
        assert tr.first_mismatch(half_level_base("D", (self.u,), self.ring, 6)) is None

    def test_tensor_split_consistency(self):
        # D on (pair + neutral) splits as D_c x 1 + 1 x D_n
        spec_full = SectorSpec(1, 1, "ns", 5)
        full = trace(spec_full, [OpSpec("D", self.u)], self.ring)
        c_op = trace(SectorSpec(1, 0, "ns", 5), [OpSpec("D", self.u)], self.ring)
        c_id = trace(SectorSpec(1, 0, "ns", 5), [], self.ring)
        n_op = trace(SectorSpec(0, 1, "ns", 5), [OpSpec("D", self.u)], self.ring)
        n_id = trace(SectorSpec(0, 1, "ns", 5), [], self.ring)
        assert full.first_mismatch(c_op * n_id + c_id * n_op, 5) is None

    def test_ad_relation(self):
        spec = SectorSpec(1, 0, "ns", 5)
        lhs = trace(spec, [OpSpec("D", self.u)], self.ring)
        rhs = trace(spec, [OpSpec("A", self.u)], self.ring) \
            - trace(spec, [OpSpec("A", self.ring.inv(self.u))], self.ring)
        assert lhs.first_mismatch(rhs) is None

    def test_graded_ns_two_point(self):
        ring = LaurentRing(("z",))
        u1, u2 = ring.from_fraction(F(2)), ring.from_fraction(F(3))
        tr = trace(SectorSpec(1, 0, "ns", 5),
                   [OpSpec("D", u1), OpSpec("D", u2)], ring, zvars=("z",))
        ref = graded_trace_F("NS", (u1, u2), ring, 5, zvar="z")
        assert tr.first_mismatch(ref) is None

    def test_graded_r_one_point(self):
        ring = RatFuncRing(("s", "w"))
        u = ring.var("s")
        tr = trace(SectorSpec(1, 0, "r", 6), [OpSpec("B", u)], ring,
                   zvars=("w",), zscale=2)
        ref = graded_trace_F("R", (u,), ring, 6, zvar="w", zscale=2)
        assert tr.first_mismatch(ref) is None

    def test_op_sector_mismatch(self):
        with pytest.raises(ValueError):
            trace(SectorSpec(1, 0, "r", 2), [OpSpec("D", self.u)], self.ring)
        with pytest.raises(ValueError):
            trace(SectorSpec(1, 0, "ns", 2), [OpSpec("B", self.u)], self.ring)
        with pytest.raises(ValueError):
            trace(SectorSpec(1, 1, "ns", 2), [OpSpec("A", self.u)], self.ring)


class TestTauRefined:
    def test_sign_pattern(self):
        for modes in [(F(1, 2),), (F(1, 2), F(3, 2)), (F(1, 2), F(3, 2), F(7, 2))]:
            word = [("plus", k) for k in modes] + [("minus", k) for k in modes]
            assert reorder_sign(word) == (-1) ** len(modes)

    def test_qdim_refinement(self):
        ring = RatFuncRing(("s",))
        tp, tm = tau_refined_trace([], 12, ring)
        assert (tp - tm).first_mismatch(qq_odd(ring, 12)) is None

    def test_matches_refined_level1(self):
        ring = RatFuncRing(("s",))
        tp, tm = tau_refined_trace([OpSpec("D", ring.var("s"))], 7, ring)
        assert tp.first_mismatch(refined_level1(1, 7)) is None
        assert tm.first_mismatch(refined_level1(-1, 7)) is None

    def test_lowest_order_difference(self):
        ring = RatFuncRing(("s",))
        tp, tm = tau_refined_trace([OpSpec("D", ring.var("s"))], 2, ring)
        diff = tp - tm
        s = LaurentPoly.var(SV, "s")
        assert diff.coeff(0) == RationalFunction(
            LaurentPoly.const(SV, 2), s - s ** -1)
