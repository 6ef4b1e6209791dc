import hashlib
from fractions import Fraction as F
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcorr.correlators import (em_half, em_one, f_bo, graded_trace_F,
                                  half_level_base, inv_qq, qq_odd,
                                  refined_level1)
from fockcorr import fock_oracle
from fockcorr.combinat import ALGEBRAS, SECTOR
from fockcorr.errors import ResourceLimitError
from fockcorr.fock_oracle import (NS, RAMOND, FockState, OpSpec, SectorSpec,
                                  _check_ops, _flavor_signature_states,
                                  enumerate_states, eigenvalue, op_central,
                                  op_mode_weight, reorder_sign,
                                  tau_refined_trace, trace)
from fockcorr.laurent import LaurentPoly, RationalFunction
from fockcorr.qseries import (LaurentRing, QSeries, RatFuncRing, RationalRing,
                              lattice_points, to16)

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
        lattice = QSeries.from_terms(ring, [(k * k / 2, ring.var("z1", int(k)))
                                            for k in lattice_points(NS, 6)], 6)
        ref = lattice * inv_qq(ring, 6)
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
            w = self.ring.var("s", 2 * k) + self.ring.var("s", -2 * k)
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
        assert tr.first_mismatch(half_level_base(NS, (self.u,), self.ring, 6)) is None

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
        ref = graded_trace_F(NS, (u1, u2), ring, 5, zvar="z")
        assert tr.first_mismatch(ref) is None

    def test_graded_r_one_point(self):
        ring = RatFuncRing(("s", "w"))
        u = ring.var("s")
        tr = trace(SectorSpec(1, 0, "r", 6), [OpSpec("B", u)], ring, zvars=("w",))
        ref = graded_trace_F(RAMOND, (u,), ring, 6, zvar="w")
        assert tr.first_mismatch(ref) is None

    def test_op_sector_mismatch(self):
        with pytest.raises(ValueError):
            trace(SectorSpec(1, 0, "r", 2), [OpSpec("D", self.u)], self.ring)
        with pytest.raises(ValueError):
            trace(SectorSpec(1, 0, "ns", 2), [OpSpec("B", self.u)], self.ring)
        with pytest.raises(ValueError):
            trace(SectorSpec(1, 1, "ns", 2), [OpSpec("A", self.u)], self.ring)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_algebra_sector_table_follows_the_oracle_rule(algebra):
    # an algebra's op is accepted in its SECTOR and rejected in the other
    # one, by the oracle's own check of op kinds against sectors
    op, ring = OpSpec(algebra.upper(), F(2)), RationalRing()
    other = RAMOND if SECTOR[algebra] == NS else NS
    assert trace(SectorSpec(1, 0, SECTOR[algebra], 2), [op], ring)
    with pytest.raises(ValueError, match="-sector operator"):
        trace(SectorSpec(1, 0, other, 2), [op], ring)


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


# ---------------------------------------------------------------------------
# the count-keyed trace against the value-keyed one it replaced
# ---------------------------------------------------------------------------

def reference_trace(spec, ops, ring, *, zvars=None, charge=None, max_states=None):
    """The value-keyed trace the oracle used before its states were keyed by
    occupation counts: every merge adds ring elements per basis state.  A
    charge c grades as z^c in NS and as w^(2c) in R."""
    ops = tuple(ops)
    _check_ops(spec, ops)
    if charge is not None and not isinstance(charge, (tuple, list)):
        charge = (F(charge),)
    if charge is not None and len(charge) != spec.pairs:
        raise ValueError("one charge filter entry per pair required")
    if zvars is not None and len(zvars) != spec.pairs:
        raise ValueError("one z-variable entry per pair required")
    cutoff16 = to16(spec.cutoff)
    counter = [0]

    # (energy16, charge, opvals) -> multiplicity; under a merge charges add,
    # so per-pair charge tuples concatenate
    def merge(a, b):
        out = {}
        for (e1, c1, v1), m1 in a.items():
            for (e2, c2, v2), m2 in b.items():
                e = e1 + e2
                if e >= cutoff16:
                    continue
                key = (e, c1 + c2, tuple(x + y for x, y in zip(v1, v2)))
                out[key] = out.get(key, 0) + m1 * m2
                if max_states is not None and len(out) > max_states:
                    raise ResourceLimitError(
                        f"state budget {max_states} exceeded during merge")
        return out

    def flavor_dict(flavor):
        # each op's value on a state: its chosen modes' weights added to
        # zero in mode order
        d = {}
        for e, c, chosen in _flavor_signature_states(
                spec, flavor, max_states, counter):
            vals = tuple(reduce(add, (op_mode_weight(op.kind, flavor, k, ring, op.unit)
                                      for k in chosen), ring.zero())
                         for op in ops)
            key = (e, c, vals)
            d[key] = d.get(key, 0) + 1
        return d

    rshift = F(1, 2) if spec.sector == RAMOND else F(0)
    per_pair = []
    for p in range(spec.pairs):
        want = None if charge is None or charge[p] is None else F(charge[p])
        keyed = {}
        for (e, c, vals), m in merge(flavor_dict("plus"), flavor_dict("minus")).items():
            cphys = F(c) + rshift
            if want is None or cphys == want:
                keyed[(e, (cphys,), vals)] = m
        per_pair.append(keyed)
    neutral_states = flavor_dict("neutral") if spec.neutral else None

    centrals = [op_central(op.kind, spec.level, ring, op.unit) for op in ops]
    nops = len(ops)
    shift16 = to16(spec.energy_shift)
    total_terms = {}

    def emit(e16, zcoeff, opvals, mult):
        val = ring.from_fraction(mult)
        if zcoeff is not None:
            val = val * zcoeff
        for i in range(nops):
            val = val * (centrals[i] + opvals[i])
        if not val:
            return
        e = e16 + shift16
        if e in total_terms:
            total_terms[e] = total_terms[e] + val
        else:
            total_terms[e] = val

    zscale = 2 if spec.sector == RAMOND else 1
    folded = {(0, (), tuple(ring.zero() for _ in range(nops))): 1}
    for states in per_pair:
        folded = merge(folded, states)
    for (e1, zks, v1), m1 in folded.items():
        if zvars is None:
            zcoeff = None
        else:
            zcoeff = ring.one()
            for p, c in enumerate(zks):
                if zvars[p] is None:
                    continue
                zcoeff = zcoeff * ring.var(zvars[p], int(zscale * c))
        if neutral_states is None:
            emit(e1, zcoeff, v1, m1)
        else:
            for (e2, _, v2), m2 in neutral_states.items():
                if e1 + e2 >= cutoff16:
                    continue
                emit(e1 + e2, zcoeff,
                     tuple(x + y for x, y in zip(v1, v2)), m1 * m2)

    return QSeries(ring, total_terms, cutoff16 + shift16, _clean=True)


ZV = ("z1", "z2", "z3")
RINGS = {"rational": RationalRing(), "laurent": LaurentRing(ZV),
         "ratfunc": RatFuncRing(("s",) + ZV)}
UNITS = (F(2), F(-3), F(3, 2), F(-5, 2), F(5, 3))


@st.composite
def oracle_calls(draw):
    sector = draw(st.sampled_from(("ns", "r")))
    pairs = draw(st.integers(0, 3))
    neutral = draw(st.integers(0, 1))
    cutoffs = (F(1), F(3, 2), F(2), F(5, 2), F(3))
    spec = SectorSpec(pairs, neutral, sector, draw(st.sampled_from(
        cutoffs if pairs < 3 else cutoffs[:3])))
    mode = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[mode]
    if sector == "r":
        kinds = ("B",)
    else:
        kinds = ("D", "C") if neutral else ("A", "D", "C")

    def unit():
        if mode == "ratfunc" and draw(st.booleans()):
            return ring.var("s", draw(st.sampled_from((1, -1, 2))))
        return ring.from_fraction(draw(st.sampled_from(UNITS)))

    ops = [OpSpec(draw(st.sampled_from(kinds)), unit())
           for _ in range(draw(st.integers(0, 2)))]
    shift = F(1, 2) if sector == "r" else F(0)
    charge = None
    if draw(st.booleans()):
        charge = tuple(draw(st.one_of(st.none(), st.integers(-2, 2).map(
            lambda c: c + shift))) for _ in range(pairs))
        if pairs == 1 and charge[0] is not None and draw(st.booleans()):
            charge = charge[0]
    zvars = None
    if draw(st.booleans()):
        names = (None,) if mode == "rational" else (None, "z1", "z2", "z3")
        zvars = tuple(draw(st.sampled_from(names)) for _ in range(pairs))
    return spec, ops, ring, dict(zvars=zvars, charge=charge)


def assert_matches_reference(spec, ops, ring, **kwargs):
    try:
        want = reference_trace(spec, ops, ring, **kwargs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            trace(spec, ops, ring, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = trace(spec, ops, ring, **kwargs)
    assert got.trunc == want.trunc
    assert got.terms.keys() == want.terms.keys()
    assert all(c == want.terms[e] for e, c in got.terms.items())
    if ring.mode != "ratfunc":
        assert got.to_json() == want.to_json()
        assert got.dumps() == want.dumps()


class TestCountKeyedTrace:
    @given(call=oracle_calls())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_value_keyed_trace(self, call):
        spec, ops, ring, kwargs = call
        assert_matches_reference(spec, ops, ring, **kwargs)

    def test_mixed_kinds_and_a_shared_z_variable(self):
        # D weighs psi^+_k and psi^-_k alike and A does not, so the two modes
        # share a weight class only if every op is compared; two pairs graded
        # by one variable add their exponents
        ring = RINGS["laurent"]
        ops = [OpSpec("D", ring.from_fraction(2)), OpSpec("A", ring.from_fraction(3))]
        assert_matches_reference(SectorSpec(1, 0, "ns", 3), ops, ring)
        assert_matches_reference(SectorSpec(2, 0, "ns", 3), ops[:1], ring,
                                 zvars=("z1", "z1"))

    def test_pairs_share_one_enumeration(self, monkeypatch):
        # every pair has the same plus and minus states, so a 3-pair trace
        # enumerates each flavor once and max_states counts each state once
        # (21 per flavor at order 7)
        calls = []
        real = fock_oracle._flavor_signature_states

        def counted(spec, flavor, max_states, counter):
            calls.append(flavor)
            return real(spec, flavor, max_states, counter)

        monkeypatch.setattr(fock_oracle, "_flavor_signature_states", counted)
        spec, rational = SectorSpec(3, 0, "ns", 7), RationalRing()
        got = trace(spec, [], rational, max_states=42)
        assert calls == ["plus", "minus"]
        assert got.dumps() == reference_trace(spec, [], rational).dumps()

    @pytest.mark.parametrize("fn", [trace, reference_trace])
    def test_error_texts(self, fn):
        rational = RationalRing()
        with pytest.raises(ResourceLimitError,
                           match="^state budget 50 exceeded during enumeration$"):
            fn(SectorSpec(2, 0, "ns", 8), [], rational, max_states=50)
        ring = LaurentRing(("z1", "z2"))
        with pytest.raises(ResourceLimitError,
                           match="^state budget 100 exceeded during merge$"):
            fn(SectorSpec(2, 0, "ns", 6), [OpSpec("D", ring.from_fraction(2))],
               ring, zvars=("z1", "z2"), max_states=100)

    @pytest.mark.parametrize("spec, kind", [
        (SectorSpec(2, 1, "ns", F(5, 2)), "D"),
        (SectorSpec(2, 0, "ns", 3), "A"),
        (SectorSpec(1, 1, "r", 3), "B"),
    ])
    def test_equals_the_sum_over_enumerated_states(self, spec, kind):
        # the definition: sum over basis states of q^E z^charge * eigenvalue
        ring = RatFuncRing(("s", "w1", "w2"))
        op = OpSpec(kind, ring.var("s"))
        zvars = ("w1", "w2")[:spec.pairs]
        zscale = 2 if spec.sector == "r" else 1
        terms = []
        for state in enumerate_states(spec):
            coeff = eigenvalue(op, state, spec, ring)
            for name, c in zip(zvars, state.charges):
                coeff = coeff * ring.var(name, int(zscale * c))
            terms.append((state.energy, coeff))
        ref = QSeries.from_terms(ring, terms, spec.cutoff + spec.energy_shift)
        got = trace(spec, [op], ring, zvars=zvars)
        assert got.trunc == ref.trunc
        assert got.first_mismatch(ref) is None

    def test_ring_work_is_per_signature(self, monkeypatch):
        # about 25,000 coefficient adds and products when every basis state
        # did ring work; about 760 on a symbolic argument, once the ring sees
        # only the final signatures
        calls = []
        for name in ("__add__", "__mul__"):
            def counting(a, b, op=getattr(LaurentPoly, name)):
                calls.append(name)
                return op(a, b)
            monkeypatch.setattr(LaurentPoly, name, counting)

        ring = RatFuncRing(("s",) + ZV)
        out = trace(SectorSpec(3, 0, "ns", 7), [OpSpec("D", ring.var("s"))], ring,
                    zvars=ZV)
        assert out
        assert len(calls) < 1000

    def test_rational_arguments_make_no_laurent_products(self, monkeypatch):
        # with rational op arguments each signature is evaluated in plain
        # ints, so the trace multiplies no Laurent polynomials; a symbolic
        # argument still takes the ring path
        calls = []
        for name in ("__mul__", "__rmul__"):
            def counting(a, b, op=getattr(LaurentPoly, name)):
                calls.append(name)
                return op(a, b)
            monkeypatch.setattr(LaurentPoly, name, counting)

        spec = SectorSpec(3, 0, "ns", 7)
        laurent = LaurentRing(ZV)
        out = trace(spec, [OpSpec("D", laurent.from_fraction(F(5, 2)))], laurent,
                    zvars=ZV)
        assert out
        assert calls == []
        symbolic = RatFuncRing(("s",) + ZV)
        trace(spec, [OpSpec("D", symbolic.var("s"))], symbolic, zvars=ZV)
        assert calls


THREE_OPS = {
    "ns": (("D", F(2)), ("C", F(-3, 2)), ("A", F(5, 3))),
    "ns-neutral": (("D", F(2)), ("C", F(-3, 2)), ("D", F(5, 3))),
    "r": (("B", F(2)), ("B", F(-3)), ("B", F(3, 2))),
}


@pytest.mark.parametrize("spec, ops, mode, kwargs", [
    (SectorSpec(2, 0, "ns", 3), "ns", "laurent", dict(zvars=("z1", "z2"))),
    (SectorSpec(2, 0, "ns", F(7, 2)), "ns", "rational", dict(charge=(0, None))),
    (SectorSpec(3, 0, "ns", F(5, 2)), "ns", "laurent",
     dict(zvars=(None, "z1", "z2"), charge=(1, None, 0))),
    (SectorSpec(1, 1, "ns", 4), "ns-neutral", "laurent", dict(zvars=("z1",))),
    (SectorSpec(0, 1, "ns", 5), "ns-neutral", "rational", {}),
    (SectorSpec(2, 0, "r", 3), "r", "laurent", dict(zvars=("z1", "z2"))),
    (SectorSpec(1, 1, "r", 4), "r", "rational", dict(charge=F(1, 2))),
], ids=["ns-graded", "ns-charge", "ns-3-pairs", "ns-neutral-graded", "ns-neutral-only",
        "r-graded", "r-neutral-charge"])
def test_three_ops_match_the_value_keyed_trace(spec, ops, mode, kwargs):
    # the subset product of moment vectors over k = 3 ops, which the
    # property tests (at most two ops) never run, byte for byte
    ring = RINGS[mode]
    ops = [OpSpec(kind, ring.from_fraction(s)) for kind, s in THREE_OPS[ops]]
    got = trace(spec, ops, ring, **kwargs)
    assert got.terms
    assert_matches_reference(spec, ops, ring, **kwargs)


@pytest.mark.parametrize("spec, kind, zvars", [
    (SectorSpec(2, 0, "ns", 4), "D", ("z1", "z2")),
    (SectorSpec(2, 1, "ns", F(7, 2)), "C", ("z1", None)),
    (SectorSpec(2, 0, "r", 4), "B", ("z1", "z1")),
])
def test_merge_budget_counts_energy_and_charge_entries(spec, kind, zvars):
    # max_states bounds the (energy, charges) entries of a merge, whichever
    # kind of value they carry: a rational call and its symbolic twin pass
    # from the same budget on, and one less fails in a merge
    s = F(3, 2)
    laurent = RINGS["laurent"]
    calls = [([OpSpec(kind, laurent.from_fraction(s)), OpSpec(kind, laurent.from_fraction(1 / s))],
              laurent),
             ([OpSpec(kind, SYMBOLIC.var("s")), OpSpec(kind, SYMBOLIC.var("s", -1))], SYMBOLIC)]

    def passes(ops, ring, budget):
        try:
            trace(spec, ops, ring, zvars=zvars, max_states=budget)
        except ResourceLimitError:
            return False
        return True

    smallest = []
    for ops, ring in calls:
        lo, hi = 1, 10_000
        assert passes(ops, ring, hi)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if passes(ops, ring, mid) else (mid + 1, hi)
        smallest.append(lo)
        with pytest.raises(ResourceLimitError,
                           match=f"^state budget {lo - 1} exceeded during merge$"):
            trace(spec, ops, ring, zvars=zvars, max_states=lo - 1)
    assert smallest[0] == smallest[1]


@pytest.mark.parametrize("spec, charge", [
    (SectorSpec(1, 0, "ns", 3), F(1, 2)),
    (SectorSpec(2, 0, "ns", 3), (0, F(-3, 2))),
    (SectorSpec(1, 0, "r", 3), 1),
    (SectorSpec(2, 1, "r", 3), (None, 0)),
])
def test_charge_filter_off_the_lattice_is_an_error(spec, charge):
    # NS charges lie in Z and R charges in 1/2 + Z: such a filter entry
    # would select no state, so it is refused
    with pytest.raises(ValueError, match="off the charge lattice"):
        trace(spec, [], RationalRing(), charge=charge)


# ---------------------------------------------------------------------------
# rational arguments (integer evaluation) against symbolic ones (ring path)
# ---------------------------------------------------------------------------

SYMBOLIC = RatFuncRing(("s",) + ZV)


@st.composite
def rational_and_symbolic_calls(draw):
    """(spec, [(kind, power of s)], rational ring, trace kwargs, point)."""
    sector = draw(st.sampled_from(("ns", "r")))
    pairs = draw(st.integers(0, 2))
    neutral = draw(st.integers(0, 1))
    spec = SectorSpec(pairs, neutral, sector,
                      draw(st.sampled_from((F(3, 2), F(5, 2), F(3), F(4)))))
    if sector == "r":
        kinds = ("B",)
    else:
        kinds = ("D", "C") if neutral else ("A", "D", "C")
    ops = [(draw(st.sampled_from(kinds)), draw(st.sampled_from((1, -1, 2))))
           for _ in range(draw(st.integers(1, 2)))]
    shift = F(1, 2) if sector == "r" else F(0)
    charge = None
    if draw(st.booleans()):
        charge = tuple(draw(st.one_of(st.none(), st.integers(-2, 2).map(
            lambda c: c + shift))) for _ in range(pairs))
    zvars = None
    if pairs and draw(st.booleans()):
        zvars = tuple(draw(st.sampled_from((None, "z1", "z2", "z3")))
                      for _ in range(pairs))
    if zvars is None and draw(st.booleans()):
        rational = RationalRing()
    else:
        rational = LaurentRing(ZV)
    kwargs = dict(zvars=zvars, charge=charge,
                  max_states=draw(st.sampled_from((None, None, 8, 20, 40, 80))))
    s = draw(st.sampled_from((F(2), F(-3), F(3, 2), F(-5, 2), F(5, 3), F(-2, 7))))
    point = {"s": s}
    point.update((z, draw(st.sampled_from((F(3), F(-2), F(2, 5))))) for z in ZV)
    return spec, ops, rational, kwargs, point


def specialized(series, point):
    """{exponent: Fraction} of a series with every variable set by ``point``."""
    out = {}
    for e, c in series.terms.items():
        v = c if isinstance(c, F) else c.eval_at(point)
        if v:
            out[e] = v
    return out


@given(call=rational_and_symbolic_calls())
@settings(max_examples=100, deadline=None)
def test_rational_arguments_match_the_specialized_symbolic_trace(call):
    # integer evaluation at rational s equals the ring path at symbolic s,
    # specialized there (and at rational z); errors keep their texts
    spec, ops, rational, kwargs, point = call
    s = point["s"]
    symbolic_ops = [OpSpec(kind, SYMBOLIC.var("s", k)) for kind, k in ops]
    rational_ops = [OpSpec(kind, rational.from_fraction(s ** k)) for kind, k in ops]
    try:
        want = trace(spec, symbolic_ops, SYMBOLIC, **kwargs)
    except (ResourceLimitError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            trace(spec, rational_ops, rational, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = trace(spec, rational_ops, rational, **kwargs)
    assert got.ring == rational and got.trunc == want.trunc
    assert specialized(got, point) == specialized(want, point)


@pytest.mark.parametrize("s", [F(2), F(-5, 3)])
def test_tau_refined_rational_arguments_match_symbolic(s):
    kinds = (("D", 1), ("C", 2), ("A", -1))
    symbolic = tau_refined_trace([OpSpec(kind, SYMBOLIC.var("s", k)) for kind, k in kinds],
                                 4, SYMBOLIC)
    point = {"s": s, **{z: F(1) for z in ZV}}
    for rational in (RationalRing(), LaurentRing(ZV)):
        got = tau_refined_trace([OpSpec(kind, rational.from_fraction(s ** k))
                                 for kind, k in kinds], 4, rational)
        for g, w in zip(got, symbolic):
            assert specialized(g, point) == specialized(w, point)


# sha256 of the outputs below, recorded before the trace rework; the
# enumeration and the tau-refined trace share its flavor enumerator
ENUMERATED = {
    (2, 1, "ns", F(3)):
        "6652c01f5fc8c1666d8f09bc4001f62c965c9a06b8ea998be17f2ce18bb26770",
    (2, 1, "r", F(5, 2)):
        "bb8f9f0f849c06966037945614b425ec74afb73fac0d9365561f5e55e2a24179",
    (1, 0, "r", F(4)):
        "996d161c2a53484ab9074ed055c3e82569b4de40db025aa9dc10cf6373d693f4",
}
TAU_REFINED = (
    "dd8f2b8f592f21e6d8439c4bbcb8973850e63cb9a20435d33104e19af3026416",
    "cc16d6c9ee1741afd9672cede044c42315a38cccb000fc06799e5257a58e3b33",
)


@pytest.mark.parametrize("args", sorted(ENUMERATED))
def test_enumerate_states_unchanged(args):
    text = "\n".join(repr(s) for s in enumerate_states(SectorSpec(*args)))
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATED[args]


def test_tau_refined_trace_unchanged():
    laurent = LaurentRing(("x",))
    calls = [(RationalRing(), [OpSpec("D", F(2)), OpSpec("C", F(-3, 2))]),
             (laurent, [OpSpec("D", laurent.from_fraction(F(5, 3)))])]
    for (ring, ops), digest in zip(calls, TAU_REFINED):
        tp, tm = tau_refined_trace(ops, 5, ring)
        assert hashlib.sha256((tp.dumps() + tm.dumps()).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the charge sectors of one pair
# ---------------------------------------------------------------------------

ZR = LaurentRing(("z",))
SZ = RatFuncRing(("s", "z"))


@pytest.mark.parametrize("sector, kind, ring, unit", [
    ("ns", "D", ZR, ZR.from_fraction(F(2))),
    ("ns", "A", ZR, ZR.from_fraction(F(-3, 2))),
    ("r", "B", ZR, ZR.from_fraction(F(5, 3))),
    ("ns", "C", SZ, SZ.var("s")),
    ("r", "B", SZ, SZ.var("s")),
], ids=["ns-D", "ns-A", "r-B", "ns-C-symbolic", "r-B-symbolic"])
def test_charge_sectors_split_the_graded_trace(sector, kind, ring, unit):
    # each sector is the charge-filtered trace, and the sectors, graded by
    # z^k in NS and w^(2k) in R, sum to the graded trace
    spec = SectorSpec(1, 0, sector, F(9, 2))
    ops = [OpSpec(kind, unit)]
    sectors = fock_oracle.charge_sectors(spec, ops, ring)
    shift = F(1, 2) if sector == "r" else F(0)
    # below energy 9/2: |k| <= 2 in NS, |k| <= 5/2 in R
    assert list(sectors) == [k + shift for k in range(-2 - (sector == "r"), 3)]
    for k in range(-4, 5):
        want = trace(spec, ops, ring, charge=k + shift)
        got = sectors.get(k + shift, QSeries.zero(ring, want.trunc / 16))
        assert got.trunc == want.trunc
        assert got.first_mismatch(want) is None, k
    graded = trace(spec, ops, ring, zvars=("z",))
    total = QSeries.zero(ring, graded.trunc / 16)
    for k, series in sectors.items():
        total = total + series.scale(ring.var("z", int(2 * k if sector == "r" else k)))
    assert total.first_mismatch(graded) is None


def test_charge_sectors_enumerate_each_flavor_once(monkeypatch):
    calls = []
    enumerate_flavor = fock_oracle._flavor_signature_states

    def counted(spec, flavor, *args):
        calls.append(flavor)
        return enumerate_flavor(spec, flavor, *args)

    monkeypatch.setattr(fock_oracle, "_flavor_signature_states", counted)
    sectors = fock_oracle.charge_sectors(SectorSpec(1, 0, "ns", 6),
                                         [OpSpec("D", F(2))], RationalRing())
    assert len(sectors) == 7 and sorted(calls) == ["minus", "plus"]


@pytest.mark.parametrize("pairs", [0, 2])
def test_charge_sectors_take_one_pair(pairs):
    with pytest.raises(ValueError, match="one pair"):
        fock_oracle.charge_sectors(SectorSpec(pairs, 0, "ns", 3), [], RationalRing())
