"""Per-label oracle checks against an independent reference: the full
l-variable product of one-pair graded traces times the Weyl denominator,
with each closed-form correlator read off as the coefficient of its
dominant monomial z^{lambda+rho}.  The registry's ``howe_check`` reads the
same coefficient as a determinant of charge sectors; at rank 2 the two
must agree label by label.
"""

from fractions import Fraction as F

from fockcorr import identities
from fockcorr.characters import (FAMILIES, denominator_det, det_kind,
                                 dominant_exponents, torus_vars)
from fockcorr.combinat import enumerate_labels
from fockcorr.correlators import npoint, qdim
from fockcorr.fock_oracle import OpSpec, SectorSpec, trace
from fockcorr.qseries import LaurentRing, QSeries, RationalRing
from fockcorr.weyl import rho
from reference_characters import character, dominant_coefficient


def _oracle_product(family, sector, opkind, l, svals, order):
    gvars = torus_vars(family, l)
    ring = LaurentRing(gvars)
    units = tuple(ring.from_fraction(F(s)) for s in svals)
    ops = [OpSpec(opkind, u) for u in units]
    lhs = QSeries.one(ring, order)
    for i in range(l):
        tr = trace(SectorSpec(1, 0, sector, order), ops, ring, zvars=(gvars[i],))
        lhs = lhs * tr
    return lhs.scale(denominator_det(family, l))


def _extract(series, family, label):
    """The scalar q-series multiplying the label's monomial z^{lambda+rho}."""
    key = dominant_exponents(family, label.weight(), label.rank())
    out = {}
    for e, c in series.terms.items():
        v = c.terms.get(key)
        if v:
            out[e] = v
    return QSeries(RationalRing(), out, series.trunc, _clean=False)


def _registry_lhs(monkeypatch, identity, l, order, svals):
    """{lambda: the determinant ``howe_check`` compares for that label}."""
    monkeypatch.setattr(identities, "_compare",
                        lambda identity, params, order, cases: list(cases))
    cases = identities.howe_check(identity, l=l, n=len(svals), order=order, svals=svals)
    return {case["lam"]: lhs for case, lhs, _ in cases}


def _check_rank2(monkeypatch, identity, algebra, family, sector, opkind, c, order):
    lhs = _oracle_product(family, sector, opkind, 2, (2,), order)
    registry = _registry_lhs(monkeypatch, identity, 2, order, (2,))
    scalar = RationalRing()
    units = (scalar.from_fraction(F(2)),)
    labels = enumerate_labels(algebra, 2, order)
    assert sorted(registry) == sorted(label.lam for label in labels)
    for label in labels:
        got = _extract(lhs, family, label)
        assert got.first_mismatch(registry[label.lam], order) is None, label
        ref = npoint(label, units, scalar, order)
        assert (got * F(1, c)).first_mismatch(ref, order) is None, label


def test_per_label_extraction_type_d_rank2(monkeypatch):
    for label in enumerate_labels("d", 2, 6):
        c_lam = 1 if label.lam[-1] == 0 else 2
        assert c_lam * dominant_coefficient("O2l", label) == 2
    _check_rank2(monkeypatch, "howe-D", "d", "O2l", "ns", "D", 2, 6)


def test_per_label_extraction_type_c_rank2(monkeypatch):
    for label in enumerate_labels("c", 2, 6):
        assert dominant_coefficient("Sp2l", label) == 1
    _check_rank2(monkeypatch, "howe-C", "c", "Sp2l", "ns", "C", 1, 6)


def test_per_label_extraction_type_b_rank2(monkeypatch):
    _check_rank2(monkeypatch, "howe-Pin", "b", "Pin2l", "r", "B", 2, 5)


def test_per_label_qdim_extraction_rank2():
    # n = 0: graded dimensions read off the pure q^{L0} traces
    order = 8
    lhs = _oracle_product("O2l", "ns", "D", 2, (), order)
    for label in enumerate_labels("d", 2, order):
        got = _extract(lhs, "O2l", label) * F(1, 2)
        ref = qdim(label, order)
        assert got.first_mismatch(ref, order) is None, label


# ---------------------------------------------------------------------------
# the one home of each label set's Weyl type, dual group and charge grading
# ---------------------------------------------------------------------------

def _row_labels(algebra, half, order):
    """(l, level, labels below q^order) of a duality row for l <= 4."""
    for l in range(5):
        level = l + F(int(half), 2)
        if level:
            yield l, level, enumerate_labels(algebra, level, order)


def test_duality_rows_agree_with_the_label_sets():
    for (algebra, half), (family, _) in identities.DUALITY.items():
        wtype, scale = FAMILIES[family]
        assert scale == (2 if family in ("B2l1", "Pin2l") else 1)
        for l, level, labels in _row_labels(algebra, half, 4):
            assert labels
            assert {label.weyl_type() for label in labels} == {wtype}, (family, level)
            assert torus_vars(family, l) == tuple(
                f"{'w' if scale == 2 else 'z'}{j + 1}" for j in range(l))
            assert dominant_exponents(family, (0,) * l, l) == tuple(
                scale * r for r in rho(wtype, l))


def test_howe_ids_cover_every_duality_row():
    assert sorted(identities.HOWE_IDS.values()) == sorted(identities.DUALITY)
    assert len(set(identities.HOWE_IDS.values())) == len(identities.HOWE_IDS)


def test_character_times_denominator_leads_with_the_family_constant():
    # the constant that turns a row's c into its duality multiplicity for
    # qdim-consistency: 2 for the + families, whose denominator determinant
    # has the row z^0 + z^0, else 1; the same for every label
    for (algebra, half), (family, c) in identities.DUALITY.items():
        lead = 2 if det_kind(family) == "+" else 1
        assert c % lead == 0
        for l, level, labels in _row_labels(algebra, half, 3):
            if not 1 <= l <= 2:
                continue
            den = denominator_det(family, l)
            for label in labels:
                key = dominant_exponents(family, label.weight(), l)
                got = (character(family, label) * den).terms.get(key)
                assert got == lead, (family, label)
