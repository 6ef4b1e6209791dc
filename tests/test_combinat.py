from fractions import Fraction as F

import pytest

from fockcorr.combinat import (FrobeniusCoords, ModuleLabel, Partition,
                               enumerate_labels, frobenius,
                               from_frobenius, fundamental_weight_label,
                               odd_strict_partitions, osp_to_sym,
                               partitions_up_to, sym_to_osp)
from fockcorr.errors import LabelError


def test_partition_basics():
    p = Partition((3, 1, 0))
    assert p.size == 4 and p.norm2 == 10
    assert p.conjugate().parts == (2, 1, 1)
    assert p.rank() == 1
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_frobenius_examples():
    assert frobenius(Partition((3, 1))) == FrobeniusCoords((F(5, 2),), (F(3, 2),))
    assert frobenius(Partition(())) == FrobeniusCoords((), ())
    fc = frobenius(Partition((5, 4, 3, 2, 1)))
    assert fc.p == (F(9, 2), F(5, 2), F(1, 2)) and fc.q == fc.p


def test_frobenius_round_trip_exhaustive():
    for lam in partitions_up_to(12):
        part = Partition(lam)
        assert from_frobenius(frobenius(part)).nonzero() == part.nonzero()


def test_sym_to_osp_examples():
    assert sym_to_osp(Partition((5, 4, 3, 2, 1))) == (9, 5, 1)
    assert sym_to_osp(Partition((1,))) == (1,)
    assert sym_to_osp(Partition((2, 2))) == (3, 1)
    with pytest.raises(ValueError):
        sym_to_osp(Partition((2, 1, 1)))


def test_sym_osp_bijection_to_20():
    images = {}
    for lam in partitions_up_to(20):
        part = Partition(lam)
        if not part.is_symmetric():
            continue
        mu = sym_to_osp(part)
        assert sum(mu) == part.size
        assert len(mu) == part.rank()
        assert mu not in images
        images[mu] = part
        assert osp_to_sym(mu).nonzero() == part.nonzero()
    osps = set(odd_strict_partitions(20))
    assert set(images) == osps


def test_enumerate_labels_examples():
    labs = enumerate_labels("d", 1, 2)
    assert [l.lam for l in labs] == [(0,), (1,)]
    labs = enumerate_labels("c", 1, F(1, 2))
    assert [l.lam for l in labs] == [(0,)]
    labs = enumerate_labels("b", 1, 2)
    assert [l.lam for l in labs] == [(0,), (1,)]
    assert [l.weight() for l in labs] == [(F(1, 2),), (F(3, 2),)]
    # the half-level first iteration gives the empty label for b and d alike
    for algebra in ("b", "d"):
        assert [l.lam for l in enumerate_labels(algebra, F(1, 2), 1)] == [()]
    # soundness: norms of enumerated labels stay below the bound
    for lab in enumerate_labels("b", 2, 5):
        assert lab.norm2() / 2 < 5


def test_b_labels_are_spin_labels():
    # Sigma(Pin): the 1/2 shift follows from the algebra alone
    assert ModuleLabel("b", 1, (0,)).weight() == (F(1, 2),)
    assert ModuleLabel("b", F(3, 2), (2,)).weight() == (F(5, 2),)
    assert ModuleLabel("d", 1, (0,)).weight() == (F(0),)


@pytest.mark.parametrize("level", [1, 2, 3, F(1, 2), F(3, 2), F(5, 2)])
def test_weyl_type_of_every_algebra(level):
    # C for algebra c, B at a half-integer level, D otherwise; type A has none
    l = int(level)
    half = F(level).denominator == 2
    for algebra in ("b", "d"):
        assert ModuleLabel(algebra, level, (0,) * l).weyl_type() == ("B" if half else "D")
        assert ModuleLabel(algebra, level, (1,) * l).weyl_type() == ("B" if half else "D")
    if not half:
        assert ModuleLabel("c", level, (1,) + (0,) * (l - 1)).weyl_type() == "C"
        with pytest.raises(LabelError, match="no B/C/D Weyl type"):
            ModuleLabel("a", level, (0,) * (l - 1) + (-1,)).weyl_type()


def test_label_validation():
    with pytest.raises(LabelError):
        ModuleLabel("d", 1, (1,), det=True)      # lam_l > 0 has no det partner
    with pytest.raises(LabelError):
        ModuleLabel("c", F(3, 2), (1,))          # c has integer levels only
    with pytest.raises(LabelError):
        ModuleLabel("b", 1, (1,), det=True)      # Sigma(Pin) has no det twist
    with pytest.raises(LabelError):
        ModuleLabel("a", 1, (1,), det=True)
    with pytest.raises(LabelError):
        ModuleLabel("d", 2, (2, 1, 0))           # wrong length
    lab = ModuleLabel("a", 2, (1, -3))           # Sigma(A) admits negatives
    assert lab.lam == (1, -3)


def test_fundamental_weight_maps():
    # d-type Sigma(D): lam = (1,0), l = 2: i=0, j=1 -> 3 Lambda_0 + Lambda_1
    assert fundamental_weight_label(ModuleLabel("d", 2, (1, 0))) == {0: 3, 1: 1}
    # the det twist swaps the two special multiplicities
    assert fundamental_weight_label(ModuleLabel("d", 2, (1, 0), det=True)) \
        == {0: 1, 1: 3}
    assert fundamental_weight_label(ModuleLabel("d", 2, (3, 2))) \
        == {0: 0, 1: 0, 3: 1, 2: 1} or \
        fundamental_weight_label(ModuleLabel("d", 2, (3, 2))) == {3: 1, 2: 1}
    # c-type: trivial label -> l Lambda_0
    assert fundamental_weight_label(ModuleLabel("c", 3, (0, 0, 0))) == {0: 3}
    assert fundamental_weight_label(ModuleLabel("c", 2, (1, 1))) == {1: 2}
    # b-type level l: (2l-2j) Lambda_0 + sum Lambda_{m_k}
    assert fundamental_weight_label(ModuleLabel("b", 2, (3, 2))) \
        == {3: 1, 2: 1}
    assert fundamental_weight_label(ModuleLabel("b", 1, (0,))) == {0: 2}
    # b-type level l+1/2
    assert fundamental_weight_label(
        ModuleLabel("b", F(3, 2), (2,))) == {0: 1, 2: 1}
    # d-type level l+1/2 (Sigma(B))
    assert fundamental_weight_label(ModuleLabel("d", F(5, 2), (2, 1))) \
        == {0: 2, 1: 1, 2: 1}
    # convention: no part equal to 1 forces i = j
    assert fundamental_weight_label(ModuleLabel("d", 2, (2, 0))) == {0: 2, 1: 0, 2: 1} \
        or fundamental_weight_label(ModuleLabel("d", 2, (2, 0))) == {0: 2, 2: 1}


def test_enumerate_labels_soundness():
    # omitted labels contribute nothing below the bound: their correlators
    # have leading exponent ||weight||^2/2 >= bound
    from fockcorr.correlators import npoint
    from fockcorr.qseries import RationalRing
    ring = RationalRing()
    bound = F(2)
    for algebra, level in (("d", 1), ("c", 1), ("b", 1)):
        kept = {lab.lam for lab in enumerate_labels(algebra, level, bound)}
        omitted = [lab for lab in enumerate_labels(algebra, level, 8)
                   if lab.lam not in kept][:3]
        assert omitted
        for lab in omitted:
            series = npoint(lab, (F(2),), ring, bound)
            assert not series


def test_osp_generating_function_counts():
    # number of odd strict partitions of n, independently via the bijection
    from collections import Counter
    by_size = Counter(sum(mu) for mu in odd_strict_partitions(20))
    sym_count = Counter(
        sum(lam) for lam in partitions_up_to(20) if Partition(lam).is_symmetric())
    assert by_size == sym_count
