import random
from fractions import Fraction as F

import pytest

from fockcorr.characters import denominator_det, torus_vars
from fockcorr.qseries import QSeries, RationalRing
from fockcorr.weyl import (apply, elements, positive_roots, rho, sign_char,
                           weyl_denominator_poly, weyl_qpoly, weyl_sum,
                           weyl_sum_product_form)


def test_rho():
    assert rho("D", 3) == (F(2), F(1), F(0))
    assert rho("B", 1) == (F(1, 2),)
    assert rho("C", 2) == (F(2), F(1))


def test_group_orders():
    assert len(elements("B", 3)) == 48
    assert len(elements("C", 2)) == 8
    assert len(elements("D", 2)) == 4
    assert len(elements("D", 3)) == 24


def length_by_inversions(wtype, elem, l):
    """Number of positive roots sent to negative ones (the reduced-word length)."""
    perm, signs = elem
    count = 0
    for alpha in positive_roots(wtype, l):
        # image of the root under the linear map (w e_j = signs[pi^-1(j)] e_{pi^-1(j)})
        img = [0] * l
        for j, c in enumerate(alpha):
            if c:
                i = perm.index(j)
                img[i] += signs[i] * c
        # negative iff the first nonzero coordinate is negative
        for x in img:
            if x:
                if x < 0:
                    count += 1
                break
    return count


@pytest.mark.parametrize("wtype,l", [("B", 2), ("C", 2), ("D", 2), ("D", 3)])
def test_sign_char_equals_length_parity(wtype, l):
    for elem in elements(wtype, l):
        assert sign_char(wtype, elem) == (-1) ** length_by_inversions(wtype, elem, l)


def test_weyl_sum_examples():
    assert weyl_sum((F(3),), "D", 1, 10) == [(1, F(9, 2), (F(3),))]
    recs = sorted(weyl_sum((F(2),), "B", 1, 10))
    assert recs == sorted([(1, F(2), (F(2),)), (-1, F(9, 2), (F(3),))])
    recs = sorted(weyl_sum((F(1),), "C", 1, 10))
    assert recs == sorted([(1, F(1, 2), (F(1),)), (-1, F(9, 2), (F(3),))])


def test_weyl_sum_drops_records_at_the_order():
    # the B record at q^{9/2} sits at the order and is dropped
    assert weyl_sum((F(2),), "B", 1, F(9, 2)) == [(1, F(2), (F(2),))]
    assert len(weyl_sum((F(2),), "B", 1, F(19, 4))) == 2


def test_weyl_sum_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_sum((F(1), F(2)), "B", 2, 10)


def test_product_form_examples():
    ps = weyl_sum_product_form((F(2),), "B", 1, 10)
    assert ps.coeff(2) == 1 and ps.coeff(F(9, 2)) == -1
    assert ps.coeff(3) == 0
    # rank-1 type D: empty positive-root product
    ps = weyl_sum_product_form((F(3),), "D", 1, 10)
    assert ps.coeff(F(9, 2)) == 1 and len(ps.terms) == 1
    # C_2 at lambda = 0: (1-q)(1-q^3)(1-q^4)(1-q^2)
    ps = weyl_sum_product_form((F(0), F(0)), "C", 2, 11)
    ring = RationalRing()
    ref = QSeries.one(ring, 11)
    for e in (1, 3, 4, 2):
        ref = ref * (QSeries.one(ring, 11) - QSeries.monomial(ring, e, F(1), 11))
    assert ps.first_mismatch(ref) is None


def test_weyl_lemma_random_weights():
    rng = random.Random(1)
    for wtype in ("B", "C", "D"):
        for l in range(1, 5):
            for _ in range(5):
                lam = tuple(sorted((F(rng.randrange(0, 5)) for _ in range(l)),
                                   reverse=True))
                a = weyl_qpoly(lam, wtype, l, 12)
                b = weyl_sum_product_form(lam, wtype, l, 12)
                assert a.first_mismatch(b) is None
    # half-integral weights (spin labels) satisfy the lemma too
    lam = (F(5, 2), F(1, 2))
    a = weyl_qpoly(lam, "D", 2, 12)
    b = weyl_sum_product_form(lam, "D", 2, 12)
    assert a.first_mismatch(b) is None


def test_denominator_specialization():
    # lambda = 0 reproduces prod(1 - q^{(rho, alpha)})
    for wtype, l in (("B", 2), ("C", 3), ("D", 3)):
        zero = (F(0),) * l
        a = weyl_qpoly(zero, wtype, l, 10)
        b = weyl_sum_product_form(zero, wtype, l, 10)
        assert a.first_mismatch(b) is None
        assert a.coeff(0) == 1


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_monomial_denominator_identity_type_d(l):
    vars_ = torus_vars("O2l", l)
    half_det = denominator_det("O2l", l) * F(1, 2)
    assert half_det == weyl_denominator_poly("D", l, vars_)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_monomial_denominator_identity_type_b(l):
    # the minus-sign determinant of the character formula is the one that
    # satisfies the identity; the plus-sign variant printed alongside fails
    vars_ = torus_vars("B2l1", l)
    wd = weyl_denominator_poly("B", l, vars_)
    assert denominator_det("B2l1", l) == wd
    assert denominator_det("B2l1", l, kind="+") != wd


def test_apply_and_orbit():
    elems = elements("B", 2)
    r = rho("B", 2)
    orbit = {apply(e, r) for e in elems}
    assert len(orbit) == 8  # rho is regular
