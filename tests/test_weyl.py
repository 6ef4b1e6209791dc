import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product
from operator import mul

import pytest

from fockcorr.characters import denominator_det, torus_vars
from fockcorr.laurent import LaurentPoly
from fockcorr.qseries import QSeries, RationalRing
from fockcorr.weyl import (positive_roots, rho, weyl_denominator_poly, weyl_qpoly,
                           weyl_sum, weyl_sum_product_form)


def test_rho():
    assert rho("D", 3) == (F(2), F(1), F(0))
    assert rho("B", 1) == (F(1, 2),)
    assert rho("C", 2) == (F(2), F(1))


# the reference: the full group, enumerated element by element


def elements(wtype, l):
    """All (perm, signs) pairs in the order of (perm, signs), +1 before -1;
    the element acts by (w v)_i = signs[i] * v[perm[i]], and type D keeps
    only even numbers of sign flips."""
    return [(perm, signs) for perm in permutations(range(l))
            for signs in product((1, -1), repeat=l)
            if wtype != "D" or signs.count(-1) % 2 == 0]


def apply(elem, vec):
    perm, signs = elem
    return tuple(signs[i] * vec[perm[i]] for i in range(len(vec)))


def sign_char(elem):
    """det of the signed permutation matrix: the parity of perm, one factor
    (-1)^(c-1) per cycle of length c, times the product of the signs."""
    perm, signs = elem
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        sign = -sign
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            sign = -sign
    for x in signs:
        sign *= x
    return sign


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


def test_group_orders():
    assert len(elements("B", 3)) == 48
    assert len(elements("C", 2)) == 8
    assert len(elements("D", 2)) == 4
    assert len(elements("D", 3)) == 24


@pytest.mark.parametrize("wtype,l", [("B", 2), ("C", 2), ("D", 2), ("D", 3)])
def test_sign_char_equals_length_parity(wtype, l):
    for elem in elements(wtype, l):
        assert sign_char(elem) == (-1) ** length_by_inversions(wtype, elem, l)


def reference_orbit(wtype, l):
    """(sign, 2 sigma(rho)) for every element sigma, in enumeration order."""
    r2 = [int(2 * x) for x in rho(wtype, l)]
    return [(sign_char(elem), apply(elem, r2)) for elem in elements(wtype, l)]


@pytest.mark.parametrize("wtype", ["B", "C", "D"])
@pytest.mark.parametrize("l", range(6))
def test_weyl_sum_equals_the_full_enumeration(wtype, l):
    # every label with parts <= 3, integral and shifted by 1/2; the records
    # are those of the enumeration with 8 qexp < 8 order, in its order, which
    # fixes the exact bytes of the sums folded over them
    orbit = reference_orbit(wtype, l)
    for half in (F(0), F(1, 2)):
        for parts in combinations_with_replacement(range(3, -1, -1), l):
            lam = tuple(F(x) + half for x in parts)
            top = [int(2 * (a + r)) for a, r in zip(lam, rho(wtype, l))]
            # ||top - v||^2, where ||v|| = ||2 rho|| (orbit[0] is the identity)
            base = sum(x * x for x in top) + sum(x * x for x in orbit[0][1])
            norms = [(base - 2 * sum(map(mul, top, sr2)), sign, sr2) for sign, sr2 in orbit]
            for bound in (24, 52, 96):  # orders 3, 13/2 and 12
                ref = [(sign, F(norm, 8), tuple(F(a - b, 2) for a, b in zip(top, sr2)))
                       for norm, sign, sr2 in norms if norm < bound]
                assert weyl_sum(lam, wtype, l, F(bound, 8)) == ref, (lam, bound)


@pytest.mark.parametrize("wtype", ["B", "D"])
@pytest.mark.parametrize("l", range(6))
def test_denominator_poly_equals_the_full_enumeration(wtype, l):
    vars_ = tuple(f"z{i}" for i in range(l))
    terms = {}
    for sign, sr2 in reference_orbit(wtype, l):
        exps = tuple(x // 2 for x in sr2) if wtype == "D" else sr2
        terms[exps] = terms.get(exps, 0) + sign
    got = weyl_denominator_poly(wtype, l, vars_)
    assert got == LaurentPoly(vars_, terms)
    assert list(got.terms.items()) == list(terms.items())


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
