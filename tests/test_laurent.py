from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcorr.errors import InexactDivisionError, PoleError
from fockcorr.laurent import LaurentPoly, RationalFunction, exact_div

SV = ("s",)
ZV = ("z1", "z2")


def poly(vars_, terms):
    return LaurentPoly(vars_, {tuple(e): F(c) for e, c in terms.items()})


def test_exact_div_sp2_character():
    num = poly(("z",), {(2,): 1, (-2,): -1})
    den = poly(("z",), {(1,): 1, (-1,): -1})
    assert exact_div(num, den) == poly(("z",), {(1,): 1, (-1,): 1})


def test_exact_div_two_variables():
    num = poly(ZV, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})
    den = poly(ZV, {(0, 1): 1, (0, -1): 1})
    assert exact_div(num, den) == poly(ZV, {(1, 0): 1, (-1, 0): 1})


def test_exact_div_rejects_remainder():
    num = poly(SV, {(2,): 1, (0,): 1})
    den = poly(SV, {(1,): 1, (0,): 1})
    with pytest.raises(InexactDivisionError):
        exact_div(num, den)


# coefficients of either type: ints and Fractions, integral ones included
rand_coeff = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.fractions(min_value=-3, max_value=3))
rand_poly = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-3, max_value=3), rand_coeff),
    min_size=1, max_size=4,
)


def mk2(entries):
    return LaurentPoly(ZV, {(a, b): c for a, b, c in entries})


def in_normal_form(p):
    """Every coefficient is an int or a non-integral Fraction."""
    return all(type(c) is int or (type(c) is F and c.denominator != 1)
               for c in p.terms.values())


@given(rand_poly, rand_poly)
@settings(max_examples=80, deadline=None)
def test_exact_div_roundtrip(ea, eb):
    a, b = mk2(ea), mk2(eb)
    if b.is_zero:
        return
    q = exact_div(a * b, b)
    assert q == a
    assert in_normal_form(q)


@given(rand_poly)
@settings(max_examples=30, deadline=None)
def test_self_division_is_one(entries):
    p = mk2(entries)
    if p.is_zero:
        return
    assert exact_div(p, p) == LaurentPoly.const(ZV, 1)


@given(rand_poly, rand_poly)
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_homomorphism(ea, eb):
    a, b = mk2(ea), mk2(eb)
    point = {"z1": F(2), "z2": F(-3, 2)}
    assert (a * b).eval_at(point) == a.eval_at(point) * b.eval_at(point)
    assert (a + b).eval_at(point) == a.eval_at(point) + b.eval_at(point)


def test_eval_examples():
    p = poly(SV, {(1,): 1, (-1,): -1})
    assert p.eval_at({"s": F(2)}) == F(3, 2)     # t^{1/2}-t^{-1/2} at t=4
    ratio = RationalFunction(poly(SV, {(2,): 1, (0,): 1}),
                             poly(SV, {(2,): 1, (0,): -1}))
    assert ratio.eval_at({"s": F(2)}) == F(5, 3)  # (t+1)/(t-1) at t=4
    ch = poly(("z",), {(1,): 1, (-1,): 1})
    assert ch.eval_at({"z": F(3)}) == F(10, 3)


def test_eval_pole_and_unbound():
    p = poly(SV, {(-1,): 1})
    with pytest.raises(PoleError):
        p.eval_at({"s": F(0)})
    with pytest.raises(PoleError):
        p.eval_at({})
    ratio = RationalFunction(poly(SV, {(0,): 1}), poly(SV, {(1,): 1, (-1,): -1}))
    with pytest.raises(PoleError):
        ratio.eval_at({"s": F(1)})


def test_rf_content_reduction():
    a = RationalFunction(poly(SV, {(2,): 2, (0,): -2}), poly(SV, {(1,): 4}))
    b = RationalFunction(poly(SV, {(2,): 1, (0,): -1}), poly(SV, {(1,): 2}))
    assert a == b
    # (t-1)/t^{1/2} in s-variables reduces to a pure Laurent polynomial
    assert a.is_laurent()
    assert a.as_laurent() == poly(SV, {(1,): F(1, 2), (-1,): F(-1, 2)})


def test_rf_common_factor_cancellation():
    p = poly(SV, {(1,): 1, (0,): 3})
    a = poly(SV, {(2,): 1, (0,): -1})
    b = poly(SV, {(1,): 1})
    lhs = RationalFunction(a * p, b * p)
    rhs = RationalFunction(a, b)
    assert lhs == rhs
    assert lhs.den == rhs.den  # the univariate gcd actually fired


def test_rf_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly(SV, {(0,): 1}), LaurentPoly.zero(SV))


@given(rand_poly, rand_poly, rand_poly)
@settings(max_examples=40, deadline=None)
def test_rf_equivalence_relation(ea, eb, ec):
    a, b, c = mk2(ea), mk2(eb), mk2(ec)
    if b.is_zero or c.is_zero:
        return
    x = RationalFunction(a, b)
    y = RationalFunction(a * c, b * c)
    assert x == y and y == x
    z = RationalFunction(a * c * c, b * c * c)
    assert (x == y) and (y == z) and (x == z)


@given(rand_poly, rand_poly)
@settings(max_examples=40, deadline=None)
def test_rf_agrees_with_evaluation(ea, eb):
    a, b = mk2(ea), mk2(eb)
    if b.is_zero:
        return
    x = RationalFunction(a, b)
    points = [
        {"z1": F(2), "z2": F(3)}, {"z1": F(-2), "z2": F(5, 2)},
        {"z1": F(3, 2), "z2": F(-1, 3)}, {"z1": F(7), "z2": F(2, 5)},
        {"z1": F(-5, 3), "z2": F(-7, 2)},
    ]
    for pt in points:
        try:
            lhs = x.eval_at(pt)
        except PoleError:
            continue
        assert lhs * b.eval_at(pt) == a.eval_at(pt)


def test_rf_arithmetic_fast_paths():
    s = poly(SV, {(1,): 1})
    den = poly(SV, {(2,): 1, (0,): -1})
    a = RationalFunction(poly(SV, {(0,): 1}), den)
    b = RationalFunction(poly(SV, {(1,): 2}), den)
    assert (a + b) == RationalFunction(poly(SV, {(0,): 1, (1,): 2}), den)
    c = RationalFunction(s, den * den)
    total = a + c
    assert total * RationalFunction(den * den, poly(SV, {(0,): 1})) \
        == RationalFunction(den + s, poly(SV, {(0,): 1}))


@given(rand_poly, rand_poly,
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       rand_coeff.filter(bool))
@settings(max_examples=60, deadline=None)
def test_coefficients_stay_in_normal_form(ea, eb, mono_e, mono_c):
    a, b = mk2(ea), mk2(eb)
    mono = LaurentPoly.monomial(ZV, mono_e, mono_c)
    results = [a, a + b, a - b, a * b, a * F(2), a * F(1, 2), mono ** -1,
               mono ** -2, a.map_coeffs(lambda c: c * F(2)),
               a.map_coeffs(lambda c: F(c, 2)),
               LaurentPoly.from_json(ZV, a.to_json())]
    if not b.is_zero:
        results.append(exact_div(a * b, b))
        rf = RationalFunction(a, b)
        results += [rf.num, rf.den]
    for p in results:
        assert in_normal_form(p), p.terms


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-5, 5).filter(bool)),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_int_and_fraction_coefficients_agree(entries):
    ints = {(a, b): c for a, b, c in entries}
    fracs = {e: F(c) for e, c in ints.items()}
    p, q = LaurentPoly(ZV, ints), LaurentPoly(ZV, fracs)
    assert p == q and hash(p) == hash(q)
    # a poly holding integral Fractions unnormalized still agrees
    raw = LaurentPoly(ZV, fracs, _clean=False)
    assert raw == p and hash(raw) == hash(p)
    one = LaurentPoly.const(ZV, 1)
    assert hash(RationalFunction(p, one)) == hash(RationalFunction(q, one))


@given(rand_poly, st.integers(-4, 4).filter(bool),
       st.integers(-4, 4).filter(bool))
@settings(max_examples=40, deadline=None)
def test_eval_at_integer_points_is_fraction(entries, x, y):
    p = mk2(entries)
    value = p.eval_at({"z1": x, "z2": y})
    assert type(value) is F
    assert type(LaurentPoly.const(ZV, 3).eval_at({"z1": x, "z2": y})) is F
