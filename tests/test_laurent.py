from fractions import Fraction as F
from operator import add, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcorr.errors import InexactDivisionError, PoleError
from fockcorr.laurent import (LaurentPoly, RationalFunction, _div, _fr,
                              _univariate_coeffs, _univariate_gcd, exact_div)

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


# -- fast paths against the general code they short-circuit -------------------
# The references are the general product loop, long division and normal form
# that ``__mul__``, ``exact_div`` and ``RationalFunction._normalize`` run when
# no fast path applies.

def reference_mul(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return LaurentPoly(a.vars, {e: _fr(v) for e, v in out.items()}, _clean=False)


def reference_exact_div(num, den):
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero(num.vars)
    nshift = num.min_exps()
    dshift = den.min_exps()
    rem = {tuple(map(sub, e, nshift)): c for e, c in num.terms.items()}
    d0 = [(tuple(map(sub, e, dshift)), c) for e, c in den.terms.items()]
    dlead_e, dlead_c = max(d0)
    total_shift = tuple(map(sub, nshift, dshift))
    quot = {}
    while rem:
        rlead_e = max(rem)
        qe = tuple(map(sub, rlead_e, dlead_e))
        if any(x < 0 for x in qe):
            raise InexactDivisionError("inexact division")
        qc = _div(rem[rlead_e], dlead_c)
        quot[tuple(map(add, qe, total_shift))] = qc
        for e, c in d0:
            e = tuple(map(add, e, qe))
            v = rem.get(e, 0) - c * qc
            if v:
                rem[e] = _fr(v)
            else:
                rem.pop(e, None)
    return LaurentPoly(num.vars, quot, _clean=False)


def reference_normalize(num, den):
    if num.is_zero:
        return num, LaurentPoly.const(den.vars, 1)
    dshift = den.min_exps()
    if any(dshift):
        den = den.shift(tuple(-x for x in dshift))
        num = num.shift(tuple(-x for x in dshift))
    evars = num.effective_vars() | den.effective_vars()
    if len(evars) == 1:
        idx = next(iter(evars))
        nshift = num.min_exps()
        n0 = num.shift(tuple(-x for x in nshift))
        g = _univariate_gcd(_univariate_coeffs(n0, idx), _univariate_coeffs(den, idx))
        if len(g) > 1:
            vars_ = num.vars
            gpoly = LaurentPoly(
                vars_,
                {tuple(k if i == idx else 0 for i in range(len(vars_))): c
                 for k, c in enumerate(g) if c},
            )
            n0 = reference_exact_div(n0, gpoly)
            den = reference_exact_div(den, gpoly)
            num = n0.shift(nshift)
            dshift2 = den.min_exps()
            if any(dshift2):
                den = den.shift(tuple(-x for x in dshift2))
                num = num.shift(tuple(-x for x in dshift2))
    _, lead = den.lex_lead()
    if lead != 1:
        den = den.map_coeffs(lambda c: _div(c, lead))
        num = num.map_coeffs(lambda c: _div(c, lead))
    return num, den


def typed_terms(p):
    """Terms with each coefficient's type, so int and Fraction differ."""
    return sorted((e, type(c).__name__, c) for e, c in p.terms.items())


def div_outcome(div, num, den, terms=typed_terms):
    try:
        return terms(div(num, den))
    except InexactDivisionError:
        return "inexact"


@st.composite
def fast_path_polys(draw, vars_):
    """The constant 1, other constants, monomials and general polynomials."""
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars_))
    kind = draw(st.sampled_from(("one", "const", "monomial", "general")))
    if kind == "one":
        return LaurentPoly.const(vars_, 1)
    if kind == "const":
        return LaurentPoly.const(vars_, draw(rand_coeff.filter(bool)))
    if kind == "monomial":
        return LaurentPoly.monomial(vars_, draw(exps), draw(rand_coeff.filter(bool)))
    return LaurentPoly(vars_, dict(draw(st.lists(st.tuples(exps, rand_coeff),
                                                 min_size=1, max_size=5))))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fast_paths_match_the_general_code(data):
    vars_ = ("s1", "s2", "s3")[:data.draw(st.integers(1, 3))]
    a = data.draw(fast_path_polys(vars_))
    b = data.draw(fast_path_polys(vars_))
    assert typed_terms(a * b) == typed_terms(reference_mul(a, b))
    assert typed_terms(b * a) == typed_terms(reference_mul(b, a))
    if b.is_zero:
        return
    # an exact product d*q as well as an arbitrary numerator
    for num in (a, reference_mul(b, a)):
        assert div_outcome(exact_div, num, b) \
            == div_outcome(reference_exact_div, num, b)
        rf = RationalFunction(num, b)
        ref_num, ref_den = reference_normalize(num, b)
        assert typed_terms(rf.num) == typed_terms(ref_num)
        assert typed_terms(rf.den) == typed_terms(ref_den)


def test_unit_operands_return_the_other_operand():
    p = poly(ZV, {(1, -1): 2, (0, 2): F(1, 3)})
    one = LaurentPoly.const(ZV, 1)
    assert p * one is p and one * p is p and p * 1 is p
    assert exact_div(p, one) is p
    assert RationalFunction(p, one).num is p


def test_one_term_divisor_and_span_test_skip_long_division(monkeypatch):
    from fockcorr import laurent
    div = laurent._div
    calls = []

    def counting_div(a, b):
        calls.append((a, b))
        return div(a, b)

    monkeypatch.setattr(laurent, "_div", counting_div)
    s = LaurentPoly.var(SV, "s")
    num = reference_mul(s + 1, sum((s ** k * (k + 1) for k in range(40)),
                                   LaurentPoly.zero(SV)))
    # long division takes one coefficient quotient per quotient term, and
    # the quotient has 40 terms
    assert exact_div(num, s + 1) == reference_exact_div(num, s + 1)
    assert len(calls) == 40
    calls.clear()
    den = LaurentPoly.monomial(SV, (-3,), 7)
    assert typed_terms(exact_div(num, den)) \
        == typed_terms(reference_exact_div(num, den))
    # only the reciprocal of the divisor's coefficient: no division step
    assert calls == [(1, 7)]
    # span 1 in s cannot be divided by span 2: no quotient term is formed
    monkeypatch.setattr(laurent, "_div", lambda a, b: pytest.fail("long division"))
    with pytest.raises(InexactDivisionError):
        exact_div(s + 1, s * s + 1)


def test_constant_denominator_runs_no_gcd(monkeypatch):
    from fockcorr import laurent
    monkeypatch.setattr(laurent, "_univariate_gcd",
                        lambda a, b: pytest.fail("gcd against a constant"))
    s = LaurentPoly.var(SV, "s")
    rf = RationalFunction(s * s - 1, LaurentPoly.monomial(SV, (2,), -2))
    assert typed_terms(rf.num) == typed_terms(poly(SV, {(0,): F(-1, 2), (-2,): F(1, 2)}))
    assert rf.den == LaurentPoly.const(SV, 1)


# -- packed-key kernels against the tuple-key loops they replace ---------------
# ``reference_mul`` and ``reference_exact_div`` above are those loops.  The
# kernels must give the same terms, coefficient types and term order.

VARS4 = ("s1", "s2", "s3", "s4")


def ordered_terms(p):
    return [(e, type(c).__name__, c) for e, c in p.terms.items()]


@st.composite
def general_polys(draw, vars_):
    """Polynomials with at least two terms, so that no fast path applies."""
    exps = st.tuples(*[st.integers(-3, 3)] * len(vars_))
    terms = draw(st.lists(st.tuples(exps, rand_coeff), min_size=2, max_size=6))
    p = LaurentPoly(vars_, dict(terms))
    assume(len(p.terms) > 1)
    return p


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packed_kernels_match_the_tuple_loops(data):
    vars_ = VARS4[:data.draw(st.integers(1, 4))]
    a = data.draw(general_polys(vars_))
    b = data.draw(general_polys(vars_))
    # (u + v)(u - v) = u^2 - v^2: the cross terms cancel in the accumulator
    (eu, cu), (ev, cv) = list(a.terms.items())[:2]
    plus = LaurentPoly(vars_, {eu: cu, ev: cv})
    minus = LaurentPoly(vars_, {eu: cu, ev: -cv})
    for x, y in ((a, b), (b, a), (reference_mul(b, plus), reference_mul(b, minus))):
        assert ordered_terms(x * y) == ordered_terms(reference_mul(x, y))
    # exact quotients, arbitrary (mostly inexact) ones, and exact ones spoilt
    # by one more term
    prod = reference_mul(a, b)
    spoilt = prod + LaurentPoly.monomial(vars_, data.draw(
        st.tuples(*[st.integers(-6, 6)] * len(vars_))))
    for num in (prod, a, spoilt):
        assert div_outcome(exact_div, num, b, ordered_terms) \
            == div_outcome(reference_exact_div, num, b, ordered_terms)
    assert exact_div(prod, b) == a


def test_quotient_term_outside_the_box_raises_at_once(monkeypatch):
    from fockcorr import laurent
    x, y = (LaurentPoly.var(ZV, v) for v in ZV)
    # x*y^2 + 1 over x + y^2: the spans pass, but the quotient box allows only
    # y^0, and the first trial quotient term is y^2
    monkeypatch.setattr(laurent, "_div", lambda a, b: pytest.fail("long division"))
    with pytest.raises(InexactDivisionError):
        exact_div(x * y * y + 1, x + y * y)
    monkeypatch.undo()
    assert div_outcome(reference_exact_div, x * y * y + 1, x + y * y) == "inexact"
