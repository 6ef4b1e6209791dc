from fractions import Fraction as F
from operator import add, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockcorr.errors import InexactDivisionError, PoleError
from fockcorr.laurent import (_P, LaurentPoly, RationalFunction, _box, _div,
                              _fr, _univariate_coeffs, _univariate_gcd,
                              exact_div)

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
    if not b:
        return
    q = exact_div(a * b, b)
    assert q == a
    assert in_normal_form(q)


@given(rand_poly)
@settings(max_examples=30, deadline=None)
def test_self_division_is_one(entries):
    p = mk2(entries)
    if not p:
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
    assert a.den == 1
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
    if not b or not c:
        return
    x = RationalFunction(a, b)
    y = RationalFunction(a * c, b * c)
    assert x == y and y == x
    z = RationalFunction(a * c * c, b * c * c)
    assert (x == y) and (y == z) and (x == z)


@given(rand_poly, rand_poly)
@settings(max_examples=40, deadline=None)
def test_truth_value_is_false_exactly_at_zero(ea, eb):
    # as a Fraction's; the truth value leaves == and hash as they were
    a, b = mk2(ea), mk2(eb)
    zero = a - a
    assert not zero and not LaurentPoly.zero(ZV)
    assert zero == LaurentPoly.zero(ZV) and zero == 0
    assert hash(zero) == hash(LaurentPoly.zero(ZV))
    assert bool(a) == (a != 0) == bool(a.terms)
    assert a == LaurentPoly(ZV, dict(a.terms))
    assert hash(a) == hash((a.vars, frozenset(a.terms.items())))
    if not b:
        return
    f, g = RationalFunction(a, b), RationalFunction(zero, b)
    assert bool(f) == (f != 0) == bool(a)
    assert not g and g == 0 and g == RationalFunction(zero, b * b)
    for h in (f, g):
        assert hash(h) == hash((h.num, h.den))
        assert h == RationalFunction(h.num, h.den)


@given(rand_poly, rand_poly)
@settings(max_examples=40, deadline=None)
def test_rf_agrees_with_evaluation(ea, eb):
    a, b = mk2(ea), mk2(eb)
    if not b:
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
               mono ** -2, LaurentPoly(ZV, {e: c * F(2) for e, c in a.terms.items()}),
               LaurentPoly(ZV, {e: F(c, 2) for e, c in a.terms.items()}),
               LaurentPoly.from_json(ZV, a.to_json())]
    if b:
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
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
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


def reference_univariate_gcd(a, b):
    """Monic gcd of dense coefficient lists by Euclid over Q."""
    def norm(x):
        while x and not x[-1]:
            x.pop()
        return x

    a, b = norm(list(a)), norm(list(b))
    while b:
        # a mod b
        d = len(b) - 1
        lead = b[-1]
        r = list(a)
        while len(r) - 1 >= d and norm(r):
            k = len(r) - 1 - d
            f = _div(r[-1], lead)
            for i, bc in enumerate(b):
                r[k + i] -= f * bc
            r = norm(r)
            if not r:
                break
        a, b = b, r
    if a:
        lead = a[-1]
        a = [_div(c, lead) for c in a]
    return a


def reference_normalize(num, den):
    if not num:
        return num, LaurentPoly.const(den.vars, 1)
    dshift = den.min_exps()
    if any(dshift):
        den = den.shift(tuple(-x for x in dshift))
        num = num.shift(tuple(-x for x in dshift))
    evars = {i for p in (num, den) for e in p.terms for i, x in enumerate(e) if x}
    if len(evars) == 1:
        idx = next(iter(evars))
        nshift = num.min_exps()
        n0 = num.shift(tuple(-x for x in nshift))
        g = reference_univariate_gcd(_univariate_coeffs(n0, idx),
                                     _univariate_coeffs(den, idx))
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
        den = LaurentPoly(den.vars, {e: _div(c, lead) for e, c in den.terms.items()})
        num = LaurentPoly(num.vars, {e: _div(c, lead) for e, c in num.terms.items()})
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
    if not b:
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


# operands of the general product whose Fraction coefficients have unlike
# denominators, within each operand and between the two
INTEGER_NUMERATOR_CASES = [
    # 1/2 and 1/3 over lcm 6 (not 3), 3/5 and 5/7 over 35
    ({(0,): F(1, 2), (1,): F(1, 3)}, {(0,): F(3, 5), (-1,): F(5, 7), (2,): 2}),
    # 3/2 (1 + s) * 2/3 (1 - s) = 1 - s^2: ints, and the s term cancels
    ({(0,): F(3, 2), (1,): F(3, 2)}, {(0,): F(2, 3), (1,): F(-2, 3)}),
    # s^1 gets 1/3, then -1/3 (deleted), then 1/7 (inserted again, last)
    ({(0,): F(1, 2), (1,): F(1, 3), (2,): F(1, 5)},
     {(1,): F(2, 3), (0,): -1, (-1,): F(5, 7)}),
    # two variables, integral coefficients against unlike denominators
    ({(1, 0): F(1, 4), (0, 1): F(1, 6), (-1, -1): 3},
     {(0, 0): 4, (1, -1): F(6, 5), (0, 2): F(-2, 9)}),
    # (x/2 + y/3)(x/2 - y/3) = x^2/4 - y^2/9: the cross terms cancel to zero
    ({(1, 0): F(1, 2), (0, 1): F(1, 3)}, {(1, 0): F(1, 2), (0, 1): F(-1, 3)}),
    # (2x + 3y)(x/2 - y/3) = x^2 + 5xy/6 - y^2: one operand is all ints
    ({(1, 0): 2, (0, 1): 3}, {(1, 0): F(1, 2), (0, 1): F(-1, 3)}),
]


@pytest.mark.parametrize("at, bt", INTEGER_NUMERATOR_CASES)
def test_integer_numerator_product_keeps_terms_order_and_form(at, bt):
    # the product runs on integer numerators over each operand's lcm
    # denominator and divides once per output term; its terms, their order
    # and their int/Fraction form are those of the plain coefficient loop
    vars_ = ZV[:len(next(iter(at)))]
    a = LaurentPoly(vars_, at, _clean=False)
    b = LaurentPoly(vars_, bt, _clean=False)
    for x, y in ((a, b), (b, a)):
        assert ordered_terms(x * y) == ordered_terms(reference_mul(x, y))


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


# -- canonical-form shortcuts against the code they short-circuit --------------
# ``reference_rf_mul`` is the product with trial cross-cancellations that
# ``RationalFunction.__mul__`` runs when neither factor is a one-term Laurent
# polynomial, and ``reference_univariate_gcd`` above is the Euclid that runs
# when the mod-p certificate does not apply.

def reference_rf_mul(x, y):
    """(num, den) of x * y."""
    def try_div(num, den):
        try:
            return reference_exact_div(num, den)
        except InexactDivisionError:
            return None

    a, b, c, d = x.num, x.den, y.num, y.den
    one = LaurentPoly.const(a.vars, 1)
    q = try_div(a, d)
    if q is not None:
        a, d = q, one
    else:
        q = try_div(c, b)
        if q is not None:
            c, b = q, one
    return reference_normalize(reference_mul(a, c), reference_mul(b, d))


def assert_canonical(r):
    """Building r again from its (num, den) changes nothing: the invariant
    the one-term shortcut of the product rests on."""
    again = RationalFunction(r.num, r.den)
    assert typed_terms(again.num) == typed_terms(r.num)
    assert typed_terms(again.den) == typed_terms(r.den)


@st.composite
def rational_functions(draw, vars_):
    """Quotients of ``fast_path_polys``, some with a shared factor to cancel."""
    num = draw(fast_path_polys(vars_))
    den = draw(fast_path_polys(vars_).filter(bool))
    if draw(st.booleans()):
        shared = draw(fast_path_polys(vars_).filter(bool))
        num, den = reference_mul(num, shared), reference_mul(den, shared)
    return RationalFunction(num, den)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_products_match_the_cross_cancelling_product(data):
    vars_ = ("s1", "s2", "s3")[:data.draw(st.integers(1, 3))]
    x = data.draw(rational_functions(vars_))
    y = data.draw(rational_functions(vars_))
    c = data.draw(rand_coeff)
    const = RationalFunction.const(vars_, c)
    cases = ((x, y, x * y), (y, x, y * x), (x, const, x * c), (const, x, c * x))
    for u, v, w in cases:
        ref_num, ref_den = reference_rf_mul(u, v)
        assert typed_terms(w.num) == typed_terms(ref_num)
        assert typed_terms(w.den) == typed_terms(ref_den)
        assert_canonical(w)


def test_monomial_that_leaves_one_variable_reduces():
    # x2 (x1 - 1) / ((x1 - 1)(x1 + 1)) runs no gcd, since x2 occurs; times
    # 1/x2 it is univariate, and the common factor x1 - 1 must cancel
    x1, x2 = (LaurentPoly.var(ZV, v) for v in ZV)
    r = RationalFunction(x2 * (x1 - 1), (x1 - 1) * (x1 + 1))
    assert r.den == x1 * x1 - 1
    inv_x2 = RationalFunction.from_laurent(LaurentPoly.monomial(ZV, (0, -1)))
    for w in (r * inv_x2, inv_x2 * r):
        assert (w.num, w.den) == (LaurentPoly.const(ZV, 1), x1 + 1)
        assert_canonical(w)


dense = st.lists(rand_coeff, max_size=5)


def dense_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [_fr(c) for c in out]


def typed_list(coeffs):
    return [(type(c).__name__, c) for c in coeffs]


@given(dense, dense, dense)
@settings(max_examples=300, deadline=None)
def test_gcd_matches_the_euclid(a, b, shared):
    for x, y in ((a, b), (dense_mul(a, shared), dense_mul(b, shared))):
        assert typed_list(_univariate_gcd(x, y)) \
            == typed_list(reference_univariate_gcd(x, y))


@pytest.mark.parametrize("a, b", [
    # a denominator that vanishes mod p, with and without a common factor
    ([F(1, _P), 1], [2, 1]),
    (dense_mul([F(1, _P), 1], [1, 1]), dense_mul([2, 1], [1, 1])),
    # a gcd P x + 1 that is a constant mod p: the leading coefficients vanish
    (dense_mul([1, _P], [2, 1]), dense_mul([1, _P], [3, 1])),
    (dense_mul([1, 3 * _P], [2, 1]), [2, 1]),
    # a real common factor
    (dense_mul([1, 1], [2, 1]), dense_mul([1, 1], [3, 1])),
    (dense_mul([F(1, 2), 1], [1, F(2, 3)]), [F(1, 2), 1]),
], ids=["den-p", "den-p-shared", "lead-p-shared", "lead-p", "shared",
        "shared-fractions"])
def test_gcd_falls_back_to_the_euclid(a, b, monkeypatch):
    from fockcorr import laurent
    calls = []

    def counting_div(x, y):
        calls.append((x, y))
        return _div(x, y)

    monkeypatch.setattr(laurent, "_div", counting_div)
    g = _univariate_gcd(a, b)
    assert calls, "the Euclid did not run"
    assert typed_list(g) == typed_list(reference_univariate_gcd(a, b))


def test_coprime_gcd_makes_no_coefficient_division(monkeypatch):
    from fockcorr import laurent
    monkeypatch.setattr(laurent, "_div", lambda a, b: pytest.fail("Euclid over Q"))
    assert _univariate_gcd([1, 2, 1], [3, 1]) == [1]
    assert _univariate_gcd([F(1, 2), 0, F(-3, 7), 5], [F(2, 3), 1, 1]) == [1]


def test_unit_times_a_series_runs_no_gcd_and_no_division(monkeypatch):
    from fockcorr import laurent
    from fockcorr.qseries import QSeries, RatFuncRing
    ring = RatFuncRing(("s1",))
    s = LaurentPoly.var(ring.vars, "s1")
    x = QSeries(ring, {0: RationalFunction(s, s * s - 1),
                       16: RationalFunction(s * s + 3, s + 2),
                       32: RationalFunction.from_laurent(s * s * s - s)}, 64)
    one = QSeries.one(ring, 4)
    monkeypatch.setattr(laurent, "_univariate_gcd",
                        lambda a, b: pytest.fail("gcd in a unit product"))
    monkeypatch.setattr(laurent, "exact_div",
                        lambda a, b: pytest.fail("division in a unit product"))
    product = one * x
    assert product.terms == x.terms


def test_box_is_computed_once_per_poly(monkeypatch):
    from fockcorr import laurent
    calls = []

    def counting_box(terms):
        calls.append(terms)
        return _box(terms)

    monkeypatch.setattr(laurent, "_box", counting_box)
    s = LaurentPoly.var(SV, "s")
    p = s * s + 3 * s - 2
    for q in (s + 1, s * s - 1, s - 5):
        p * q
        q * p
        exact_div(reference_mul(p, q), p)
    assert sum(t is p.terms for t in calls) == 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cached_box_is_the_box_of_the_terms(data):
    vars_ = VARS4[:data.draw(st.integers(1, 4))]
    a = data.draw(general_polys(vars_))
    b = data.draw(general_polys(vars_))
    prod = a * b
    for p in (a, b, prod, exact_div(prod, b), prod * F(2, 3),
              prod.shift((1,) * len(vars_))):
        assert p._exp_box() == _box(p.terms)
        assert p._exp_box() == _box(p.terms)  # the cached value, the second time


# ``subst`` builds each image term directly; the reference is the
# substitution by ring operations, a product of powers of the images per
# term, summed term by term.

def reference_subst(p, target_vars, images):
    out = LaurentPoly.zero(target_vars)
    for e, c in p.terms.items():
        m = LaurentPoly.const(target_vars, c)
        for name, k in zip(p.vars, e):
            if k:
                m = m * (images[name] ** k)
        out = out + m
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_subst_matches_the_ring_operations(data):
    source = ("x", "y", "z")[:data.draw(st.integers(1, 3))]
    target = ("s1", "s2", "s3")[:data.draw(st.integers(1, 3))]
    exps = st.tuples(*[st.integers(-3, 3)] * len(source))
    p = LaurentPoly(source, dict(data.draw(st.lists(st.tuples(exps, rand_coeff),
                                                   max_size=6))))
    # small image exponents and a shared pool of images make equal images,
    # and so collisions that add or cancel, common
    pool = data.draw(st.lists(
        st.builds(lambda e, c: LaurentPoly.monomial(target, e, c),
                  st.tuples(*[st.integers(-1, 1)] * len(target)),
                  st.one_of(st.just(1), rand_coeff.filter(bool))),
        min_size=1, max_size=3))
    images = {v: data.draw(st.sampled_from(pool)) for v in source}
    got = p.subst(target, images)
    assert got.vars == target
    assert typed_terms(got) == typed_terms(reference_subst(p, target, images))


def test_subst_adds_and_cancels_terms_with_equal_images():
    x, y = LaurentPoly.var(("x", "y"), "x"), LaurentPoly.var(("x", "y"), "y")
    s = LaurentPoly.var(SV, "s", c=F(1, 2))
    images = {"x": s, "y": s}
    assert not (x * 2 - y * 2).subst(SV, images)
    assert (x * y ** -1 + 3).subst(SV, images) == LaurentPoly.const(SV, 4)
    assert (x * x - y).subst(SV, images) == poly(SV, {(2,): F(1, 4), (1,): F(-1, 2)})


@pytest.mark.parametrize("image", [LaurentPoly.zero(SV),
                                   LaurentPoly.var(SV, "s") + 1,
                                   LaurentPoly.var(ZV, "z1")])
def test_subst_takes_one_term_images_in_the_target_variables(image):
    with pytest.raises(ValueError):
        LaurentPoly.var(("x",), "x").subst(SV, {"x": image})
