import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcorr.errors import ModeMismatchError, NonUnitError
from fockcorr.laurent import LaurentPoly
from fockcorr.qseries import (NS, RAMOND, LaurentRing, QSeries, RatFuncRing,
                              RationalRing, _Ring, lattice_sum, pochhammer, to16)

R = RationalRing()
LS = LaurentRing(("s",))


def brute_pochhammer_qq(order):
    """prod_{r>=1}(1-q^r) by plain dict polynomial multiplication."""
    out = {0: 1}
    for r in range(1, order):
        nxt = dict(out)
        for e, c in out.items():
            if e + r < order:
                nxt[e + r] = nxt.get(e + r, 0) - c
        out = {e: c for e, c in nxt.items() if c}
    return out


def brute_partitions(n, max_part=None):
    if n == 0:
        return 1
    if max_part is None:
        max_part = n
    return sum(brute_partitions(n - k, k) for k in range(min(n, max_part), 0, -1))


def test_qexp_denominator_divides_16():
    QSeries.monomial(R, F(3, 16), F(1))
    with pytest.raises(ValueError):
        QSeries.monomial(R, F(1, 3), F(1))


def test_geometric_inverse():
    a = QSeries.one(R, 12) - QSeries.monomial(R, 1, F(1), 12)
    inv = a.inverse()
    assert all(inv.coeff(n) == 1 for n in range(12))
    assert (a * inv).first_mismatch(QSeries.one(R, 12)) is None


def test_qq_product_expansion():
    # direct product expansion, cross-checked against an independent one
    qq = pochhammer(R, 1, 1, 1, 7)
    brute = brute_pochhammer_qq(7)
    for n in range(7):
        assert qq.coeff(n) == brute.get(n, 0)
    # pentagonal-number support below q^7: exponents 0,1,2,5 with signs +--+
    assert {e: c for e, c in ((e / 16, c) for e, c in qq.sorted_terms())} == {
        F(0): F(1), F(1): F(-1), F(2): F(-1), F(5): F(1)}


def test_pentagonal_theorem_bruteforce():
    qq = pochhammer(R, 1, 1, 1, 40)
    expect = {}
    k = 1
    while True:
        for kk in (k, -k):
            e = kk * (3 * kk - 1) // 2
            if e < 40:
                expect[e] = (-1) ** (kk % 2)
        if k * (3 * k - 1) // 2 >= 40 and k * (3 * k + 1) // 2 >= 40:
            break
        k += 1
    expect[0] = 1
    for n in range(40):
        assert qq.coeff(n) == expect.get(n, 0)


def test_theta_numerator_first_order():
    t = LS.var("s", 2)
    tinv = LS.var("s", -2)
    prod = pochhammer(LS, t, 1, 1, 2) * pochhammer(LS, tinv, 1, 1, 2)
    assert prod.coeff(0) == LS.one()
    assert prod.coeff(1) == LaurentPoly(("s",), {(2,): F(-1), (-2,): F(-1)})


def test_partition_counts_from_inverse():
    pinv = pochhammer(R, 1, 1, 1, 12).inverse()
    for n in range(12):
        assert pinv.coeff(n) == brute_partitions(n)


def test_monomial_inverse():
    m = QSeries.monomial(R, F(1, 2), F(3))
    mi = m.inverse()
    assert mi.coeff(F(-1, 2)) == F(1, 3)
    assert mi.trunc is None


def test_inverse_truncation_off_order_zero():
    # 1/(q^-1 + 1 + O(q)) = q (1 - q + O(q^2)): known below q^3, no further
    a = QSeries.monomial(R, -1, F(1), 1) + QSeries.monomial(R, 0, F(1), 1)
    assert repr(a.inverse()) == "(1)*q + (-1)*q^2 + O(q^3)"
    # 1/(q + q^2 + O(q^3)) = q^-1 - 1 + O(q)
    b = QSeries.monomial(R, 1, F(1), 3) + QSeries.monomial(R, 2, F(1), 3)
    assert repr(b.inverse()) == "(1)*q^-1 + (-1) + O(q^1)"
    # a monomial known to q^(v + 1) inverts to q^-v + O(q^(1 - v))
    assert QSeries.monomial(R, 2, F(4), 3).inverse().trunc == to16(-1)


def test_inverse_errors():
    with pytest.raises(NonUnitError):
        QSeries.zero(R, 3).inverse()
    ser = QSeries.monomial(LS, 0, LS.var("s") + LS.one(), 4)
    with pytest.raises(NonUnitError):
        ser.inverse()  # non-monomial Laurent leading coefficient


def test_pochhammer_examples():
    qq = pochhammer(R, 1, 1, 1, 4)
    assert [qq.coeff(n) for n in range(4)] == [1, -1, -1, 0]
    half = pochhammer(R, -1, F(1, 2), 1, 3)
    assert [half.coeff(F(k, 2)) for k in range(6)] == [1, 1, 0, 1, 1, 1]
    # (1-q)(1-q^3)(1-q^5) = 1 - q - q^3 + q^4 - q^5 + ... below q^6
    odd = pochhammer(R, 1, 1, 2, 6)
    assert [odd.coeff(n) for n in range(6)] == [1, -1, 0, -1, 1, -1]


def test_pochhammer_rejects_divergence_and_one():
    with pytest.raises(ValueError):
        pochhammer(R, 1, 1, 0, 4)
    with pytest.raises(ValueError):
        pochhammer(R, 1, 0, 1, 4)  # (1;q) has a vanishing factor


def test_lattice_sum_examples():
    # the unit is the square root of the weight: charge k enters as z^(2k)
    Lz = LaurentRing(("z",))
    ls = lattice_sum(Lz, NS, Lz.var("z"), F(9, 2))
    assert ls.coeff(0) == Lz.one()
    assert ls.coeff(F(1, 2)) == LaurentPoly(("z",), {(2,): F(1), (-2,): F(1)})
    assert ls.coeff(2) == LaurentPoly(("z",), {(4,): F(1), (-4,): F(1)})
    assert [e for e, _ in ls.items()] == [0, F(1, 2), 2]
    r = lattice_sum(Lz, RAMOND, Lz.var("z"), 2)
    assert r.coeff(F(1, 8)) == LaurentPoly(("z",), {(1,): F(1), (-1,): F(1)})
    assert r.coeff(F(9, 8)) == LaurentPoly(("z",), {(3,): F(1), (-3,): F(1)})
    assert [e for e, _ in r.items()] == [F(1, 8), F(9, 8)]
    triv = lattice_sum(R, NS, F(1), F(1, 2))
    assert triv.coeff(0) == 1 and len(triv.terms) == 1
    with pytest.raises(ValueError):
        lattice_sum(R, "int", F(1), 2)


def jacobi_z(order):
    lhs = lattice_sum(LS, NS, LS.var("s"), order)
    rhs = (pochhammer(LS, 1, 1, 1, order)
           * pochhammer(LS, LS.var("s", 2, -1), F(1, 2), 1, order)
           * pochhammer(LS, LS.var("s", -2, -1), F(1, 2), 1, order))
    return lhs, rhs


def jacobi_half(order):
    lhs = lattice_sum(LS, RAMOND, LS.var("s"), order)
    rhs = (pochhammer(LS, 1, 1, 1, order)
           * pochhammer(LS, LS.var("s", 2, -1), 1, 1, order)
           * pochhammer(LS, LS.var("s", -2, -1), 0, 1, order))
    return lhs, rhs.shift(F(1, 8)).scale(LS.var("s"))


def test_jacobi_triple_product_to_20():
    lhs, rhs = jacobi_z(20)
    assert lhs.first_mismatch(rhs) is None
    lhs, rhs = jacobi_half(20)
    assert lhs.first_mismatch(rhs) is None


def test_mode_mismatch_is_an_error():
    a = QSeries.one(R, 3)
    b = QSeries.one(LS, 3)
    with pytest.raises(ModeMismatchError):
        a + b
    with pytest.raises(ModeMismatchError):
        a * b


def test_truncation_propagation():
    a = QSeries.monomial(R, 2, F(1), 5)   # q^2 + O(q^5)
    b = QSeries.monomial(R, 1, F(1), 4)   # q^1 + O(q^4)
    prod = a * b
    # min(5 + 1, 4 + 2) = 6
    assert prod.trunc == to16(6)
    assert prod.coeff(3) == 1


small_series = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.fractions(min_value=-4, max_value=4)),
    max_size=5,
)


def mk(terms):
    s = QSeries.zero(R, 8)
    for e, c in terms:
        s = s + QSeries.monomial(R, e, F(c), 8)
    return s


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(ta, tb, tc):
    a, b, c = mk(ta), mk(tb), mk(tc)
    assert ((a * b) * c).first_mismatch(a * (b * c)) is None
    assert (a * (b + c)).first_mismatch(a * b + a * c) is None
    for series in (a * b, a + b, a - c):
        assert all(v != 0 for v in series.terms.values())
        if series.terms:
            assert max(series.terms) < series.trunc


def schoolbook_product(a, b):
    """Reference product of two rational series: pairwise Fraction
    products, accumulated in place, zeros dropped as they appear."""
    def order16(x):
        return min(x.terms) if x.terms else x.trunc

    cands = [t + o for t, o in ((a.trunc, order16(b)), (b.trunc, order16(a)))
             if t is not None and o is not None]
    trunc = min(cands) if cands else None
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            if trunc is not None and e >= trunc:
                continue
            v = out.get(e, 0) + F(c1) * F(c2)
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return QSeries(R, out, trunc, _clean=False)


sixteenths = st.integers(min_value=-12, max_value=20)
mixed_coeffs = st.one_of(st.integers(min_value=-6, max_value=6),
                         st.fractions(min_value=-4, max_value=4, max_denominator=12))
sparse_terms = st.dictionaries(sixteenths, mixed_coeffs, max_size=7)
sparse_trunc = st.one_of(st.none(), st.integers(min_value=-8, max_value=32))


@st.composite
def rational_pairs(draw):
    """Two sparse rational series.  Half the time b is a with the sign of
    every odd-sixteenth term flipped, so every odd-sixteenth term of a*b
    cancels to zero."""
    a = QSeries(R, draw(sparse_terms), draw(sparse_trunc))
    if draw(st.booleans()):
        b = QSeries(R, {e: -c if e % 2 else c for e, c in a.terms.items()},
                    a.trunc)
    else:
        b = QSeries(R, draw(sparse_terms), draw(sparse_trunc))
    return a, b


@given(rational_pairs())
@settings(max_examples=80, deadline=None)
def test_rational_kernel_matches_schoolbook(pair):
    a, b = pair
    got, ref = a * b, schoolbook_product(a, b)
    assert got.terms == ref.terms
    assert all(c != 0 for c in got.terms.values())
    assert got.trunc == ref.trunc
    assert got.dumps() == ref.dumps()
    assert (b * a).dumps() == got.dumps()


@given(st.dictionaries(sixteenths, mixed_coeffs.filter(bool), min_size=1, max_size=7),
       st.integers(min_value=1, max_value=48))
@settings(max_examples=40, deadline=None)
def test_rational_kernel_times_inverse_is_one(terms, known):
    a = QSeries(R, terms, max(terms) + known)
    T = F(a.trunc - min(a.terms), 16)
    prod = (a * a.inverse()).truncated(T)
    assert prod.terms == {0: 1}
    assert prod.trunc == to16(T)


def generic_inverse(a):
    """Reference inverse: the generic recurrence over ring elements, one
    Fraction operation per step, as every non-rational ring still runs it."""
    ring = a.ring
    v = min(a.terms)
    c0inv = ring.inv(a.terms[v])
    rel_trunc = a.trunc - v
    rel = {e - v: c for e, c in a.terms.items()}
    if len(rel) == 1:
        return QSeries(ring, {-v: c0inv}, rel_trunc - v, _clean=False)
    offsets = sorted(e for e in rel if e > 0)
    b = {0: c0inv}
    for e in range(1, rel_trunc):
        acc = None
        for d in offsets:
            if d > e:
                break
            be = b.get(e - d)
            if be is None:
                continue
            term = rel[d] * be
            acc = term if acc is None else acc + term
        if not acc:
            continue
        b[e] = -(c0inv * acc)
    out = {e - v: c for e, c in b.items() if c}
    return QSeries(ring, out, rel_trunc - v, _clean=False)


wide_coeffs = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                        st.fractions(min_value=-50, max_value=50, max_denominator=10**4))


@given(st.dictionaries(st.integers(min_value=-40, max_value=60),
                       wide_coeffs.filter(bool), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=120))
@settings(max_examples=80, deadline=None)
def test_rational_inverse_matches_generic_recurrence(terms, known):
    # lowest exponents off 0 (negative, odd sixteenths), gaps between the
    # offsets, and int and Fraction coefficients side by side
    a = QSeries(R, terms, max(terms) + known)
    got, ref = a.inverse(), generic_inverse(a)
    assert got.terms == ref.terms
    assert got.trunc == ref.trunc
    assert got.dumps() == ref.dumps()


def test_rational_inverse_fixed_cases():
    for terms, trunc in [({-3: 7, 13: F(-2, 3), 45: 5}, 200),   # gaps, v < 0
                         ({5: F(3, 4), 37: 1}, 101),             # v > 0, one offset
                         ({0: 2, 1: F(1, 2), 16: -3}, 64),       # offsets 1 and 16
                         ({8: F(-5), 24: F(5)}, 40),             # all Fractions
                         ({0: 5, 6: F(2, 7), 9: -4}, 50),        # gcd 3 < smallest offset
                         ({-8: F(3, 2), 0: 7, 24: F(-1, 3)}, 61)]:  # gcd 8
        a = QSeries(R, terms, trunc)
        assert a.inverse().dumps() == generic_inverse(a).dumps()
    a = QSeries(R, {0: 3, 16: 1}, 48)  # a reused integer form gives the same bytes
    assert (a * a).dumps() == (a * QSeries(R, dict(a.terms), 48)).dumps()
    assert a.inverse().dumps() == generic_inverse(a).dumps()


def test_generic_inverse_steps_by_the_offsets_gcd():
    # offsets 6 and 9 sixteenths (gcd 3), then 8 and 12 (gcd 4), and
    # truncations that are not multiples of the gcd
    s = LS.var("s")
    a = QSeries(LS, {0: s * F(3), 6: s + 1, 9: -(s ** -1)}, 40)
    assert a.inverse().dumps() == generic_inverse(a).dumps()
    rf = RatFuncRing(("s",))
    t = rf.var("s")
    b = QSeries(rf, {-3: t - rf.inv(t), 5: t * t, 9: rf.inv(t + rf.one())}, 35)
    assert b.inverse().dumps() == generic_inverse(b).dumps()


# The coefficient-ring interface, by the class that defines each name.  A
# ring builds, converts, inverts and serializes coefficients; sums,
# negations, products and comparisons are the coefficients' own operators.
# A new exact ring defines what ``LaurentRing`` defines and inherits the rest.
RING_INTERFACE = {
    _Ring: {"zero", "one", "from_fraction", "var", "coeff_json", "evaluate"},
    RationalRing: {"mode", "zero", "one", "from_fraction", "inv",
                   "coeff_json", "evaluate", "from_laurent", "coeff_from_json"},
    LaurentRing: {"mode", "from_laurent", "to_laurent", "inv", "coeff_from_json"},
    RatFuncRing: {"mode", "from_laurent", "to_laurent", "inv", "coeff_from_json"},
}


@pytest.mark.parametrize("cls", list(RING_INTERFACE), ids=lambda c: c.__name__)
def test_coefficient_ring_interface(cls):
    assert {n for n in vars(cls) if not n.startswith("_")} == RING_INTERFACE[cls]


def fold_products(ring, terms, trunc):
    """The running total that ``QSeries.sum_products`` replaces."""
    total = QSeries.zero(ring, trunc)
    for sign, shift, x, y in terms:
        term = (x * y if isinstance(y, QSeries) else x.scale(y)).shift(F(shift, 16))
        total = total + (term if sign > 0 else -term)
    return total


RF = RatFuncRing(("s1", "s2"))


def small_polys(variables):
    exps = st.tuples(*[st.integers(-2, 2)] * len(variables))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda d: LaurentPoly(variables, d))


# coefficients of each ring, zero among them; the rational functions are in
# two variables, where no gcd runs, so their unreduced bytes follow the
# fold's order of operations
KERNEL_COEFFS = {
    R: st.one_of(st.just(0), st.integers(-4, 4),
                 st.fractions(min_value=-3, max_value=3, max_denominator=12)),
    LS: small_polys(LS.vars),
    RF: st.tuples(small_polys(RF.vars), small_polys(RF.vars).filter(bool)).map(
        lambda nd: RF.from_laurent(nd[0]) * RF.inv(RF.from_laurent(nd[1]))),
}


@st.composite
def product_terms(draw, ring):
    """(sign, shift, x, y) terms and a truncation for ``sum_products``: both
    signs, shifts in sixteenths, factors truncated apart or not at all, and
    coefficients for y; the list may be empty."""
    coeffs = KERNEL_COEFFS[ring]

    def series():
        terms = draw(st.dictionaries(st.integers(-8, 24), coeffs, max_size=4))
        return QSeries(ring, terms, draw(st.one_of(st.none(), st.integers(-4, 40))))

    out = []
    for _ in range(draw(st.integers(0, 4))):
        x = series()
        y = series() if draw(st.booleans()) else draw(coeffs)
        out.append((draw(st.sampled_from([1, -1])), draw(st.integers(-12, 12)), x, y))
    return out, draw(st.one_of(st.none(), st.integers(0, 40).map(lambda t: F(t, 16))))


@pytest.mark.parametrize("ring", [R, LS, RF], ids=lambda r: r.mode)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sum_products_equals_the_fold(ring, data):
    terms, trunc = data.draw(product_terms(ring))
    got, ref = QSeries.sum_products(ring, terms, trunc), fold_products(ring, terms, trunc)
    if ring is RF:
        assert got.to_json() == ref.to_json()
    else:
        assert (got.nums, got.den, got.trunc) == (ref.nums, ref.den, ref.trunc)


def test_sum_products_keeps_the_fold_order_over_ratfunc():
    # at q^1 the fold adds a to the product's b - b = 0 and stores 1/P; a
    # pair-by-pair sum (a + b) - b would store Q/(PQ), unreduced
    s1, s2, one = RF.var("s1"), RF.var("s2"), RF.one()
    a, b = RF.inv(s1 + s2), RF.inv(one + s1 * s2)
    assert ((a + b) - b).to_json() != (a + (b - b)).to_json()
    terms = [(1, 0, QSeries(RF, {16: a}, None), one),
             (1, 0, QSeries(RF, {0: b, 16: -b}, None), QSeries(RF, {0: one, 16: one}, None))]
    got = QSeries.sum_products(RF, terms, 2)
    assert got.dumps() == fold_products(RF, terms, 2).dumps()
    assert got.coeff(1).to_json() == a.to_json()


@pytest.mark.parametrize("ring", [R, LS, RF], ids=lambda r: r.mode)
def test_sum_products_of_no_terms_is_zero(ring):
    for trunc in (None, F(3, 2)):
        got = QSeries.sum_products(ring, [], trunc)
        assert not got and got.den == 1
        assert got.trunc == fold_products(ring, [], trunc).trunc


@given(st.integers(min_value=2, max_value=25))
@settings(max_examples=12, deadline=None)
def test_pochhammer_times_inverse(order):
    qq = pochhammer(R, 1, 1, 1, order)
    assert (qq * qq.inverse()).first_mismatch(QSeries.one(R, order)) is None


def test_json_round_trip_all_modes():
    t = LS.var("s", 2)
    lau = pochhammer(LS, t, 1, 1, 3)
    rf_ring = RatFuncRing(("s",))
    rf = pochhammer(rf_ring, rf_ring.var("s", 2), 1, 1, 3).inverse()
    rat = pochhammer(R, 1, 1, 1, 5).shift(F(-1, 2))
    for series in (lau, rf, rat):
        text = series.dumps()
        back = QSeries.loads(text)
        assert back.ring == series.ring
        assert back.trunc == series.trunc
        assert back.first_mismatch(series) is None
        assert back.dumps() == text  # bit-exact round trip
    blob = json.loads(rat.dumps())
    assert blob["schema"] == "fock-correlators/1"
    assert blob["mode"] == "rational"


def monomial_sum(ring, pairs, trunc):
    """The running sum of monomials that ``QSeries.from_terms`` replaces."""
    out = QSeries.zero(ring, trunc)
    for e, c in pairs:
        out = out + QSeries.monomial(ring, e, c, trunc)
    return out


few_exps = st.integers(min_value=-4, max_value=8)   # sixteenths: repeats are common


@st.composite
def term_lists(draw):
    """(qexp, coeff) pairs over LS with repeated exponents, zero coefficients
    and, for a drawn subset, a negated copy that cancels the original."""
    raw = draw(st.lists(st.tuples(few_exps, st.integers(-2, 2), st.integers(-2, 2)),
                        max_size=10))
    raw += [(e, k, -c) for e, k, c in raw if draw(st.booleans())]
    pairs = [(F(e, 16), LS.var("s", k, c)) for e, k, c in raw]
    trunc = draw(st.one_of(st.none(), few_exps.map(lambda t: F(t, 16))))
    return pairs, trunc


@given(term_lists())
@settings(max_examples=80, deadline=None)
def test_from_terms_equals_monomial_sum(drawn):
    pairs, trunc = drawn
    got, ref = QSeries.from_terms(LS, pairs, trunc), monomial_sum(LS, pairs, trunc)
    assert list(got.terms.items()) == list(ref.terms.items())  # same insertion order
    assert got.trunc == ref.trunc
    assert got.dumps() == ref.dumps()


def test_rings_hash_as_they_compare():
    for make in (RationalRing, lambda: LaurentRing(("s", "z")),
                 lambda: RatFuncRing(("s", "z"))):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
    assert LaurentRing(("s",)) != RatFuncRing(("s",))
    assert LaurentRing(("s",)) != LaurentRing(("z",))
    assert RationalRing() != LaurentRing(())
    # the disk-cache keys embed these reprs
    assert repr(RationalRing()) == "RationalRing()"
    assert repr(LaurentRing(("s",))) == "LaurentRing(('s',))"
    assert repr(RatFuncRing(("s1", "s2"))) == "RatFuncRing(('s1', 's2'))"


# Reference series operations on coefficient dicts, one coefficient
# operation per term; the zero test is ``== 0``, not the truth value.

def ref_series(ring, terms, trunc):
    return QSeries(ring, terms, trunc, _clean=False)


def ref_add(a, b):
    trunc = QSeries._min_trunc(a.trunc, b.trunc)
    terms = dict(a.terms)
    for e, c in b.terms.items():
        if e in terms:
            v = terms[e] + c
            if v == 0:
                del terms[e]
            else:
                terms[e] = v
        else:
            terms[e] = c
    if trunc is not None:
        terms = {e: c for e, c in terms.items() if e < trunc}
    return ref_series(a.ring, terms, trunc)


def ref_neg(a):
    return ref_series(a.ring, {e: -c for e, c in a.terms.items()}, a.trunc)


def ref_scale(a, coeff):
    if coeff == 0:
        return ref_series(a.ring, {}, a.trunc)
    out = {}
    for e, c in a.terms.items():
        v = c * coeff
        if v != 0:
            out[e] = v
    return ref_series(a.ring, out, a.trunc)


def ref_shift(a, d):
    return ref_series(a.ring, {e + d: c for e, c in a.terms.items()},
                      None if a.trunc is None else a.trunc + d)


def ref_truncated(a, t):
    trunc = t if a.trunc is None else min(t, a.trunc)
    return ref_series(a.ring, {e: c for e, c in a.terms.items() if e < trunc}, trunc)


def ref_product(a, b):
    """Coefficient products summed per exponent."""
    def order16(x):
        return min(x.terms) if x.terms else x.trunc

    cands = [t + o for t, o in ((a.trunc, order16(b)), (b.trunc, order16(a)))
             if t is not None and o is not None]
    trunc = min(cands) if cands else None
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            if trunc is not None and e >= trunc:
                continue
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return ref_series(a.ring, {e: c for e, c in acc.items() if c != 0}, trunc)


chain_coeffs = st.one_of(st.integers(min_value=-5, max_value=5),
                         st.fractions(min_value=-3, max_value=3, max_denominator=9))
# Laurent polynomials in s, the zero polynomial among them, and monomials
# +-s^k that often cancel in sums of products
chain_polys = st.one_of(
    st.tuples(st.sampled_from([1, -1]), st.integers(min_value=-1, max_value=1)).map(
        lambda ck: LS.var("s", ck[1], ck[0])),
    st.dictionaries(st.integers(min_value=-2, max_value=2), chain_coeffs, max_size=3).map(
        lambda d: LaurentPoly(LS.vars, {(k,): c for k, c in d.items()})))
CHAIN_COEFFS = {R: chain_coeffs, LS: chain_polys}
chain_truncs = st.one_of(st.none(), st.integers(min_value=-4, max_value=40))


def chain_terms(ring):
    return st.dictionaries(st.integers(min_value=-8, max_value=24), CHAIN_COEFFS[ring],
                           max_size=6)


@st.composite
def operand(draw, current):
    """A second operand: a fresh series, or (for forced cancellation) the
    current series itself, or its terms on a subset of exponents."""
    kind = draw(st.sampled_from(["fresh", "self", "part"]))
    if kind == "fresh" or not current:
        return draw(chain_terms(current.ring)), draw(chain_truncs)
    if kind == "self":
        return dict(current.terms), current.trunc
    keep = draw(st.sets(st.sampled_from(sorted(current.terms))))
    return {e: c for e, c in current.terms.items() if e in keep}, draw(chain_truncs)


@st.composite
def op_chains(draw, ring=R):
    start = (draw(chain_terms(ring)), draw(chain_truncs))
    got = QSeries(ring, *start)
    ref = QSeries(ring, *start)
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        op = draw(st.sampled_from(["+", "-", "neg", "scale", "shift", "trunc", "*"]))
        if op in ("+", "-", "*"):
            terms, trunc = draw(operand(got))
            b_got, b_ref = QSeries(ring, terms, trunc), QSeries(ring, terms, trunc)
            if op == "+":
                got, ref = got + b_got, ref_add(ref, b_ref)
            elif op == "-":
                got, ref = got - b_got, ref_add(ref, ref_neg(b_ref))
            else:
                got, ref = got * b_got, ref_product(ref, b_ref)
        elif op == "neg":
            got, ref = -got, ref_neg(ref)
        elif op == "scale":
            # a scale by 0, by an int, or by a Fraction whose denominator
            # may cancel every numerator; over Laurent polynomials ``scale``
            # takes a polynomial (maybe zero) and ``*`` the rational
            c = draw(st.one_of(st.just(0), chain_coeffs,
                               st.integers(1, 6).map(lambda k: F(k, 720))))
            if draw(st.booleans()):
                if ring is LS:
                    c = draw(chain_polys)
                got, ref = got.scale(c), ref_scale(ref, c)
            else:
                got, ref = got * c, ref_scale(ref, c)
        elif op == "shift":
            d = draw(st.integers(min_value=-20, max_value=20))
            got, ref = got.shift(F(d, 16)), ref_shift(ref, d)
        else:
            t = draw(st.integers(min_value=-8, max_value=40))
            got, ref = got.truncated(F(t, 16)), ref_truncated(ref, t)
        steps.append((got, ref))
    return steps


def assert_chain_matches(steps):
    for got, ref in steps:
        assert got.trunc == ref.trunc
        assert (not got) == (not ref)
        assert got.order16() == (min(ref.terms) if ref.terms else ref.trunc)
        assert got.terms == ref.terms
        assert all(c != 0 for c in got.terms.values())
        assert got.dumps() == ref.dumps()


@given(op_chains())
@settings(max_examples=150, deadline=None)
def test_integer_form_chains_match_fraction_reference(steps):
    assert_chain_matches(steps)


def cancelling_product():
    """(s + q)(s - q), whose q^1 products s*(-1) and 1*s cancel."""
    a = QSeries(LS, {0: LS.var("s"), 16: LS.one()}, 48)
    b = QSeries(LS, {0: LS.var("s"), 16: -LS.one()}, 48)
    return [(a * b, ref_product(a, b))]


@given(op_chains(LS))
@example(cancelling_product())
@settings(max_examples=100, deadline=None)
def test_laurent_chains_match_dict_reference(steps):
    # the numerator loops serve the Laurent ring too, with numerators the
    # coefficients over 1
    assert_chain_matches(steps)
    for got, _ in steps:
        assert got.den == 1 and got.nums is got.terms


def test_integer_form_is_reduced():
    a = QSeries(R, {0: F(1, 6), 16: F(1, 3)}, 64)
    b = QSeries(R, {0: F(1, 6), 16: F(-2, 3)}, 64)
    assert (a.nums, a.den) == ({0: 1, 16: 2}, 6)
    # (1/6 + q/3) - (1/6 - 2q/3) = q: the denominators cancel with the sum
    assert ((a - b).nums, (a - b).den) == ({16: 1}, 1)
    c = a.scale(F(6, 5))
    assert (c.nums, c.den) == ({0: 1, 16: 2}, 5)
    assert ((a - a).nums, (a - a).den) == ({}, 1)
    assert not (a - a) and (a - a).order16() == 64


def test_eval_f_bo_materializes_few_term_dicts(monkeypatch):
    from fockcorr.correlators import f_bo, theta_num_at
    counts = {"created": 0, "materialized": 0}
    init, from_nums = QSeries.__init__, QSeries._from_nums.__func__
    terms = QSeries.terms.fget

    def counting_init(self, *args, **kwargs):
        counts["created"] += 1
        init(self, *args, **kwargs)

    def counting_from_nums(cls, *args):
        counts["created"] += 1
        return from_nums(cls, *args)

    def counting_terms(self):
        counts["materialized"] += self._terms is None
        return terms(self)

    monkeypatch.setattr(QSeries, "__init__", counting_init)
    monkeypatch.setattr(QSeries, "_from_nums", classmethod(counting_from_nums))
    monkeypatch.setattr(QSeries, "terms", property(counting_terms))
    f_bo.cache_clear()  # the sub-tuples' values come from f_bo's cache
    theta_num_at.cache_clear()  # the evaluations at the units are counted too
    f_bo.__wrapped__((F(2), F(3), F(5), F(7)), R, 6)
    # 140 series are made (each signed sum of products is one series) and
    # none builds its Fraction dict; the bound allows one series in fifty
    assert counts["created"] > 100
    assert counts["materialized"] < counts["created"] // 50
