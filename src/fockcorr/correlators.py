"""Closed-form correlation functions, graded traces, half-level recursions,
refined level-1 functions, and q-dimensions.

All t-variables enter through their formal square roots: t_i = s_i**2, so a
power t^k with 2k integral is the unit power s^(2k).  Exact mode works over
rational functions in s_1..s_n (plus any z/w grading variables); evaluation
mode substitutes rational s-values and needs only Laurent (or plain rational)
coefficients.

The n-point kernel ``f_bo`` has two routes, chosen by ring.  Over
``Fraction`` and ``LaurentPoly`` coefficients, whose elements have one
canonical form, it runs the subset recursion, each subset's value from
``f_bo``'s own cache: about 3^n series products for all subsets of n units,
where the permutation sum expanded n! determinants.  The values are exact,
so the bytes are the same.  In eval mode ``theta_at`` substitutes s through
the ring's integer evaluator, and the series products and inverses run on
integer numerators (see ``qseries``).

Over ``RatFuncRing`` it keeps the permutation sum of theta determinants,
each built and expanded afresh (``theta_at`` still computes each unit power
once), in a fixed order: exact rational functions are stored unreduced, so
their bytes follow the order of operations, which the recorded outputs pin.
This route goes once exact values have a canonical form.

The eps sums over the 2^n sign vectors use F_bo(q; 1/t) = (-1)^n F_bo(q; t)
(Bloch-Okounkov): the terms for eps and -eps pair up as
[eps] F_bo(q; t^eps) (x^k + x^-k) with x = prod t^eps, so ``f_bo`` runs only
for the 2^(n-1) vectors with eps_1 = +1.  ``graded_trace_F`` folds its
lattice sum over k into one series product per such pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .characters import det_laurent
from .combinat import ModuleLabel
from .errors import InternalCheckError, LabelError, NonUnitError, PoleError
from .laurent import LaurentPoly, RationalFunction
from .qseries import (LaurentRing, QSeries, RatFuncRing, RationalRing,
                      lattice_points, pochhammer, unit_pow)
from .weyl import weyl_qpoly, weyl_sum, weyl_sum_product_form


# ---------------------------------------------------------------------------
# rings, units, and the request type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatorRequest:
    label: ModuleLabel
    npoints: int
    order: Fraction
    mode: str = "exact"            # "exact" | "eval"
    eval_points: tuple = ()        # square roots s_i of the t_i

    def __post_init__(self):
        """Keeps the eval points that are used: the first ``npoints`` in eval
        mode, none in exact mode.  Too few, or one on a pole, are left for
        ``make_units`` to reject."""
        object.__setattr__(self, "order", Fraction(self.order))
        if self.mode not in ("exact", "eval"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.npoints < 0:
            raise ValueError("npoints must be >= 0")
        used = self.eval_points[:self.npoints] if self.mode == "eval" else ()
        object.__setattr__(self, "eval_points", tuple(Fraction(s) for s in used))

    @property
    def ring(self):
        """The coefficient ring of the result (the q-dimension's for
        npoints = 0)."""
        return make_ring(self.npoints, self.mode) if self.npoints else RationalRing()


def make_ring(n, mode, extra_vars=()):
    """Coefficient ring for an n-point computation."""
    if mode == "exact":
        variables = tuple(f"s{i + 1}" for i in range(n)) + tuple(extra_vars)
        return RatFuncRing(variables)
    if extra_vars:
        return LaurentRing(tuple(extra_vars))
    return RationalRing()


def make_units(ring, n, mode, svals=()):
    """The square-root units s_1..s_n as elements of ``ring``; eval mode
    takes them from the first n of ``svals``, none of which may be 0 or
    +-1 (a pole: t in {0, 1})."""
    if mode == "exact":
        return tuple(ring.var(f"s{i + 1}") for i in range(n))
    if len(svals) < n:
        raise ValueError("need one s-value per point")
    for s in svals[:n]:
        if s in (0, 1, -1):
            raise PoleError(f"s = {s} sits on a pole (t in {{0, 1}})")
    return tuple(ring.from_fraction(s) for s in svals[:n])


def _unit_prod(ring, units):
    out = ring.one()
    for u in units:
        out = ring.mul(out, u)
    return out


# ---------------------------------------------------------------------------
# Pochhammer shorthands (cached per ring/order)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def qq_series(ring, order):
    """(q;q)_infinity."""
    return pochhammer(ring, 1, 1, 1, order)


@lru_cache(maxsize=None)
def inv_qq(ring, order):
    return qq_series(ring, order).inverse()


@lru_cache(maxsize=None)
def em_half(ring, order):
    """(-q^{1/2};q)_infinity, the level-1/2 NS q-dimension."""
    return pochhammer(ring, -1, Fraction(1, 2), 1, order)


@lru_cache(maxsize=None)
def em_one(ring, order):
    """(-q;q)_infinity."""
    return pochhammer(ring, -1, 1, 1, order)


@lru_cache(maxsize=None)
def qq_odd(ring, order):
    """(q;q^2)_infinity."""
    return pochhammer(ring, 1, 1, 2, order)


# ---------------------------------------------------------------------------
# theta and its t d/dt derivatives (symbolic in one variable s, t = s^2)
# ---------------------------------------------------------------------------

_SRING = LaurentRing(("s",))


@lru_cache(maxsize=None)
def theta(order):
    """Theta(t) = (t^{1/2}-t^{-1/2}) (q;q)^{-2} (qt;q) (qt^{-1};q), Laurent in s."""
    order = Fraction(order)
    ring = _SRING
    lead = QSeries.monomial(ring, 0, ring.var("s") + ring.var("s", -1, -1), order)
    body = inv_qq(ring, order) ** 2
    body = body * pochhammer(ring, ring.var("s", 2), 1, 1, order)
    body = body * pochhammer(ring, ring.var("s", -2), 1, 1, order)
    return lead * body


@lru_cache(maxsize=None)
def theta_k(k, order):
    """(t d/dt)^k Theta, applied termwise: s^m picks up a factor m/2."""
    if k == 0:
        return theta(order)
    prev = theta_k(k - 1, order)
    return prev.map_coeffs(lambda c: c.scale_exp_weighted((Fraction(1, 2),)))


@lru_cache(maxsize=None)
def theta_at(k, unit, ring, order):
    """Theta^{(k)} with argument t = unit^2, as a series over ``ring``."""
    return theta_k(k, order).map_to(ring, ring.evaluator(unit))


@lru_cache(maxsize=None)
def inv_theta_at(unit, ring, order):
    th = theta_at(0, unit, ring, order)
    if th.is_zero or min(th.terms) != 0:
        raise PoleError("theta argument t = 1 (vanishing leading term)")
    lead = th.terms[0]
    if ring.is_zero(lead):
        raise PoleError("theta argument t = 1 (vanishing leading term)")
    try:
        return th.inverse()
    except NonUnitError as exc:
        raise PoleError(f"theta factor is not invertible: {exc}") from exc


# ---------------------------------------------------------------------------
# the theta-determinant n-point kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def f_bo(units, ring, order):
    """The Bloch-Okounkov n-point kernel; n = 0 gives 1/(q;q), n = 1 gives
    1/((q;q) Theta(t)).

    Over every ring but ``RatFuncRing`` it runs the subset recursion

        F(B) = Theta(t_B)^-1 sum_{A < B} (-1)^(|B-A|-1) Theta^(|B-A|)(t_A) F(A)

    over the proper sub-tuples A of B = ``units`` (in index order, t_A the
    product of their t's), with no 1/k!: the |B-A|! orderings of the
    permutation sum below cancel it.  Each F(A) is a call of ``f_bo``, so its
    cache shares every subset's series between sign vectors, jobs and the
    subset traces of ``half_level_base``; a call costs about 2^n products.
    The coefficients of these rings have one canonical form, so the values
    are those of the permutation sum, to the byte.

    Exact rational functions are kept unreduced, so their bytes follow the
    order of operations; ``RatFuncRing`` keeps the permutation sum of theta
    determinants, each built afresh and expanded along its first row by
    ``det_laurent``."""
    order = Fraction(order)
    n = len(units)
    if n == 0:
        return inv_qq(ring, order)
    if not isinstance(ring, RatFuncRing):
        total = QSeries.zero(ring, order)
        for bits in range(2 ** n - 1):
            sub = tuple(u for i, u in enumerate(units) if bits >> i & 1)
            k = n - len(sub)
            th = theta_at(k, _unit_prod(ring, sub), ring, order)
            if th.is_zero:
                continue
            term = th * f_bo(sub, ring, order)
            total = total + (term if k % 2 else -term)
        inv = inv_theta_at(_unit_prod(ring, units), ring, order)
        return (total * inv).truncated(order)
    zero = QSeries.zero(ring, order)
    total = zero
    one = ring.one()
    for sigma in permutations(range(n)):
        # partial products u_m = s_{sigma(1)} ... s_{sigma(m)}
        partial = [one]
        for m in range(n):
            partial.append(ring.mul(partial[-1], units[sigma[m]]))
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                k = j - i + 1
                if k < 0:
                    row.append(zero)
                    continue
                entry = theta_at(k, partial[n - j], ring, order)
                if k > 1:
                    entry = entry * Fraction(1, factorial(k))
                row.append(entry)
            rows.append(row)
        term = det_laurent(rows, zero)
        for m in range(1, n + 1):
            term = term * inv_theta_at(partial[m], ring, order)
        total = total + term
    return (total * inv_qq(ring, order)).truncated(order)


def _eps_data(units, ring):
    """(sign, unit tuple u^eps, product unit) for the sign vectors eps with
    eps_1 = +1 (at n = 0, the one empty vector, which has no mirror).

    These are the first half of ``product((1, -1))``; the mirror -eps of
    entry i of that order is entry 2^n - 1 - i.  F_bo(q; t^-1) =
    (-1)^n F_bo(q; t) and [-eps] = (-1)^n [eps], so the terms for eps and
    -eps of an eps sum share the factor [eps] F_bo(q; t^eps).
    """
    n = len(units)
    inv_units = tuple(ring.inv(u) for u in units)
    out = []
    for eps in product((1, -1), repeat=n):
        if eps and eps[0] < 0:
            break
        us = tuple(units[i] if eps[i] > 0 else inv_units[i] for i in range(n))
        sign = 1
        for e in eps:
            sign *= e
        out.append((sign, us, _unit_prod(ring, us)))
    return out


def _pair_weight(ring, uprod, k2, n):
    """x^k + x^-k for x = uprod^2 and k = k2/2: the weight of an eps pair
    (just x^k = 1 at n = 0)."""
    w = unit_pow(ring, uprod, k2)
    return ring.add(w, unit_pow(ring, uprod, -k2)) if n else w


def eps_inner_sum(units, ring, order, k):
    """sum over eps of [eps] (prod t^eps)^k F_bo(q; t^eps); k may be half-integral.

    Summed over the vectors with eps_1 = +1 only, each as
    [eps] F_bo(q; t^eps) (x^k + x^-k) with x = prod t^eps, so ``f_bo`` runs
    2^(n-1) times."""
    k2 = Fraction(k) * 2
    if k2.denominator != 1:
        raise ValueError("k must be integral or half-integral")
    total = QSeries.zero(ring, Fraction(order))
    for sign, us, uprod in _eps_data(units, ring):
        w = _pair_weight(ring, uprod, int(k2), len(units))
        term = f_bo(us, ring, order).scale(w)
        total = total + (term if sign > 0 else -term)
    return total


# ---------------------------------------------------------------------------
# graded traces F(z,q;t) and F_b(z,q;t) (closed formula route)
# ---------------------------------------------------------------------------

def graded_trace_F(sector, units, ring, order, zvar=None, zscale=1):
    """F(z,q;t) = sum_k z^k q^{k^2/2} sum_eps [eps] (prod t^eps)^k F_bo(q;t^eps).

    NS sums k over Z, R over 1/2 + Z.  ``zvar`` names the grading variable;
    z^k enters as zvar^(zscale*k), so half-integral k needs zscale = 2 (the
    variable is then the square root w of z).  zvar=None sets z = 1.

    The k-sum is folded into the eps sum: pairing eps with -eps as in
    ``eps_inner_sum``, each vector with eps_1 = +1 contributes one product
    [eps] F_bo(q;t^eps) * sum_k (x^k + x^-k) z^k q^{k^2/2}.
    """
    order = Fraction(order)
    if sector not in ("NS", "R"):
        raise ValueError("sector must be 'NS' or 'R'")
    ks = lattice_points("int" if sector == "NS" else "half", order)
    zpows = None
    if zvar is not None:
        zexps = [Fraction(zscale) * k for k in ks]
        if any(z.denominator != 1 for z in zexps):
            raise ValueError("z-exponent not integral; use zscale=2 with w-variables")
        zpows = [ring.var(zvar, int(z)) for z in zexps]
    total = QSeries.zero(ring, order)
    for sign, us, uprod in _eps_data(units, ring):
        ws = [_pair_weight(ring, uprod, int(2 * k), len(units)) for k in ks]
        if zpows is not None:
            ws = [ring.mul(w, z) for w, z in zip(ws, zpows)]
        lattice = QSeries.from_terms(ring, [(k * k / 2, w) for k, w in zip(ks, ws)], order)
        term = f_bo(us, ring, order) * lattice
        total = total + (term if sign > 0 else -term)
    return total.truncated(order)


# ---------------------------------------------------------------------------
# type A correlation functions
# ---------------------------------------------------------------------------

def a_npoint(lam, l, units, ring, order):
    """q^{||lam||^2/2} (t_1..t_n)^{|lam|} prod_{i<j}(1-q^{lam_i-lam_j+j-i}) F_bo^l."""
    lam = tuple(int(m) for m in lam)
    if len(lam) != l or any(lam[i] < lam[i + 1] for i in range(l - 1)):
        raise LabelError(f"type A label must be a weakly decreasing {l}-vector")
    order = Fraction(order)
    out = f_bo(units, ring, order) ** l
    for i in range(l):
        for j in range(i + 1, l):
            e = lam[i] - lam[j] + (j - i)
            out = out * (QSeries.one(ring, order) - QSeries.monomial(ring, e, ring.one(), order))
    tprod = unit_pow(ring, _unit_prod(ring, units), 2 * sum(lam))
    norm2 = sum(m * m for m in lam)
    return out.scale(tprod).shift(Fraction(norm2, 2)).truncated(order)


# ---------------------------------------------------------------------------
# the shared Weyl-sum engine for types B/C/D
# ---------------------------------------------------------------------------

def weyl_correlator(weight, wtype, l, units, ring, order):
    """sum_sigma (-1)^l(sigma) q^{||lam+rho-sigma rho||^2/2} prod_a inner(k_a)."""
    order = Fraction(order)
    if l == 0:
        return QSeries.one(ring, order)
    inner_cache = {}

    def inner(k):
        if k not in inner_cache:
            inner_cache[k] = eps_inner_sum(units, ring, order, k)
        return inner_cache[k]

    total = QSeries.zero(ring, order)
    for sign, qexp, kvec in weyl_sum(weight, wtype, l):
        if qexp >= order:
            continue
        term = QSeries.one(ring, order)
        for k in kvec:
            term = term * inner(k)
        term = term.shift(qexp)
        total = total + (term if sign > 0 else -term)
    return total.truncated(order)


@lru_cache(maxsize=None)
def half_level_base(sector, units, ring, order):
    """Level-1/2 base function by the subset recursion

        base(B) = (F(B) - sum_{A} base(A) base(B-A)) / (2 base(()))

    over the nonempty proper sub-tuples A of B = ``units`` (in index order),
    with F the graded trace of the sector.  Each base(A) is a call of
    ``half_level_base``, so its cache shares every subset's series.

    sector 'D': the NS neutral-fermion n-point function; its n = 0 value is
    (-q^{1/2};q).  sector 'B': the R analogue with n = 0 value
    q^{1/16} (-q;q); the recursion halves the full R graded trace.
    """
    order = Fraction(order)
    n = len(units)
    if sector == "D":
        empty = em_half(ring, order)
        norm = empty.inverse()
        trace_sector = "NS"
    elif sector == "B":
        empty = em_one(ring, order - Fraction(1, 16)).shift(Fraction(1, 16))
        norm = em_one(ring, order + Fraction(1, 16)).inverse().shift(Fraction(-1, 16))
        trace_sector = "R"
    else:
        raise ValueError("sector must be 'D' or 'B'")
    if n == 0:
        return empty
    full = graded_trace_F(trace_sector, units, ring, order)
    if sector == "B":
        full = full * Fraction(1, 2)
    cross = QSeries.zero(ring, order)
    for bits in range(1, 2 ** n - 1):
        left = tuple(u for i, u in enumerate(units) if bits >> i & 1)
        right = tuple(u for i, u in enumerate(units) if not bits >> i & 1)
        cross = cross + (half_level_base(sector, left, ring, order)
                         * half_level_base(sector, right, ring, order))
    return (((full - cross) * norm) * Fraction(1, 2)).truncated(order)


def npoint(label: ModuleLabel, units, ring, order):
    """Dispatch an n-point correlation function by algebra and level."""
    order = Fraction(order)
    l = label.rank()
    half = label.level.denominator == 2
    if label.algebra == "a":
        return a_npoint(label.lam, l, units, ring, order)
    weight = label.weight()
    if label.algebra == "c":
        if half:
            raise LabelError("c_infinity has integer levels only")
        return weyl_correlator(weight, "C", l, units, ring, order)
    if label.algebra in ("d", "b"):
        if label.algebra == "b" and not label.spin:
            raise LabelError("b_infinity labels carry the spin flag")
        if not half:
            return weyl_correlator(weight, "D", l, units, ring, order)
        pre = half_level_base(label.algebra.upper(), units, ring, order)
        return (pre * weyl_correlator(weight, "B", l, units, ring, order)).truncated(order)
    raise LabelError(f"unknown algebra {label.algebra!r}")


def correlator(req: CorrelatorRequest) -> QSeries:
    """Evaluate a CorrelatorRequest (npoints = 0 routes to the q-dimension)."""
    if req.npoints == 0:
        return qdim(req.label, req.order)
    ring = req.ring
    units = make_units(ring, req.npoints, req.mode, req.eval_points)
    return npoint(req.label, units, ring, req.order)


# ---------------------------------------------------------------------------
# refined level-1 type D functions
# ---------------------------------------------------------------------------

def refined_g(order):
    """G(t) = :G:(t) + (q;q^2) * 2/(t^{1/2}-t^{-1/2}) over RatFunc(s).

    :G:(t) = 2 (q;q^2) sum_{n>=1} q^{2n-1} (t^{-n+1/2} - t^{n-1/2})/(1-q^{2n-1}).
    """
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    qq2 = qq_odd(ring, order)
    terms = []
    n = 1
    while 2 * n - 1 < order:
        coeff = ring.add(ring.var("s", -(2 * n - 1)), ring.neg(ring.var("s", 2 * n - 1)))
        j = 0
        while (2 * n - 1) * (j + 1) < order:
            terms.append(((2 * n - 1) * (j + 1), coeff))
            j += 1
        n += 1
    body = QSeries.from_terms(ring, terms, order)
    colon_g = (qq2 * body) * Fraction(2)
    s = LaurentPoly.var(("s",), "s")
    central = RationalFunction(LaurentPoly.const(("s",), 2), s - s ** -1)
    return (colon_g + qq2.scale(central)).truncated(order)


def refined_level1(sign, order):
    """tr over the tau = +/-1 eigenspace: (D^1_(0)(q,t) +/- G(t))/2."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    units = (ring.var("s"),)
    d0 = weyl_correlator((Fraction(0),), "D", 1, units, ring, order)
    g = refined_g(order)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return ((d0 + g) if sign > 0 else (d0 - g)) * Fraction(1, 2)


def _tddt_log_pochhammer(ring, c, x2, qshift, step, order):
    """t d/dt ln prod_{r>=0} (1 - c t^{x} q^{qshift + r step}) with x = x2/2.

    Expands -x sum_{m>=1} (c t^x)^m q^{em} per factor; the e = 0 factor
    contributes the exact rational function -x c t^x / (1 - c t^x).
    """
    order = Fraction(order)
    x = Fraction(x2, 2)
    terms = []
    r = 0
    while True:
        e = Fraction(qshift) + r * Fraction(step)
        if e >= order and e > 0:
            break
        if e == 0:
            mono = LaurentPoly.var(ring.vars, "s", x2, c)
            rf = RationalFunction(mono, LaurentPoly.const(ring.vars, 1) - mono)
            terms.append((0, ring.mul(ring.from_fraction(-x), rf)))
        else:
            m = 1
            while e * m < order:
                w = ring.from_fraction(-x * c ** m)
                terms.append((e * m, ring.mul(w, ring.var("s", x2 * m))))
                m += 1
        r += 1
        if e == 0 and Fraction(step) <= 0:
            break
    return QSeries.from_terms(ring, terms, order)


def refined_form1(sign, order):
    """First displayed closed form of the refined trace."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    units = (ring.var("s"),)
    base = f_bo(units, ring, order)
    terms = []
    r = 0
    while Fraction(r + 1) < order:
        # q^{r+1} t^{-1/2} / (1 - q^{2r+2} t^{-1}) - q^{r+1} t^{1/2} / (1 - q^{2r+2} t)
        j = 0
        while (r + 1) * (2 * j + 1) < order:
            e = Fraction((r + 1) * (2 * j + 1))
            terms.append((e, ring.var("s", -(2 * j + 1))))
            terms.append((e, ring.neg(ring.var("s", 2 * j + 1))))
            j += 1
        r += 1
    s = LaurentPoly.var(("s",), "s")
    terms.append((0, RationalFunction(LaurentPoly.const(("s",), 1), s - s ** -1)))
    bracket = QSeries.from_terms(ring, terms, order)
    corr = qq_odd(ring, order) * bracket
    return (base + corr) if sign > 0 else (base - corr)


def refined_form2(sign, order, literal=False):
    """Second displayed form, via the t d/dt logarithm of a Pochhammer ratio.

    The printed ratio gives exactly the negative of the required correction
    (its q^0 term is -1/(t^{1/2}-t^{-1/2})); ``literal=True`` reproduces the
    printed orientation, the default inverts the ratio so that the identity
    with the first form holds.
    """
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    units = (ring.var("s"),)
    base = f_bo(units, ring, order)
    log = QSeries.zero(ring, order)
    log = log + _tddt_log_pochhammer(ring, -1, -1, 0, 1, order)   # (-t^{-1/2};q)
    log = log + _tddt_log_pochhammer(ring, -1, 1, 1, 1, order)    # (-q t^{1/2};q)
    log = log - _tddt_log_pochhammer(ring, 1, -1, 0, 1, order)    # 1/(t^{-1/2};q)
    log = log - _tddt_log_pochhammer(ring, 1, 1, 1, 1, order)     # 1/(q t^{1/2};q)
    if not literal:
        log = -log
    corr = qq_odd(ring, order) * log
    return (base + corr) if sign > 0 else (base - corr)


# ---------------------------------------------------------------------------
# q-dimensions
# ---------------------------------------------------------------------------

def qdim(label: ModuleLabel, order) -> QSeries:
    """Graded dimension, computed in both the Weyl-sum and the product form;
    the two must agree exactly."""
    order = Fraction(order)
    ring = RationalRing()
    l = label.rank()
    half = label.level.denominator == 2
    if label.algebra == "a":
        raise LabelError("q-dimensions are provided for algebras b, c, d")
    weight = label.weight()
    wtype, pre, shift = "D", inv_qq(ring, order) ** l, Fraction(0)
    if label.algebra == "c":
        wtype = "C"
    elif half:
        wtype = "B"
        if label.algebra == "d":
            pre = em_half(ring, order) * pre
        else:
            pre, shift = em_one(ring, order) * pre, Fraction(1, 16)
    sum_form = weyl_qpoly(weight, wtype, l, order)
    prod_form = weyl_sum_product_form(weight, wtype, l, order)
    if sum_form.first_mismatch(prod_form) is not None:
        raise InternalCheckError(
            f"Weyl-sum and product q-dimension forms disagree for {label}")
    out = (pre * sum_form).shift(shift)
    return out.truncated(order + shift)


# ---------------------------------------------------------------------------
# the two corollary q-identities
# ---------------------------------------------------------------------------

def corollary_d_lhs(order):
    """(-q^{1/2}t;q)(-q^{1/2}t^{-1};q)(q;q)^2 / ((qt;q)(qt^{-1};q)(-q^{1/2};q)^2)."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    t, tinv = ring.var("s", 2), ring.var("s", -2)
    num = (pochhammer(ring, ring.neg(t), Fraction(1, 2), 1, order)
           * pochhammer(ring, ring.neg(tinv), Fraction(1, 2), 1, order)
           * qq_series(ring, order) ** 2)
    den = (pochhammer(ring, t, 1, 1, order)
           * pochhammer(ring, tinv, 1, 1, order)
           * em_half(ring, order) ** 2)
    return (num * den.inverse()).truncated(order)


def corollary_d_rhs(order):
    """1 + (t^{1/2}-t^{-1/2}) sum_r (-1)^r [ (q^{r+1}t)^{1/2}/(1-q^{r+1}t)
    - (q^{r+1}t^{-1})^{1/2}/(1-q^{r+1}t^{-1}) ]."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    terms = []
    r = 0
    while Fraction(r + 1, 2) < order:
        sgn = -1 if r % 2 else 1
        j = 0
        while Fraction(r + 1, 2) + (r + 1) * j < order:
            e = Fraction(r + 1, 2) + (r + 1) * j
            c = ring.from_fraction(sgn)
            terms.append((e, ring.mul(c, ring.var("s", 2 * j + 1))))
            terms.append((e, ring.neg(ring.mul(c, ring.var("s", -(2 * j + 1))))))
            j += 1
        r += 1
    total = QSeries.from_terms(ring, terms, order)
    factor = ring.add(ring.var("s"), ring.neg(ring.var("s", -1)))
    return (QSeries.one(ring, order) + total.scale(factor)).truncated(order)


def corollary_b_lhs(order):
    """(-qt;q)(-t^{-1};q)(q;q)^2 / ((qt;q)(t^{-1};q)(-q;q)^2)."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    t, tinv = ring.var("s", 2), ring.var("s", -2)
    num = (pochhammer(ring, ring.neg(t), 1, 1, order)
           * pochhammer(ring, ring.neg(tinv), 0, 1, order)
           * qq_series(ring, order) ** 2)
    den = (pochhammer(ring, t, 1, 1, order)
           * pochhammer(ring, tinv, 0, 1, order)
           * em_one(ring, order) ** 2)
    return (num * den.inverse()).truncated(order)


def corollary_b_rhs(order):
    """(t+1)/(t-1) + 2 sum_r (-1)^r [ q^{r+1}t/(1-q^{r+1}t)
    - q^{r+1}t^{-1}/(1-q^{r+1}t^{-1}) ]."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    terms = []
    r = 0
    while Fraction(r + 1) < order:
        sgn = 2 if r % 2 == 0 else -2
        j = 1
        while (r + 1) * j < order:
            e = Fraction((r + 1) * j)
            c = ring.from_fraction(sgn)
            terms.append((e, ring.mul(c, ring.var("s", 2 * j))))
            terms.append((e, ring.neg(ring.mul(c, ring.var("s", -2 * j)))))
            j += 1
        r += 1
    s2 = LaurentPoly.var(("s",), "s", 2)
    one = LaurentPoly.const(("s",), 1)
    terms.append((0, RationalFunction(s2 + one, s2 - one)))
    return QSeries.from_terms(ring, terms, order)


def corollary_b_rhs_log(order):
    """2 t d/dt ln( t^{-1/2} (t;q^2)(q^2 t^{-1};q^2) / ((qt;q^2)(qt^{-1};q^2)) )."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    log = QSeries.monomial(ring, 0, ring.from_fraction(Fraction(-1, 2)), order)  # t d/dt ln t^{-1/2}
    log = log + _tddt_log_pochhammer(ring, 1, 2, 0, 2, order)    # (t;q^2)
    log = log + _tddt_log_pochhammer(ring, 1, -2, 2, 2, order)   # (q^2 t^{-1};q^2)
    log = log - _tddt_log_pochhammer(ring, 1, 2, 1, 2, order)    # 1/(qt;q^2)
    log = log - _tddt_log_pochhammer(ring, 1, -2, 1, 2, order)   # 1/(qt^{-1};q^2)
    return (log * Fraction(2)).truncated(order)
