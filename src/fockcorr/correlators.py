"""Closed-form correlation functions, graded traces, half-level recursions,
refined level-1 functions, and q-dimensions.

All t-variables enter through their formal square roots: t_i = s_i**2, so a
power t^k with 2k integral is the unit power s^(2k).  Exact mode works over
rational functions in s_1..s_n (plus any z/w grading variables); evaluation
mode substitutes rational s-values and needs only Laurent (or plain rational)
coefficients.

Theta and its t d/dt derivatives are built from the Jacobi triple product,
Theta^(k) = N_k / (q;q)^3, where the numerator ``theta_num_k`` is lacunary:
two s-terms per q-power n(n-1)/2, about 2 sqrt(2 order) terms in all.

The n-point kernel ``f_bo`` has two routes, chosen by ring.  Over
``Fraction`` and ``LaurentPoly`` coefficients, whose elements have one
canonical form, it runs the subset recursion, each subset's value from
``f_bo``'s own cache: about 3^n series products for all subsets of n units,
where the permutation sum expanded n! determinants.  The recursion is a
ratio of thetas, so (q;q)^3 cancels and it runs on the numerators N_k,
never on the dense Theta^(k).  The values are exact, so the bytes are the
same.  In eval mode ``theta_num_at`` evaluates N_k at s to int numerators
over one denominator (``RationalRing.evaluate``), and the series products,
inverses and sums run on integer numerators (see ``qseries``); over a
``LaurentRing`` whose units are all constants (eval mode with a grading
variable) ``f_bo`` runs that ``RationalRing`` kernel and lifts the result.

Every signed sum of products here (the subset recursion of ``f_bo``, the
eps sums, the Weyl sums and the half-level cross sums) is one call of
``QSeries.sum_products``: over the canonical rings one integer pass over
all products, over ``RatFuncRing`` the fold in the order of the formula.

Over ``RatFuncRing`` it keeps the permutation sum of theta determinants,
each built and expanded afresh, in a fixed order: exact rational functions
are stored unreduced, so their bytes follow the order of operations, which
the recorded outputs pin.  This route goes once exact values have a
canonical form.

Over ``RationalRing`` at n >= 3 points and small orders, where one rule
(``fock_sums.fock_route``) picks it, the eps sums and the level-1/2 bases
take their series from Bloch-Okounkov's sums over partitions
(``fock_sums``), which cost the number of states times n where the theta
route costs about 3^n products; an eps sum there is one partition sum,
with no sign vector.  Eval values are canonical, so both routes
print the same bytes; ``fock-kernel`` checks one against the other, and
``graded_trace_F`` always runs the theta route, which the oracle checks.

On the theta route the eps sums over the 2^n sign vectors use
F_bo(q; 1/t) = (-1)^n F_bo(q; t) (Bloch-Okounkov): the terms for eps and
-eps pair up as [eps] F_bo(q; t^eps) (x^k + x^-k) with x = prod t^eps, so
``f_bo`` runs only for the 2^(n-1) vectors with eps_1 = +1.
``graded_trace_F`` folds its lattice sum over k into one series product
per such pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product
from math import ceil, factorial, gcd, prod

from .characters import det_laurent
from .combinat import SECTOR, ModuleLabel
from .errors import InternalCheckError, LabelError, NonUnitError, PoleError
from .fock_sums import base_sum, check_poles, eps_sum_fock, fock_route
from .laurent import LaurentPoly
from .qseries import (NS, RAMOND, LaurentRing, QSeries, RatFuncRing, RationalRing,
                      lattice_points, pochhammer, rational_value, to16, unit_pow)
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


# each sector's level-1/2 vacuum q^e (-q^a;q): its energy e, the first
# positive mode a, and (-q^a;q)
VACUUM = {NS: (Fraction(0), Fraction(1, 2), em_half),
          RAMOND: (Fraction(1, 16), Fraction(1), em_one)}


@lru_cache(maxsize=None)
def qq_odd(ring, order):
    """(q;q^2)_infinity."""
    return pochhammer(ring, 1, 1, 2, order)


# ---------------------------------------------------------------------------
# theta and its t d/dt derivatives (symbolic in one variable s, t = s^2)
# ---------------------------------------------------------------------------

_SRING = LaurentRing(("s",))


@lru_cache(maxsize=None)
def theta_num_k(k, order):
    """N_k(t) = sum_n (-1)^(n+1) (n - 1/2)^k q^(n(n-1)/2) t^(n-1/2), Laurent
    in s: by the Jacobi triple product Theta^(k) = N_k / (q;q)^3, where
    Theta(t) = (t^{1/2}-t^{-1/2}) (q;q)^{-2} (qt;q) (qt^{-1};q) and
    Theta^(k) = (t d/dt)^k Theta.  The q-power n(n-1)/2 carries the two
    s-terms of n and 1 - n, so N_k has about 2 sqrt(2 order) terms."""
    terms = []
    n = 1
    while n * (n - 1) < 2 * order:
        c = Fraction(2 * n - 1, 2) ** k * (1 if n % 2 else -1)
        mirror = c if k % 2 else -c   # the term of 1 - n
        coeff = LaurentPoly(_SRING.vars, {(2 * n - 1,): c, (1 - 2 * n,): mirror})
        terms.append((Fraction(n * (n - 1), 2), coeff))
        n += 1
    return QSeries.from_terms(_SRING, terms, order)


@lru_cache(maxsize=None)
def theta_k(k, order):
    """Theta^(k) = (t d/dt)^k Theta as N_k (q;q)^-3, Laurent in s."""
    return theta_num_k(k, order) * inv_qq(_SRING, order) ** 3


@lru_cache(maxsize=None)
def theta_num_at(k, unit, ring, order):
    """N_k with argument t = unit^2, as a series over ``ring``; cached as
    ``theta_at`` is, whose place it takes in the subset recursion.  Over
    ``RationalRing`` a unit below 1 in size reads the value at its inverse,
    as N_k(1/t) = (-1)^(k+1) N_k(t): the terms of n and 1 - n swap."""
    if isinstance(ring, RationalRing) and abs(unit) < 1:
        out = theta_num_at(k, ring.inv(unit), ring, order)
        return out if k % 2 else -out
    return ring.evaluate(theta_num_k(k, order), unit)


@lru_cache(maxsize=None)
def theta_at(k, unit, ring, order):
    """Theta^{(k)} with argument t = unit^2, as a series over ``ring``."""
    return ring.evaluate(theta_k(k, order), unit)


def _theta_inverse(th):
    """1/th for a theta factor (or numerator) ``th``, whose q^0 term must be
    a unit: it vanishes at t = 1, a pole."""
    if not th or th.order16() != 0:
        raise PoleError("theta argument t = 1 (vanishing leading term)")
    try:
        return th.inverse()
    except NonUnitError as exc:
        raise PoleError(f"theta factor is not invertible: {exc}") from exc


@lru_cache(maxsize=None)
def inv_theta_at(unit, ring, order):
    return _theta_inverse(theta_at(0, unit, ring, order))


# ---------------------------------------------------------------------------
# the theta-determinant n-point kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def f_bo(units, ring, order):
    """The Bloch-Okounkov n-point kernel by the theta route; n = 0 gives
    1/(q;q), n = 1 gives 1/((q;q) Theta(t)).  Where ``fock_sums.fock_route``
    picks it (eval mode, n >= 3, small orders) ``eps_inner_sum`` takes the
    factorized partition sum of the whole eps sum instead;
    ``graded_trace_F`` always takes this one.

    Over every ring but ``RatFuncRing`` it runs the subset recursion

        F(B) = Theta(t_B)^-1 sum_{A < B} (-1)^(|B-A|-1) Theta^(|B-A|)(t_A) F(A)

    over the proper sub-tuples A of B = ``units`` (in index order, t_A the
    product of their t's), with no 1/k!: the |B-A|! orderings of the
    permutation sum below cancel it.  With Theta^(k) = N_k / (q;q)^3 the
    factors (q;q)^3 cancel, so it runs on the lacunary numerators:
    F(B) = N_0(t_B)^-1 sum_{A < B} (-1)^(|B-A|-1) N_(|B-A|)(t_A) F(A).
    Each F(A) is a call of ``f_bo``, so its cache shares every subset's
    series between sign vectors, jobs and the subset traces of
    ``half_level_base``.  The signed sum is one ``QSeries.sum_products``
    over about 2^n products, and one product by the inverse of N_0(t_B)
    follows.  The coefficients of these rings have one canonical form, so
    the values are those of the permutation sum, to the byte.  Over a
    ``LaurentRing`` whose units are all constants it runs over
    ``RationalRing``, with int numerators, and lifts the result once with
    ``map_to``: the same canonical coefficients, with no Laurent product.
    Over ``RationalRing`` a tuple whose first unit is below 1 in size reads
    the value of the inverted tuple, as F_bo(q; 1/t) = (-1)^n F_bo(q; t).

    Exact rational functions are kept unreduced, so their bytes follow the
    order of operations; ``RatFuncRing`` keeps the permutation sum of theta
    determinants, each built afresh and expanded along its first row by
    ``det_laurent``."""
    order = Fraction(order)
    if isinstance(ring, LaurentRing):
        values = tuple(map(rational_value, units))
        if None not in values:
            return f_bo(values, RationalRing(), order).map_to(ring, ring.from_fraction)
    n = len(units)
    if n == 0:
        return inv_qq(ring, order)
    if isinstance(ring, RationalRing) and abs(units[0]) < 1:
        out = f_bo(tuple(map(ring.inv, units)), ring, order)
        return -out if n % 2 else out
    if not isinstance(ring, RatFuncRing):
        # (A, its unit product) for every sub-tuple A of units, in index order
        subsets = [((), ring.one())]
        for u in units:
            subsets += [(sub + (u,), p * u) for sub, p in subsets]
        terms = []  # + for odd |B-A|, - for even
        for sub, unit in subsets[:-1]:
            k = n - len(sub)
            num = theta_num_at(k, unit, ring, order)
            if num:
                terms.append((1 if k % 2 else -1, 0, num, f_bo(sub, ring, order)))
        total = QSeries.sum_products(ring, terms, order)
        inv = _theta_inverse(theta_num_at(0, subsets[-1][1], ring, order))
        return (total * inv).truncated(order)
    zero = QSeries.zero(ring, order)
    one = ring.one()
    terms = []
    for sigma in permutations(range(n)):
        # partial products u_m = s_{sigma(1)} ... s_{sigma(m)}
        partial = [one]
        for m in range(n):
            partial.append(partial[-1] * units[sigma[m]])
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
        for m in range(1, n):
            term = term * inv_theta_at(partial[m], ring, order)
        terms.append((1, 0, term, inv_theta_at(partial[n], ring, order)))
    total = QSeries.sum_products(ring, terms, order)
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
        out.append((sign, us, prod(us, start=ring.one())))
    return out


def _pair_weights(ring, uprod, k2s, n):
    """x^k + x^-k for x = uprod^2 and each k = k2/2 of ``k2s``: the weights
    of an eps pair (just x^k = 1 at n = 0).  The powers of uprod are one
    table over the multiples of the gcd g of the k2, each entry the last
    one times uprod^g or uprod^-g."""
    step = gcd(*k2s)
    pows = {0: ring.one()}
    if step:
        pows[step], pows[-step] = unit_pow(ring, uprod, step), unit_pow(ring, uprod, -step)
        for j in range(2 * step, max(map(abs, k2s)) + 1, step):
            pows[j], pows[-j] = pows[j - step] * pows[step], pows[step - j] * pows[-step]
    return [pows[k2] + pows[-k2] if n else pows[k2] for k2 in k2s]


def _twice(k):
    """2k as an int, for k integral or half-integral."""
    k2 = Fraction(k) * 2
    if k2.denominator != 1:
        raise ValueError("k must be integral or half-integral")
    return int(k2)


def eps_sum(units, ring, order, k):
    """sum over eps of [eps] (prod t^eps)^k F_bo(q; t^eps) by the theta
    route (``f_bo``); k may be half-integral.

    Summed over the vectors with eps_1 = +1 only, each as
    [eps] F_bo(q; t^eps) (x^k + x^-k) with x = prod t^eps, so ``f_bo``
    runs 2^(n-1) times."""
    k2, n = _twice(k), len(units)
    return QSeries.sum_products(ring, [
        (sign, 0, f_bo(us, ring, order), _pair_weights(ring, uprod, [k2], n)[0])
        for sign, us, uprod in _eps_data(units, ring)], order)


@lru_cache(maxsize=None)
def eps_inner_sum(units, ring, order, k):
    """sum over eps of [eps] (prod t^eps)^k F_bo(q; t^eps): where
    ``fock_route`` picks it (eval mode, n >= 3, small orders) the one
    factorized partition sum ``fock_sums.eps_sum_fock``, with no sign
    vector, after the theta route's pole test (``check_poles``), and
    ``eps_sum`` otherwise.  Cached: the Weyl sums of every label over the
    same units, ring and order share the inner sums."""
    if fock_route(ring, len(units), order):
        check_poles(units)
        return eps_sum_fock(units, order, abs(_twice(k)))
    return eps_sum(units, ring, order, k)


# ---------------------------------------------------------------------------
# graded traces F(z,q;t) and F_b(z,q;t) (closed formula route)
# ---------------------------------------------------------------------------

def graded_trace_F(sector, units, ring, order, zvar=None):
    """F(z,q;t) = sum_k z^k q^{k^2/2} sum_eps [eps] (prod t^eps)^k F_bo(q;t^eps).

    NS sums k over Z, RAMOND over 1/2 + Z.  ``zvar`` names the grading variable:
    z itself in NS, and in R its square root w, z^k entering as w^(2k).
    zvar=None sets z = 1.

    The k-sum is merged into the eps sum: pairing eps with -eps as in
    ``eps_inner_sum``, each vector with eps_1 = +1 contributes one product
    [eps] F_bo(q;t^eps) * sum_k (x^k + x^-k) z^k q^{k^2/2}.
    """
    order = Fraction(order)
    ks = lattice_points(sector, order)
    qexps, k2s, terms = [k * k / 2 for k in ks], [int(2 * k) for k in ks], []
    zpows = None
    if zvar is not None:
        zpows = [ring.var(zvar, k2 if sector == RAMOND else k2 // 2) for k2 in k2s]
    for sign, us, uprod in _eps_data(units, ring):
        ws = _pair_weights(ring, uprod, k2s, len(units))
        if zpows is not None:
            ws = [w * z for w, z in zip(ws, zpows)]
        lattice = QSeries.from_terms(ring, list(zip(qexps, ws)), order)
        terms.append((sign, 0, f_bo(us, ring, order), lattice))
    return QSeries.sum_products(ring, terms, order)


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
    tprod = unit_pow(ring, prod(units, start=ring.one()), 2 * sum(lam))
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
    terms = []
    for sign, qexp, kvec in weyl_sum(weight, wtype, l, order):
        inner = [eps_inner_sum(units, ring, order, k) for k in kvec]
        # the inner sums start at q^0 or later, and only the terms below
        # q^(order - qexp) survive the shift by qexp
        rest = order - qexp
        x = inner[0]
        for y in inner[1:-1]:
            x = x.truncated(rest) * y.truncated(rest)
        terms.append((sign, to16(qexp), x, inner[-1] if len(inner) > 1 else ring.one()))
    return QSeries.sum_products(ring, terms, order)


@lru_cache(maxsize=None)
def _half_level_norm(sector, ring, order):
    """1/base(()), inverted once for all of ``half_level_recursion``'s
    subsets."""
    e, _, em = VACUUM[sector]
    return em(ring, order + e).inverse().shift(-e)


@lru_cache(maxsize=None)
def half_level_base(sector, units, ring, order):
    """Level-1/2 base function of the sector: NS gives type D's
    neutral-fermion n-point function, R type B's, and n = 0 the sector's
    ``VACUUM``.  It is the strict-partition sum ``fock_base`` where
    ``fock_route`` picks it (eval mode, n >= 3, small orders), after the
    theta route's pole test (``check_poles``), and ``half_level_recursion``
    otherwise."""
    order = Fraction(order)
    if units and fock_route(ring, len(units), order):
        check_poles(units)
        return fock_base(sector, units, order)
    return half_level_recursion(sector, units, ring, order)


def fock_base(sector, units, order):
    """The level-1/2 base over ``RationalRing`` as the sum over the strict
    partitions of the sector's positive modes (``fock_sums.base_sum``)."""
    e, first, _ = VACUUM[sector]
    return base_sum(units, Fraction(order), e, first)


@lru_cache(maxsize=None)
def half_level_recursion(sector, units, ring, order):
    """The level-1/2 base by the subset recursion

        base(B) = (F(B) - sum_{A} base(A) base(B-A)) / (2 base(()))

    over the nonempty proper sub-tuples A of B = ``units`` (in index order),
    with F the graded trace of the sector; R halves the full graded trace.
    Each base(A) is a call of ``half_level_recursion``, so its cache shares
    every subset's series.  At n >= 1 the base is cut at order - e, e the
    sector's vacuum energy.  Its terms lie at q^e or above, so at order e
    (R at 1/16) it is the zero series cut at q^0; the recursion would cut
    it 1/16 lower per point there, as a zero subset series reports its
    truncation as its order.
    """
    order = Fraction(order)
    n = len(units)
    e, _, em = VACUUM[sector]
    if n == 0:
        return em(ring, order - e).shift(e)
    if order <= e:
        return QSeries.zero(ring, order - e)
    full = graded_trace_F(sector, units, ring, order)
    if sector == RAMOND:
        full = full * Fraction(1, 2)
    terms = []
    for bits in range(1, 2 ** n - 1):
        left = tuple(u for i, u in enumerate(units) if bits >> i & 1)
        right = tuple(u for i, u in enumerate(units) if not bits >> i & 1)
        terms.append((1, 0, half_level_recursion(sector, left, ring, order),
                      half_level_recursion(sector, right, ring, order)))
    cross = QSeries.sum_products(ring, terms, order)
    norm = _half_level_norm(sector, ring, order)
    return (((full - cross) * norm) * Fraction(1, 2)).truncated(order)


def npoint(label: ModuleLabel, units, ring, order):
    """The n-point function of a label: type A's closed form, or the Weyl
    sum of the label's Weyl type, times the level-1/2 base at a half level."""
    order = Fraction(order)
    l = label.rank()
    if label.algebra == "a":
        return a_npoint(label.lam, l, units, ring, order)
    weight, wtype = label.weight(), label.weyl_type()
    if label.level.denominator == 1:
        return weyl_correlator(weight, wtype, l, units, ring, order)
    pre = half_level_base(SECTOR[label.algebra], units, ring, order)
    return (pre * weyl_correlator(weight, wtype, l, units, ring, order)).truncated(order)


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

def _geometric(ring, order, terms):
    """sum c q^a / (1 - w q^b) over the (c, a, w, b) of ``terms``, expanded as
    sum_j c w^j q^(a + b j) below q^order; a term with b = 0 is the exact
    c / (1 - w) at q^a."""
    pairs = []
    for c, a, w, b in terms:
        if b == 0:
            pairs.append((a, c * ring.inv(ring.one() - w)))
            continue
        while a < order:
            pairs.append((a, c))
            a, c = a + b, c * w
    return QSeries.from_terms(ring, pairs, order)


def colon_g(order):
    """:G:(t) = 2 (q;q^2) sum_{n>=1} q^{2n-1} (t^{-n+1/2} - t^{n-1/2})/(1-q^{2n-1})
    over RatFunc(s)."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    s = partial(ring.var, "s")
    terms = [(s(-m, 2) - s(m, 2), m, ring.one(), m)
             for m in range(1, ceil(order), 2)]   # m = 2n - 1
    return (qq_odd(ring, order) * _geometric(ring, order, terms)).truncated(order)


def refined_g(order):
    """G(t) = :G:(t) + (q;q^2) * 2/(t^{1/2}-t^{-1/2}) over RatFunc(s)."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    central = _geometric(ring, order, [(ring.var("s", -1, 2), 0, ring.var("s", -2), 0)])
    return (colon_g(order) + qq_odd(ring, order) * central).truncated(order)


def refined_level1(sign, order):
    """tr over the tau = +/-1 eigenspace: (D^1_(0)(q,t) +/- G(t))/2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    units = (ring.var("s"),)
    d0 = weyl_correlator((Fraction(0),), "D", 1, units, ring, order)
    g = refined_g(order)
    return ((d0 + g) if sign > 0 else (d0 - g)) * Fraction(1, 2)


def _tddt_log_pochhammer(ring, c, x2, qshift, step, order):
    """t d/dt ln prod_{r>=0} (1 - c t^{x} q^{qshift + r step}) with x = x2/2:
    the factor at q^e gives -x c t^x q^e / (1 - c t^x q^e), exact at e = 0."""
    mono = ring.var("s", x2, c)
    coeff = ring.from_fraction(Fraction(-x2, 2)) * mono
    terms, e = [], Fraction(qshift)
    while e < order:
        terms.append((coeff, e, mono, e))
        e += step
    return _geometric(ring, order, terms)


def refined_form1(sign, order):
    """First displayed closed form of the refined trace: F_bo(q;t) +/- (q;q^2)
    [1/(t^{1/2}-t^{-1/2}) + sum_{r>=0} (q^{r+1} t^{-1/2}/(1 - q^{2r+2} t^{-1})
    - q^{r+1} t^{1/2}/(1 - q^{2r+2} t))]."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    s = partial(ring.var, "s")
    base = f_bo((s(),), ring, order)
    terms = [(s(-1), 0, s(-2), 0)]
    for m in range(1, ceil(order)):   # m = r + 1
        terms += [(s(-1), m, s(-2), 2 * m), (s(1, -1), m, s(2), 2 * m)]
    corr = qq_odd(ring, order) * _geometric(ring, order, terms)
    return (base + corr) if sign > 0 else (base - corr)


def refined_form2(sign, order, literal=False):
    """Second displayed form, via the t d/dt logarithm of a Pochhammer ratio.

    The printed ratio gives exactly the negative of the required correction
    (its q^0 term is -1/(t^{1/2}-t^{-1/2})); ``literal=True`` reproduces the
    printed orientation, the default inverts the ratio so that the identity
    with the first form holds.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
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
    the two must agree exactly.  A half level multiplies by the level-1/2
    vacuum (``half_level_base`` at n = 0) below q^{order + 1/16}, as the R
    one starts at q^{1/16}; the other factors cut the NS one at q^order."""
    order = Fraction(order)
    ring = RationalRing()
    l = label.rank()
    if label.algebra == "a":
        raise LabelError("q-dimensions are provided for algebras b, c, d")
    weight, wtype = label.weight(), label.weyl_type()
    pre = inv_qq(ring, order) ** l
    if label.level.denominator == 2:
        pre = half_level_base(SECTOR[label.algebra], (), ring, order + Fraction(1, 16)) * pre
    sum_form = weyl_qpoly(weight, wtype, l, order)
    prod_form = weyl_sum_product_form(weight, wtype, l, order)
    if sum_form.first_mismatch(prod_form) is not None:
        raise InternalCheckError(
            f"Weyl-sum and product q-dimension forms disagree for {label}")
    return pre * sum_form


# ---------------------------------------------------------------------------
# the two corollary q-identities
# ---------------------------------------------------------------------------

def corollary_lhs(sector, unit, ring, order):
    """The Pochhammer side of a corollary q-identity at t = unit^2 over ``ring``,
    (-q^a t;q)(-q^{1-a} t^{-1};q)(q;q)^2 / ((qt;q)(q^{2-2a} t^{-1};q)(-q^a;q)^2)
    with a the sector's first positive mode (``VACUUM``): type D's identity
    in NS (a = 1/2), type B's in R (a = 1)."""
    order = Fraction(order)
    _, a, em = VACUUM[sector]
    b, c = 1 - a, 2 - 2 * a
    t, tinv = unit_pow(ring, unit, 2), unit_pow(ring, unit, -2)
    num = (pochhammer(ring, -t, a, 1, order)
           * pochhammer(ring, -tinv, b, 1, order)
           * qq_series(ring, order) ** 2)
    den = (pochhammer(ring, t, 1, 1, order)
           * pochhammer(ring, tinv, c, 1, order)
           * em(ring, order) ** 2)
    return (num * den.inverse()).truncated(order)


def corollary_d_rhs(order):
    """1 + (t^{1/2}-t^{-1/2}) sum_r (-1)^r [ (q^{r+1}t)^{1/2}/(1-q^{r+1}t)
    - (q^{r+1}t^{-1})^{1/2}/(1-q^{r+1}t^{-1}) ]."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    s = partial(ring.var, "s")
    factor = s() - s(-1)
    terms = []
    for m in range(1, ceil(2 * order)):   # m = r + 1
        sgn = 1 if m % 2 else -1
        terms += [(factor * s(1, sgn), Fraction(m, 2), s(2), m),
                  (factor * s(-1, -sgn), Fraction(m, 2), s(-2), m)]
    return QSeries.one(ring, order) + _geometric(ring, order, terms)


def corollary_b_rhs(order):
    """(t+1)/(t-1) + 2 sum_r (-1)^r [ q^{r+1}t/(1-q^{r+1}t)
    - q^{r+1}t^{-1}/(1-q^{r+1}t^{-1}) ]."""
    order = Fraction(order)
    ring = RatFuncRing(("s",))
    s = partial(ring.var, "s")
    terms = [(ring.one() + s(-2), 0, s(-2), 0)]
    for m in range(1, ceil(order)):   # m = r + 1
        sgn = 2 if m % 2 else -2
        terms += [(s(2, sgn), m, s(2), m), (s(-2, -sgn), m, s(-2), m)]
    return _geometric(ring, order, terms)


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
