"""Truncated formal q-series over a pluggable exact coefficient ring.

Exponents of q live in (1/16)*Z and are stored internally as integers in
sixteenths; the public API accepts and returns Fractions.  A series with
truncation T is known exactly for all exponents < T and unknown at >= T
(Laurent-style big-O, so negative exponents are representable).

The three coefficient rings (rational, Laurent, rational-function) build,
convert, invert and serialize coefficients.  The coefficients (``Fraction``,
``LaurentPoly``, ``RationalFunction``) do their own arithmetic with
Python's operators, with the operands kept in the order of the formula:
the bytes of an unreduced ``RationalFunction`` product follow its operand
order.  A series given term by term is built with ``QSeries.from_terms``,
which sums (exponent, coefficient) pairs into one dict in the order given.

Every series is stored one way: numerators by exponent over one positive
int common denominator.  Over the rational ring the numerators are ints
that share no factor with the denominator, so they are as small as those
of the reduced coefficients; over the other rings they are the
coefficients themselves, over 1.  Sums, negation, scalings, shifts,
products and truncations are one loop for every ring, with the operands in
the order of the formula; only ``inverse`` keeps two recurrences, since
the integer one needs int numerators.  A signed sum of products,
sum sign q^shift x y, is one call of ``QSeries.sum_products``: over the
canonical rings it adds every pair of numerators into one dict over one
denominator and normalizes once, and over ``RatFuncRing`` it runs the
fold of products and running sums in the order of the formula.  The dict
of coefficients (``terms``) is a read-only view, built once for a rational
series made from numerators.  A rational series built from coefficients
takes its numerators from ``laurent._numerators``, the package's one
integer-numerator kernel.  ``RationalRing.evaluate`` evaluates a series of
Laurent polynomials at a rational point as one int numerator per
coefficient over one common denominator, with no ``Fraction`` per
coefficient; every other ring substitutes through ``LaurentPoly.subst``
(see ``_Ring``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import ModeMismatchError, NonUnitError
from .laurent import LaurentPoly, RationalFunction, _numerators

SIXTEENTH = 16

# the two Fock sectors: Neveu-Schwarz (fermion modes in 1/2 + Z, lattice
# charges k in Z) and Ramond (modes in Z, charges in 1/2 + Z)
NS, RAMOND = "ns", "r"


def to16(x) -> int:
    """Exact conversion of a q-exponent to sixteenths; denominator must divide 16."""
    f = x if isinstance(x, (int, Fraction)) else Fraction(x)
    if SIXTEENTH % f.denominator:
        raise ValueError(f"q-exponent {f} has denominator not dividing 16")
    return f.numerator * (SIXTEENTH // f.denominator)


def from16(n: int) -> Fraction:
    return Fraction(n, SIXTEENTH)


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class _Ring:
    """What the three coefficient rings share: construction (``zero``,
    ``one``, ``from_fraction``, ``var``), serialization and an identity of
    (mode, variables); each ring adds ``inv``, which raises
    ``NonUnitError`` off the units.  Sums, negations, products, comparisons
    and the zero test (truth value) of coefficients are the elements' own
    operators.  ``repr`` is part of the disk-cache keys.

    The Laurent-based rings own their conversions, ``from_laurent`` and
    ``to_laurent``; their constants and variables and ``evaluate`` go
    through them, so a substitution is one ``LaurentPoly.subst`` per
    coefficient, never a ring operation per term."""

    def __init__(self, variables=()):
        self.vars = tuple(variables)

    def zero(self):
        return self.from_laurent(LaurentPoly.zero(self.vars))

    def one(self):
        return self.from_fraction(1)

    def from_fraction(self, c):
        return self.from_laurent(LaurentPoly.const(self.vars, c))

    def var(self, name, power=1, c=1):
        return self.from_laurent(LaurentPoly.var(self.vars, name, power, c))

    def coeff_json(self, c):
        return c.to_json()

    def evaluate(self, series, unit):
        """``series``, whose coefficients are Laurent polynomials in one
        variable, with ``unit`` for that variable, as a series over this
        ring: one ``LaurentPoly.subst`` of the unit's Laurent form per
        coefficient, taken back into the ring by ``from_laurent``."""
        image = self.to_laurent(unit)

        def at(coeff):
            return self.from_laurent(coeff.subst(self.vars, {coeff.vars[0]: image}))
        return series.map_to(self, at)

    def __eq__(self, other):
        return type(other) is type(self) and self.vars == other.vars

    def __hash__(self):
        return hash((self.mode, self.vars))

    def __repr__(self):
        return f"{type(self).__name__}({self.vars})"


class RationalRing(_Ring):
    """Exact big rationals (evaluation mode)."""

    mode = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_fraction(self, c):
        return Fraction(c)

    def inv(self, a):
        if a == 0:
            raise NonUnitError("zero is not invertible")
        return 1 / Fraction(a)

    def coeff_json(self, c):
        return str(c)

    def evaluate(self, series, unit):
        """Like the base evaluation, as one integer numerator per
        coefficient: at s = a/b, with |m| <= M for every power s^m and D the
        lcm of the denominators of the coefficients c_m, the coefficient
        sum c_m s^m is sum (c_m D) a^(M+m) b^(M-m) over D a^M b^M."""
        a, b = unit.numerator, unit.denominator
        polys = series.nums
        top = max((abs(m) for p in polys.values() for (m,) in p.terms), default=0)
        apow, bpow = [1], [1]
        for _ in range(2 * top):
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        den = math.lcm(*(c.denominator for p in polys.values() for c in p.terms.values()))
        nums = {}
        for e, p in polys.items():
            v = sum(c.numerator * (den // c.denominator) * apow[top + m] * bpow[top - m]
                    for (m,), c in p.terms.items())
            if v:
                nums[e] = v
        den *= apow[top] * bpow[top]
        if den < 0:
            den, nums = -den, {e: -v for e, v in nums.items()}
        return QSeries._from_nums(self, nums, den, series.trunc)

    def from_laurent(self, p):
        raise ModeMismatchError("cannot lower a Laurent coefficient to rational mode")

    def coeff_from_json(self, data):
        return Fraction(data)

    def __repr__(self):
        return "RationalRing()"


class LaurentRing(_Ring):
    """Multivariate Laurent polynomials in formal square-root / z variables."""

    mode = "laurent"

    def from_laurent(self, p):
        return p

    def to_laurent(self, a):
        return a

    def inv(self, a):
        if not a.is_monomial():
            raise NonUnitError("only monomials are units of the Laurent ring")
        return a ** -1

    def coeff_from_json(self, data):
        return LaurentPoly.from_json(self.vars, data)


class RatFuncRing(_Ring):
    """Normalized rational functions over a Laurent ring (exact mode)."""

    mode = "ratfunc"

    def from_laurent(self, p):
        return RationalFunction.from_laurent(p)

    def to_laurent(self, a):
        return a.as_laurent()

    def inv(self, a):
        if not a:
            raise NonUnitError("zero is not invertible")
        return a.inverse()

    def coeff_from_json(self, data):
        return RationalFunction.from_json(self.vars, data)


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

class QSeries:
    """Sparse truncated series: numerators {exponent in sixteenths: numerator}
    over one positive int denominator ``den``, and a truncation.

    Over ``RationalRing`` the numerators are ints that share no factor with
    ``den``; over the other rings they are the coefficients and ``den`` is
    1.  A series never changes after construction."""

    __slots__ = ("ring", "nums", "den", "trunc", "_terms")

    def __init__(self, ring, terms, trunc, _clean=True):
        """The series of the coefficient dict ``terms``."""
        if _clean:
            terms = {int(e): c for e, c in terms.items()
                     if (trunc is None or e < trunc) and c}
        self.ring = ring
        self.trunc = trunc  # int sixteenths, or None for "known to all orders"
        self._terms = terms
        if ring.mode == "rational":
            nums, self.den = _numerators(list(terms.items()))
            self.nums = dict(nums)
        else:
            self.nums, self.den = terms, 1

    @classmethod
    def _from_nums(cls, ring, nums, den, trunc):
        """The series of numerators ``nums`` (nonzero) over ``den`` > 0,
        divided here by their gcd."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: n // g for e, n in nums.items()}
                den //= g
        self = cls.__new__(cls)
        self.ring = ring
        self.nums = nums
        self.den = den
        self.trunc = trunc
        self._terms = None if ring.mode == "rational" else nums
        return self

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, ring, trunc=None):
        return cls(ring, {}, None if trunc is None else to16(trunc), _clean=False)

    @classmethod
    def one(cls, ring, trunc=None):
        return cls.monomial(ring, 0, ring.one(), trunc)

    @classmethod
    def monomial(cls, ring, qexp, coeff=None, trunc=None):
        if coeff is None:
            coeff = ring.one()
        e = to16(qexp)
        t = None if trunc is None else to16(trunc)
        if not coeff or (t is not None and e >= t):
            return cls(ring, {}, t, _clean=False)
        return cls(ring, {e: coeff}, t, _clean=False)

    @classmethod
    def from_terms(cls, ring, pairs, trunc):
        """The sum of coeff * q**qexp over (qexp, coeff) pairs, truncated below
        ``trunc``; equal coefficients add in the order given, as a running
        sum of ``monomial``s would."""
        t = None if trunc is None else to16(trunc)
        terms = {}
        for qexp, c in pairs:
            e = to16(qexp)
            if (t is not None and e >= t) or not c:
                continue
            if e in terms:
                c = terms[e] + c
                if not c:
                    del terms[e]
                    continue
            terms[e] = c
        return cls(ring, terms, t, _clean=False)

    # -- inspection ----------------------------------------------------------
    @property
    def terms(self):
        """{exponent in sixteenths: coefficient}, nonzero coefficients only."""
        if self._terms is None:
            den = self.den
            self._terms = {e: Fraction(n, den) for e, n in self.nums.items()}
        return self._terms

    def __bool__(self):
        return bool(self.nums)

    def order16(self):
        """Lowest stored exponent; falls back to trunc for the zero series."""
        return min(self.nums) if self.nums else self.trunc

    def coeff(self, qexp):
        e = to16(qexp)
        if self.trunc is not None and e >= self.trunc:
            raise ValueError(f"coefficient of q^{Fraction(qexp)} is beyond the truncation")
        return self.terms.get(e, self.ring.zero())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def items(self):
        """(Fraction exponent, coeff) pairs in ascending exponent order."""
        return [(from16(e), c) for e, c in self.sorted_terms()]

    # -- arithmetic ------------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise ModeMismatchError(
                f"series modes differ: {self.ring!r} vs {other.ring!r}")

    @staticmethod
    def _min_trunc(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        """Both numerator dicts brought to the lcm of the denominators and
        added, the running sum first; a zero operand returns the other, when
        that keeps its truncation."""
        if isinstance(other, (int, Fraction)):
            other = QSeries.monomial(self.ring, 0, self.ring.from_fraction(other))
        self._check(other)
        trunc = self._min_trunc(self.trunc, other.trunc)
        if not self.nums and trunc == other.trunc:
            return other
        if not other.nums and trunc == self.trunc:
            return self
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        nums = dict(self.nums) if fa == 1 else {e: n * fa for e, n in self.nums.items()}
        for e, n in other.nums.items():
            if fb != 1:
                n = n * fb
            if e in nums:
                n = nums[e] + n
                if not n:
                    del nums[e]
                    continue
            nums[e] = n
        if trunc is not None:
            nums = {e: n for e, n in nums.items() if e < trunc}
        return QSeries._from_nums(self.ring, nums, den, trunc)

    def __neg__(self):
        return QSeries._from_nums(self.ring, {e: -n for e, n in self.nums.items()},
                                  self.den, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.monomial(self.ring, 0, self.ring.from_fraction(other))
        return self + (-other)

    def scale(self, coeff):
        """Multiply by a ring coefficient: each numerator times the
        coefficient's numerator, over the product of the denominators."""
        if not coeff:
            return QSeries(self.ring, {}, self.trunc, _clean=False)
        unit = QSeries.monomial(self.ring, 0, coeff)
        p = unit.nums[0]
        nums = {}
        for e, n in self.nums.items():
            v = n * p
            if v:
                nums[e] = v
        return QSeries._from_nums(self.ring, nums, self.den * unit.den, self.trunc)

    def shift(self, qexp):
        """Multiply by q**qexp."""
        d = to16(qexp)
        if d == 0:
            return self
        trunc = None if self.trunc is None else self.trunc + d
        return QSeries._from_nums(self.ring, {e + d: n for e, n in self.nums.items()},
                                  self.den, trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.from_fraction(other))
        self._check(other)
        # trunc(a*b) = min(trunc_a + ord_b, trunc_b + ord_a)
        candidates = []
        for t, o in ((self.trunc, other.order16()), (other.trunc, self.order16())):
            if t is not None and o is not None:
                candidates.append(t + o)
        trunc = min(candidates) if candidates else None
        # a partial sum that reaches zero loses its key before the next term
        nums = {}
        for e1, n1 in self.nums.items():
            for e2, n2 in other.nums.items():
                e = e1 + e2
                if trunc is not None and e >= trunc:
                    continue
                v = n1 * n2
                if e in nums:
                    v = nums[e] + v
                if v:
                    nums[e] = v
                else:
                    nums.pop(e, None)
        return QSeries._from_nums(self.ring, nums, self.den * other.den, trunc)

    __rmul__ = __mul__

    @staticmethod
    def _below(x, y, cut):
        """x and y truncated at q^cut (``cut`` in sixteenths) where that keeps
        the terms of x * y (or of ``x.scale(y)`` for a coefficient y) below
        q^cut and its truncation there: for a product, cut > 0 and neither
        factor has a negative order."""
        if not isinstance(y, QSeries):
            return x.truncated(from16(cut)), y
        ox, oy = x.order16(), y.order16()
        if cut > 0 and ox is not None and oy is not None and min(ox, oy) >= 0:
            return x.truncated(from16(cut)), y.truncated(from16(cut))
        return x, y

    @classmethod
    def sum_products(cls, ring, terms, trunc):
        """The sum of sign * q**shift * x * y over the (sign, shift, x, y) of
        ``terms``: sign is +-1, shift an int in sixteenths, x a series and y
        a series or a ring coefficient.  The truncation is that of the fold
        it replaces: a running sum from ``QSeries.zero(ring, trunc)`` of
        each ``x * y`` (``x.scale(y)`` for a coefficient), shifted and
        negated.

        Over ``RatFuncRing`` the fold itself runs, in that order, since
        unreduced rational functions follow the order of operations; each
        product stops where its shift leaves the sum (``_below``), which
        drops no operation on a surviving coefficient.  The other rings'
        coefficients are canonical, so every pair of numerators is added
        into one dict over the lcm of the terms' denominators and the result
        is normalized once, with no series built per term."""
        t0 = None if trunc is None else to16(trunc)
        if ring.mode == "ratfunc":
            total = cls(ring, {}, t0, _clean=False)
            for sign, shift, x, y in terms:
                if t0 is not None:
                    x, y = cls._below(x, y, t0 - shift)
                term = (x * y if isinstance(y, QSeries) else x.scale(y)).shift(from16(shift))
                total = total + (term if sign > 0 else -term)
            return total
        # (sign, shift, x, y's numerators, the product's denominator) per
        # term; the sum's truncation (the least of the shifted products') and
        # denominator (the lcm of the products')
        factors, t, den = [], t0, 1
        for sign, shift, x, y in terms:
            if isinstance(y, QSeries):
                ynums, yden, ytrunc, yord = y.nums, y.den, y.trunc, y.order16()
            else:
                unit = cls.monomial(ring, 0, y)
                ynums, yden, ytrunc, yord = unit.nums, unit.den, None, 0
            for tr, o in ((x.trunc, yord), (ytrunc, x.order16())):
                if tr is not None and o is not None:
                    t = tr + o + shift if t is None else min(t, tr + o + shift)
            factors.append((sign, shift, x, ynums, x.den * yden))
            den = math.lcm(den, x.den * yden)
        nums = {}
        for sign, shift, x, ynums, d in factors:
            f = sign * (den // d)
            ys = sorted((e + shift, n if f == 1 else n * f) for e, n in ynums.items())
            for e1, n1 in x.nums.items():
                below = math.inf if t is None else t - e1
                for e2, n2 in ys:
                    if e2 >= below:
                        break
                    e = e1 + e2
                    v = n1 * n2
                    if e in nums:
                        v = nums[e] + v
                    nums[e] = v
        return cls._from_nums(ring, {e: n for e, n in nums.items() if n}, den, t)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer power required")
        if n < 0:
            return self.inverse() ** (-n)
        out = QSeries.one(self.ring, None if self.trunc is None else from16(self.trunc))
        # bound the work: repeated squaring
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self):
        """Multiplicative inverse; the lowest coefficient must be a unit."""
        if not self.nums:
            raise NonUnitError("cannot invert the zero series")
        ring = self.ring
        v = self.order16()
        # a = q^v * c0 * (1 + x); invert the (1 + x) part by recurrence.
        # x is known below relative order rel_trunc, so a^-1 below rel_trunc - v
        rel_trunc = None if self.trunc is None else self.trunc - v
        out_trunc = None if rel_trunc is None else rel_trunc - v
        if ring.mode == "rational":
            if len(self.nums) > 1 and rel_trunc is None:
                raise NonUnitError("cannot invert an untruncated non-monomial series")
            return QSeries._from_nums(
                ring, *_rational_inverse(self.nums, self.den, v, rel_trunc), out_trunc)
        c0inv = ring.inv(self.terms[v])  # raises NonUnitError if not a unit
        rel = {e - v: c for e, c in self.terms.items()}
        if len(rel) == 1:
            return QSeries(ring, {-v: c0inv}, out_trunc, _clean=False)
        if rel_trunc is None:
            raise NonUnitError("cannot invert an untruncated non-monomial series")
        # only multiples of the offsets' gcd can carry a nonzero term
        offsets = sorted(e for e in rel if e > 0)
        step = math.gcd(*offsets)
        b = {0: c0inv}
        for e in range(step, rel_trunc, step):
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
        return QSeries(ring, out, out_trunc, _clean=False)

    def truncated(self, order):
        t = to16(order)
        trunc = t if self.trunc is None else min(t, self.trunc)
        return QSeries._from_nums(self.ring, {e: n for e, n in self.nums.items() if e < trunc},
                                  self.den, trunc)

    def map_to(self, target_ring, f):
        """The series over ``target_ring`` whose coefficients are ``f`` of
        this one's."""
        out = {}
        for e, c in self.terms.items():
            v = f(c)
            if v:
                out[e] = v
        return QSeries(target_ring, out, self.trunc, _clean=False)

    # -- comparison --------------------------------------------------------------
    def first_mismatch(self, other, order=None):
        """First exponent below min(truncs, order) where coefficients differ,
        as (Fraction, coeff_self, coeff_other); None when equal."""
        self._check(other)
        upto = self._min_trunc(self.trunc, other.trunc)
        if order is not None:
            upto = self._min_trunc(upto, to16(order))
        if upto is None:
            raise ValueError("cannot compare two untruncated series without an order")
        ring = self.ring
        exps = sorted(set(self.terms) | set(other.terms))
        for e in exps:
            if e >= upto:
                break
            a = self.terms.get(e, ring.zero())
            b = other.terms.get(e, ring.zero())
            if a != b:
                return (from16(e), a, b)
        return None

    # -- display / io ---------------------------------------------------------------
    def __repr__(self):
        if not self.nums:
            body = "0"
        else:
            bits = []
            for e, c in self.sorted_terms():
                q = "" if e == 0 else (f"*q^{from16(e)}" if e != SIXTEENTH else "*q")
                bits.append(f"({c})" + q)
            body = " + ".join(bits)
        tail = "" if self.trunc is None else f" + O(q^{from16(self.trunc)})"
        return body + tail

    def to_json(self):
        return {
            "schema": "fock-correlators/1",
            "mode": self.ring.mode,
            "vars": list(self.ring.vars),
            "trunc": None if self.trunc is None else str(from16(self.trunc)),
            "terms": [
                {"q": str(from16(e)), "coeff": self.ring.coeff_json(c)}
                for e, c in self.sorted_terms()
            ],
        }

    def dumps(self):
        return json.dumps(self.to_json())

    @classmethod
    def from_json(cls, data):
        mode = data["mode"]
        variables = tuple(data.get("vars", ()))
        if mode == "rational":
            ring = RationalRing()
        elif mode == "laurent":
            ring = LaurentRing(variables)
        elif mode == "ratfunc":
            ring = RatFuncRing(variables)
        else:
            raise ModeMismatchError(f"unknown mode {mode!r}")
        trunc = None if data["trunc"] is None else to16(Fraction(data["trunc"]))
        terms = {}
        for item in data["terms"]:
            e = to16(Fraction(item["q"]))
            if e in terms:
                raise ValueError(f"repeated q exponent {item['q']!r}")
            terms[e] = ring.coeff_from_json(item["coeff"])
        return cls(ring, terms, trunc)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))


def _rational_inverse(nums, den, v, rel_trunc):
    """(numerators, denominator) of the inverse of the rational series of
    int numerators ``nums`` over ``den`` and lowest exponent ``v``, known
    below ``v + rel_trunc`` (``None`` for a one-term series, known to all
    orders).

    With the series q^v (n_0 + sum_d n_d q^d) / D, the inverse is
    q^-v D sum_e y_e q^e, where y_0 = 1/n_0 and
    y_e = -(1/n_0) sum_d n_d y_(e-d), the generic recurrence, run only over
    the multiples e of the gcd of the offsets d (no other y_e is nonzero).
    A path to e has at most e // g steps for the smallest offset g, so
    y_e = Y_e / n_0^(e // g + 1) with an integer Y_e; the Y_e are summed in
    plain ints.  Over the common denominator n_0^(P + 1), for the largest
    P = e // g of a nonzero term, the term at e has numerator
    D Y_e n_0^(P - e // g); the signs are flipped when n_0^(P + 1) < 0.
    """
    rel = {e - v: n for e, n in nums.items()}
    n0 = rel.pop(0)
    offsets = sorted(rel)
    if not offsets:
        return {-v: den if n0 > 0 else -den}, abs(n0)
    g = offsets[0]
    step = math.gcd(*offsets)
    n0pow = [1, n0]  # n0pow[i] = n0**i, for i up to e // g + 1
    ys = {0: 1}
    for e in range(step, rel_trunc, step):
        p = e // g
        if p + 1 == len(n0pow):
            n0pow.append(n0pow[-1] * n0)
        acc = 0
        for d in offsets:
            if d > e:
                break
            y = ys.get(e - d)
            if y is not None:
                acc += rel[d] * y * n0pow[p - (e - d) // g - 1]
        if acc:
            ys[e] = -acc
    top = max(ys) // g
    out_den = n0pow[top + 1]
    scale = den if out_den > 0 else -den
    return ({e - v: scale * y * n0pow[top - e // g] for e, y in ys.items()},
            abs(out_den))


# ---------------------------------------------------------------------------
# primitive series constructors
# ---------------------------------------------------------------------------

def pochhammer(ring, prefix, qshift, step, order) -> QSeries:
    """Truncation of prod_{r>=0} (1 - prefix * q^(qshift + r*step)).

    Factors with q-exponent >= order are congruent to 1 and omitted, except
    the r = 0 factor when qshift = 0 (e.g. the (1 - t^{-1}) of (t^{-1};q)).
    """
    qshift = Fraction(qshift)
    step = Fraction(step)
    order = Fraction(order)
    if step <= 0:
        raise ValueError("pochhammer requires step > 0")
    if qshift < 0:
        raise ValueError("pochhammer requires qshift >= 0")
    if isinstance(prefix, (int, Fraction)):
        prefix = ring.from_fraction(prefix)
    if qshift == 0 and prefix == ring.one():
        raise ValueError("(1;q)_infinity vanishes: prefix 1 with qshift 0")
    out = QSeries.one(ring, order)
    r = 0
    while True:
        e = qshift + r * step
        if e >= order and not (r == 0 and qshift == 0):
            break
        factor = QSeries.one(ring, order) - QSeries.monomial(ring, e, prefix, order)
        out = out * factor
        r += 1
    return out.truncated(order)


def lattice_sum(ring, sector, unit, order) -> QSeries:
    """sum over the charges k of ``sector`` of unit^(2k) * q^(k^2/2),
    truncated below ``order``: ``unit`` is the square root of the weight."""
    if isinstance(unit, (int, Fraction)):
        unit = ring.from_fraction(unit)
    return QSeries.from_terms(
        ring, [(k * k / 2, unit_pow(ring, unit, int(2 * k)))
               for k in lattice_points(sector, order)], order)


def lattice_points(sector, order):
    """The charges k of ``sector`` with k^2/2 < order, ascending: k in Z in
    NS, in 1/2 + Z in R."""
    if sector not in (NS, RAMOND):
        raise ValueError(f"sector must be {NS!r} or {RAMOND!r}")
    order = Fraction(order)
    k = Fraction(0) if sector == NS else Fraction(1, 2)
    ks = []
    while k * k / 2 < order:
        ks.extend((k, -k) if k else (k,))
        k += 1
    return sorted(ks)


def unit_pow(ring, unit, k: int):
    """unit**k for possibly negative integer k (binary exponentiation)."""
    if k == 0:
        return ring.one()
    if k < 0:
        unit = ring.inv(unit)
        k = -k
    out = None
    base = unit
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def rational_value(x):
    """``x`` as a Fraction when it is a rational number (an int, a Fraction
    or a ``LaurentPoly`` that is only a constant), else None."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, LaurentPoly):
        zero = (0,) * len(x.vars)
        if x.terms.keys() == {zero}:
            return Fraction(x.terms[zero])
    return None
