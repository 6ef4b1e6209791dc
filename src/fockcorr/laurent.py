"""Exact multivariate Laurent polynomials and rational functions.

Half-integer powers of the correlation variables t_i never appear directly:
every module works in formal square roots s_i with t_i = s_i**2, so all
exponents here are plain integers.  Coefficients are exact rationals held
in one normal form: a plain ``int`` when integral, a ``Fraction`` only when
not.  Since ``4 == Fraction(4)``, ``hash(4) == hash(Fraction(4))`` and
``str(4) == str(Fraction(4))``, the form changes no equality, hash or
rendering; it only keeps the common integral case off ``Fraction``.

Most ring work in exact mode has a unit or one-term operand, so the ring
short-circuits it with the same result as the general code: a product with
a one-term factor shifts and scales the other factor (and returns it as is
for 1), ``exact_div`` by a one-term divisor shifts and scales ``num``, a
division whose exponent spans rule it out raises before any long division
step, and ``RationalFunction`` returns a denominator of 1 at once and runs
no gcd against a constant one.

Every ``RationalFunction`` is canonical from the moment it is built (see its
docstring), so work that would only re-derive that form is skipped: a
product with a one-term factor over 1 (a unit, a constant or a monomial)
scales or shifts the other factor's numerator and keeps its denominator,
with no normalization and no trial division.  The univariate gcd first
tries a certificate mod the prime 2**31 - 1 (W. S. Brown, J. ACM 18, 1971):
when that shows the gcd is 1, which it is in most calls, no Euclid over Q
runs.

The other products and divisions run on packed keys: the terms' exponent
vectors map once to plain ints over an exponent box (``_strides``), the
inner loops add and compare those ints, and each output term is unpacked
once.  Int order is lex order, so long division keeps its order of steps,
and the product keeps the term order of a loop over exponent tuples.  The
general product also runs on integer coefficients, the pattern of the
rational q-series product: each operand is scaled to integer numerators
over the lcm of its denominators, and each output term is divided once by
the product of the two lcms (operands with only int coefficients skip both).
``terms`` stays keyed by tuples.  A ``LaurentPoly`` keeps its box once
computed, since its terms never change.

``LaurentPoly.subst`` is the one substitution of monomials for variables
(theta at a unit, a character embedded into a larger ring): each term maps
to one term, with no products of polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add, gt, mul, sub

from .errors import InexactDivisionError, PoleError


def _fr(x):
    """Normal form of a coefficient: int when integral, else Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """Exact coefficient quotient in normal form (int / int is a float)."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b) if a % b else a // b
    return _fr(Fraction(a) / b)


# -- packed exponent keys ------------------------------------------------------
# Inside a box lo <= e <= hi, an exponent vector e packs to the int
# sum(e_i * stride_i), where the last variable has stride 1 and each other
# stride is the next one times (that next variable's span + 1).  This is
# mixed radix with signed digits: two vectors of the box differ by at most
# span_i in digit i, which no lower digits can make up, so the map is one to
# one and int order is the lex order of the vectors.  It is linear, so adding
# keys adds vectors, and the packing of a box holds for any sum that stays
# in it.

def _box(terms):
    """Componentwise (min, max) exponent vectors of a nonempty term dict."""
    cols = tuple(zip(*terms))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _strides(spans):
    """Strides of the keys of a box with these (hi - lo) spans."""
    out = [1]
    for span in reversed(tuple(spans)[1:]):
        out.append(out[-1] * (span + 1))
    return out[::-1]


def _pack(terms, strides):
    """[(key, coeff)] of a term dict."""
    return [(sum(map(mul, e, strides)), c) for e, c in terms.items()]


def _numerators(pairs):
    """([(key, integer numerator)], lcm of the denominators) of (key, int or
    Fraction) ``pairs``, a list or a dict's items; all-int ``pairs`` come back
    as they are, over 1, and any Fraction, integral too, becomes an int."""
    dens = [c.denominator for _, c in pairs if type(c) is not int]
    if not dens:
        return pairs, 1
    den = lcm(*dens)
    return [(k, c.numerator * (den // c.denominator)) for k, c in pairs], den


def _unpack(keys, strides, lo):
    """The exponent vectors of ``keys`` in order, for a box whose minimum is
    ``lo``: relative to ``lo`` every digit is in [0, span], so it is read off
    by floor division and remainder, one variable at a time."""
    base = sum(map(mul, lo, strides))
    keys = [k - base for k in keys]
    cols = [[k // strides[0] + lo[0] for k in keys]]
    for above, stride, low in zip(strides, strides[1:], lo[1:]):
        cols.append([k % above // stride + low for k in keys])
    return zip(*cols)


class LaurentPoly:
    """Laurent polynomial: ordered variable names + {exponent vector: coeff}.

    Coefficients are nonzero and in ``_fr`` normal form.

    Instances are treated as immutable; never mutate ``terms`` after
    construction.
    """

    __slots__ = ("vars", "terms", "_hash", "_ebox")

    def __init__(self, variables, terms, _clean=True):
        self.vars = tuple(variables)
        if _clean:
            clean = {}
            for exps, c in terms.items():
                c = _fr(c)
                if c:
                    e = tuple(exps)
                    if len(e) != len(self.vars):
                        raise ValueError("exponent vector length mismatch")
                    if any(not isinstance(x, int) for x in e):
                        if any(Fraction(x).denominator != 1 for x in e):
                            raise ValueError(f"non-integer exponent vector {e}")
                        e = tuple(int(x) for x in e)
                    clean[e] = clean.get(e, 0) + c
            terms = {e: _fr(c) for e, c in clean.items() if c}
        self.terms = terms
        self._hash = None
        self._ebox = None

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls(variables, {}, _clean=False)

    @classmethod
    def const(cls, variables, c):
        c = _fr(c)
        n = len(tuple(variables))
        if not c:
            return cls(variables, {}, _clean=False)
        return cls(variables, {(0,) * n: c}, _clean=False)

    @classmethod
    def monomial(cls, variables, exps, c=1):
        c = _fr(c)
        if not c:
            return cls.zero(variables)
        return cls(variables, {tuple(exps): c}, _clean=True)

    @classmethod
    def var(cls, variables, name, power=1, c=1):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls.monomial(variables, exps, c)

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def _exp_box(self):
        """``_box(self.terms)`` of a nonzero poly, computed on first use."""
        box = self._ebox
        if box is None:
            box = self._ebox = _box(self.terms)
        return box

    # -- arithmetic ----------------------------------------------------
    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            v = t.get(e, 0) + c
            if v:
                t[e] = _fr(v)
            else:
                t.pop(e, None)
        return LaurentPoly(self.vars, t, _clean=False)

    def __neg__(self):
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            if not c:
                return LaurentPoly.zero(self.vars)
            return self._times_term((0,) * len(self.vars), c)
        self._check(other)
        # a one-term factor only shifts and scales the other one
        if len(other.terms) == 1:
            return self._times_term(*next(iter(other.terms.items())))
        if len(self.terms) == 1:
            return other._times_term(*next(iter(self.terms.items())))
        # the general product adds int keys over the product's box, and
        # integer numerators over each operand's lcm denominator; a zero sum
        # deletes its key, so the term order depends on neither, and each
        # output term is divided once by the product of the two lcms
        alo, ahi = self._exp_box()
        blo, bhi = other._exp_box()
        lo = tuple(map(add, alo, blo))
        strides = _strides(map(sub, map(add, ahi, bhi), lo))
        a, da = _numerators(_pack(self.terms, strides))
        b, db = _numerators(_pack(other.terms, strides))
        out = {}
        get = out.get
        for ka, ca in a:
            for kb, cb in b:
                k = ka + kb
                v = get(k, 0) + ca * cb
                if v:
                    out[k] = v
                else:
                    del out[k]
        den = da * db
        if den == 1:
            coeffs = map(_fr, out.values())
        else:
            coeffs = [_div(v, den) for v in out.values()]
        return LaurentPoly(self.vars, dict(zip(_unpack(out, strides, lo), coeffs)),
                           _clean=False)

    __rmul__ = __mul__

    def _times_term(self, exps, c):
        """Product with the nonzero term ``c * x**exps``; ``self`` itself for 1."""
        if c == 1:
            return self.shift(exps)
        return LaurentPoly(
            self.vars,
            {tuple(map(add, e, exps)): _fr(v * c) for e, v in self.terms.items()},
            _clean=False,
        )

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("integer power required")
        if n < 0:
            if not self.is_monomial():
                raise InexactDivisionError("negative power of a non-monomial")
            (e, c), = self.terms.items()
            return LaurentPoly.monomial(self.vars, tuple(x * n for x in e), Fraction(c) ** n)
        out = LaurentPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- structure -----------------------------------------------------
    def min_exps(self):
        """Componentwise minimum exponent (0 vector for the zero poly)."""
        if not self.terms:
            return (0,) * len(self.vars)
        return self._exp_box()[0]

    def shift(self, exps):
        """Multiply by the monomial with exponent vector ``exps``."""
        if all(x == 0 for x in exps):
            return self
        return LaurentPoly(
            self.vars,
            {tuple(map(add, e, exps)): c for e, c in self.terms.items()},
            _clean=False,
        )

    def lex_lead(self):
        """(exps, coeff) of the lexicographically largest exponent vector."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def subst(self, target_vars, images):
        """Substitute ``images[v]``, a one-term LaurentPoly c_v * x**e_v in
        ``target_vars``, for each variable v; the one place where monomials
        are substituted for variables.  A term c * prod v**k maps to the one
        term c * prod c_v**k * x**(sum k * e_v), with no LaurentPoly products;
        terms with equal images add, and a zero sum drops."""
        target_vars = tuple(target_vars)
        imgs = [images[v] for v in self.vars]
        if any(img.vars != target_vars or len(img.terms) != 1 for img in imgs):
            raise ValueError(f"images must be one term in {target_vars}")
        imgs = [next(iter(img.terms.items())) for img in imgs]
        out = {}
        for exps, c in self.terms.items():
            e = (0,) * len(target_vars)
            for k, (ek, ck) in zip(exps, imgs):
                if k:
                    e = tuple([a + k * x for a, x in zip(e, ek)])
                    c = c if ck == 1 else c * Fraction(ck) ** k
            out[e] = out.get(e, 0) + c
        return LaurentPoly(target_vars, {e: _fr(c) for e, c in out.items() if c}, _clean=False)

    def eval_at(self, point):
        """Exact evaluation to a Fraction; every variable must be bound."""
        total = Fraction(0)
        vals = []
        for v in self.vars:
            if v not in point:
                raise PoleError(f"unbound variable {v!r}")
            vals.append(Fraction(point[v]))
        for e, c in self.terms.items():
            term = c
            for val, k in zip(vals, e):
                if k:
                    if val == 0 and k < 0:
                        raise PoleError("negative power of zero")
                    term *= val ** k
            total += term
        return total

    # -- display / io ----------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def to_json(self):
        return [
            {"exps": {v: k for v, k in zip(self.vars, e) if k}, "coeff": str(c)}
            for e, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, variables, data):
        """Inverse of ``to_json``; ``exps`` that is not an object, names a
        variable not in ``variables``, holds an exponent that is not a JSON
        integer or repeats an exponent vector raises ``ValueError``, and so
        does a zero coefficient.  Each term is checked here, once."""
        variables = tuple(variables)
        known = set(variables)
        terms = {}
        for mono in data:
            exps = mono["exps"]
            if not isinstance(exps, dict):
                raise ValueError(f"exponents must be an object, not {exps!r}")
            if not exps.keys() <= known:
                raise ValueError(f"unknown variables {sorted(exps.keys() - known)}")
            e = tuple(exps.get(v, 0) for v in variables)
            if any(type(x) is not int for x in e):
                raise ValueError(f"exponents must be integers, not {exps!r}")
            if e in terms:
                raise ValueError(f"repeated exponent vector {exps!r}")
            coeff = mono["coeff"]
            c = _fr(Fraction(coeff)) if "/" in coeff else int(coeff)
            if not c:
                raise ValueError(f"zero coefficient at {exps!r}")
            terms[e] = c
        return cls(variables, terms, _clean=False)


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient in the Laurent ring; raises if den does not divide num.

    A one-term divisor ``c * x**e`` always divides: the quotient is ``num``
    shifted by ``-e`` with coefficients over ``c``, and ``num`` itself when
    the divisor is 1.  Otherwise lex long division runs on keys packed over
    ``num``'s exponent box.  The minimum and the maximum exponent of each
    variable add under multiplication, so every term of an exact quotient
    lies in the box [nlo - dlo, nhi - dhi] of the two boxes' corners, and no
    remainder term ever leaves ``num``'s box.  An empty quotient box (a
    variable whose span in ``num`` is smaller than in ``den``) rules the
    division out before any long division step, and a trial quotient term
    outside the box raises ``InexactDivisionError`` at once.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPoly.zero(num.vars)
    num._check(den)
    if len(den.terms) == 1:
        (e, c), = den.terms.items()
        return num._times_term(tuple(-x for x in e), _div(1, c))
    nlo, nhi = num._exp_box()
    dlo, dhi = den._exp_box()
    qlo = tuple(map(sub, nlo, dlo))
    qhi = tuple(map(sub, nhi, dhi))
    if any(map(gt, qlo, qhi)):
        raise InexactDivisionError("inexact division")
    # keys over num's box, which holds every remainder term, so each
    # remainder update is one int addition.  The remainder is one dict,
    # updated in place at each step; a heap of its negated keys finds the
    # leading term, and an entry whose key has left the remainder is
    # skipped when it comes up
    strides = _strides(map(sub, nhi, nlo))
    nbase = sum(map(mul, nlo, strides))
    rem = dict(_pack(num.terms, strides))
    heap = [-k for k in rem]
    heapify(heap)
    d0 = _pack(den.terms, strides)
    dlead = max(den.terms)
    dlead_k, dlead_c = sum(map(mul, dlead, strides)), den.terms[dlead]
    # digit i of a leading remainder term, relative to nlo, is dlead_i plus
    # a quotient exponent in [qlo_i, qhi_i], minus nlo_i
    ranges = tuple(zip(strides, map(sub, map(add, dlead, qlo), nlo),
                       map(sub, qhi, qlo)))
    quot = {}
    while rem:
        rlead_k = -heappop(heap)
        if rlead_k not in rem:
            continue
        r = rlead_k - nbase
        for stride, low, span in ranges:
            digit, r = divmod(r, stride)
            if not 0 <= digit - low <= span:
                raise InexactDivisionError("inexact division")
        qk = rlead_k - dlead_k
        qc = _div(rem[rlead_k], dlead_c)
        quot[qk] = qc
        for k, c in d0:
            k += qk
            v = rem.get(k, 0) - c * qc
            if v:
                if k not in rem:
                    heappush(heap, -k)
                rem[k] = v
            else:
                del rem[k]
    return LaurentPoly(num.vars, dict(zip(_unpack(quot, strides, qlo), quot.values())),
                       _clean=False)


def try_exact_div(num, den):
    try:
        return exact_div(num, den)
    except InexactDivisionError:
        return None


def _univariate_coeffs(p: LaurentPoly, idx: int):
    """Dense coefficient list of a poly using only variable ``idx`` (min exp 0)."""
    deg = p._exp_box()[1][idx]
    out = [0] * (deg + 1)
    for e, c in p.terms.items():
        out[e[idx]] = c
    return out


_P = 2 ** 31 - 1  # a prime


def _mod_p(coeffs):
    """``coeffs`` reduced mod ``_P``; None when a denominator vanishes mod ``_P``."""
    out = []
    for c in coeffs:
        if type(c) is int:
            out.append(c % _P)
        else:
            d = c.denominator % _P
            if not d:
                return None
            out.append(c.numerator * pow(d, -1, _P) % _P)
    return out


def _coprime_mod_p(a, b):
    """True when a, b (nonempty, no trailing zero) have gcd 1 over Q by a
    certificate mod ``_P``: no denominator and neither leading coefficient
    vanishes mod p, and the Euclid over F_p ends at a constant.  A gcd g of
    degree >= 1 over Q, scaled primitive over the integers localized at p,
    divides a and b there (Gauss's lemma); its leading coefficient divides
    theirs, so it keeps its degree mod p and would divide the gcd over F_p.
    False proves nothing."""
    a, b = _mod_p(a), _mod_p(b)
    if a is None or b is None or not a[-1] or not b[-1]:
        return False
    while len(b) > 1:
        # a mod b, one quotient coefficient per step; the remainder's
        # entries are reduced once, when it is complete
        inv = pow(b[-1], -1, _P)
        low = b[:-1]
        for k in range(len(a) - len(b), -1, -1):
            f = a.pop() * inv % _P
            if f:
                a[k:] = map(sub, a[k:], map(f.__mul__, low))
        a = [x % _P for x in a]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _univariate_gcd(a, b):
    """Monic gcd of dense coefficient lists: ``[1]`` when ``_coprime_mod_p``
    shows it, else by Euclid over Q."""
    def norm(x):
        while x and not x[-1]:
            x.pop()
        return x

    a, b = norm(list(a)), norm(list(b))
    if a and b and _coprime_mod_p(a, b):
        return [1]
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


def _occurring(num, den):
    """Indices of the variables of nonzero ``num`` and ``den`` that occur: a
    variable occurs exactly when its min or max exponent in one of them is
    nonzero."""
    bounds = zip(*num._exp_box(), *den._exp_box())
    return [i for i, b in enumerate(bounds) if any(b)]


class RationalFunction:
    """Quotient of Laurent polynomials in canonical form.

    Canonical form: den is monomial-free (min exponent 0 per variable), its
    lexicographically leading coefficient is +1, and the shared rational
    content of num is reduced; when num and den involve a single variable,
    their univariate gcd is divided out.  Equality is decided by
    cross-multiplication, so correctness never rests on the gcd heuristic.

    Every instance is canonical: ``__init__`` normalizes and ``__neg__``
    keeps the form.  So ``other * m`` for a one-term m over 1 is
    ``other.num * m`` over ``other.den``: den keeps min exponent 0 and
    lead 1, and a gcd that would run on the product already ran on
    ``other``.  The exception is an m that leaves a single variable where
    ``other`` had more, so that no gcd ran on it; that product takes the
    general path.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        num, den = self._normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _normalize(num, den):
        """Canonical (num, den) of the class docstring.

        A denominator equal to 1 is already canonical and returns at once.
        The univariate gcd runs only on a denominator with more than one
        term after its monomial content is moved out: against a constant
        it is always 1.
        """
        if not num:
            return num, LaurentPoly.const(den.vars, 1)
        if len(den.terms) == 1:
            (e, c), = den.terms.items()
            if c == 1 and not any(e):
                return num, den
        # pure Laurent content of den moves to num
        dshift = den.min_exps()
        if any(dshift):
            den = den.shift(tuple(-x for x in dshift))
            num = num.shift(tuple(-x for x in dshift))
        # single shared effective variable: univariate gcd over Q
        evars = _occurring(num, den) if len(den.terms) > 1 else ()
        if len(evars) == 1:
            idx = evars[0]
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
                n0 = exact_div(n0, gpoly)
                den = exact_div(den, gpoly)
                num = n0.shift(nshift)
                dshift2 = den.min_exps()
                if any(dshift2):
                    den = den.shift(tuple(-x for x in dshift2))
                    num = num.shift(tuple(-x for x in dshift2))
        # rational content: den lex-leading coefficient becomes +1
        _, lead = den.lex_lead()
        if lead != 1:
            den = den * _div(1, lead)
            num = num * _div(1, lead)
        return num, den

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_laurent(cls, p: LaurentPoly):
        return cls(p, LaurentPoly.const(p.vars, 1))

    @classmethod
    def const(cls, variables, c):
        variables = tuple(variables)
        return cls(LaurentPoly.const(variables, c), LaurentPoly.const(variables, 1))

    @property
    def vars(self):
        return self.num.vars

    def __bool__(self):
        return bool(self.num.terms)

    def as_laurent(self):
        """Exact Laurent form; raises InexactDivisionError when not polynomial."""
        return exact_div(self.num, self.den)

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.vars, other)
        if isinstance(other, LaurentPoly):
            return RationalFunction.from_laurent(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return RationalFunction(a + c, b)
        q = try_exact_div(d, b)
        if q is not None:  # d = b*q
            return RationalFunction(a * q + c, d)
        q = try_exact_div(b, d)
        if q is not None:
            return RationalFunction(a + c * q, b)
        return RationalFunction(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        # a one-term factor over 1 only shifts and scales the other factor
        if a.terms and c.terms:
            if len(d.terms) == 1 and len(c.terms) == 1:
                out = self._times_term(c)
                if out is not None:
                    return out
            elif len(b.terms) == 1 and len(a.terms) == 1:
                out = other._times_term(a)
                if out is not None:
                    return out
        # cheap cross-cancellations keep central-term denominators small
        q = try_exact_div(a, d)
        if q is not None:
            a, d = q, LaurentPoly.const(a.vars, 1)
        else:
            q = try_exact_div(c, b)
            if q is not None:
                c, b = q, LaurentPoly.const(a.vars, 1)
        return RationalFunction(a * c, b * d)

    __rmul__ = __mul__

    def _times_term(self, m):
        """``self * m`` for a one-term Laurent ``m``, with no gcd and no trial
        division (see the class docstring), or None when ``m`` leaves a
        single variable where ``self`` had more."""
        num, den = self.num * m, self.den
        if len(den.terms) > 1 and any(next(iter(m.terms))):
            after = _occurring(num, den)
            if len(after) == 1 and len(_occurring(self.num, den)) > 1:
                return None
        return self._canonical(num, den)

    @staticmethod
    def _canonical(num, den):
        """The RationalFunction of a (num, den) pair already in canonical form."""
        out = RationalFunction.__new__(RationalFunction)
        out.num = num
        out.den = den
        out._hash = None
        return out

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        # the hash follows the stored (num, den), so equal functions stored
        # as different pairs may hash apart; every exact-mode cache key (the
        # units, their inverses and their products) is a monomial over 1,
        # whose stored form is unique
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def eval_at(self, point):
        d = self.den.eval_at(point)
        if d == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.eval_at(point) / d

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, variables, data):
        return cls(
            LaurentPoly.from_json(variables, data["num"]),
            LaurentPoly.from_json(variables, data["den"]),
        )
