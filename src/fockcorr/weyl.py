"""Weyl groups of types B/C/D as signed permutations, rho vectors,
the q-polynomials sum_sigma (-1)^l(sigma) q^{||lam+rho-sigma(rho)||^2/2},
and the matching positive-root product form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .laurent import LaurentPoly
from .qseries import QSeries, RationalRing

TYPES = ("B", "C", "D")


def rho(wtype, l):
    """Half-sum of positive roots as an l-vector of Fractions."""
    if wtype == "D":
        return tuple(Fraction(l - 1 - i) for i in range(l))
    if wtype == "B":
        return tuple(Fraction(2 * (l - i) - 1, 2) for i in range(l))
    if wtype == "C":
        return tuple(Fraction(l - i) for i in range(l))
    raise ValueError(f"unknown Weyl type {wtype!r}")


@lru_cache(maxsize=None)
def elements(wtype, l):
    """All (perm, signs) pairs; perm maps positions, signs in {1,-1}^l.

    The element acts by (w v)_i = signs[i] * v[perm[i]].  Type D keeps only
    even numbers of sign flips.
    """
    if wtype not in TYPES:
        raise ValueError(f"unknown Weyl type {wtype!r}")
    out = []
    for perm in permutations(range(l)):
        for signs in product((1, -1), repeat=l):
            if wtype == "D" and signs.count(-1) % 2:
                continue
            out.append((perm, signs))
    return tuple(out)


def apply(elem, vec):
    perm, signs = elem
    return tuple(signs[i] * vec[perm[i]] for i in range(len(vec)))


def perm_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def sign_char(wtype, elem):
    """(-1)^{length}, computed as det of the signed permutation matrix."""
    perm, signs = elem
    s = perm_sign(perm)
    if wtype in ("B", "C"):
        for x in signs:
            s *= x
    return s


def positive_roots(wtype, l):
    """Positive roots as coefficient vectors on the epsilon basis."""
    roots = []
    for i in range(l):
        for j in range(i + 1, l):
            e = [0] * l
            e[i], e[j] = 1, -1
            roots.append(tuple(e))
            e2 = [0] * l
            e2[i], e2[j] = 1, 1
            roots.append(tuple(e2))
    if wtype == "B":
        for i in range(l):
            e = [0] * l
            e[i] = 1
            roots.append(tuple(e))
    elif wtype == "C":
        for i in range(l):
            e = [0] * l
            e[i] = 2
            roots.append(tuple(e))
    return roots


def _check_dominant(wtype, lam):
    lam = tuple(Fraction(x) for x in lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"weight {lam} is not dominant (not weakly decreasing)")
    if lam and lam[-1] < 0:
        raise ValueError(f"weight {lam} is not dominant for type {wtype}")
    return lam


@lru_cache(maxsize=None)
def _rho_orbit(wtype, l):
    """(sign, 2 sigma(rho)) for every group element sigma, in ints."""
    r2 = tuple(int(2 * x) for x in rho(wtype, l))
    return tuple((sign_char(wtype, elem), apply(elem, r2)) for elem in elements(wtype, l))


def weyl_sum(lam, wtype, l, order):
    """The records (sign, qexp, kvec), kvec = lam+rho-sigma(rho), of the group
    elements sigma with qexp = ||kvec||^2/2 < order; lam is half-integral.
    The exponents are compared in ints, as 8 qexp = ||2 kvec||^2."""
    lam = _check_dominant(wtype, lam)
    if len(lam) != l:
        raise ValueError("weight length must equal the rank")
    top = [2 * (a + r) for a, r in zip(lam, rho(wtype, l))]
    if any(x.denominator != 1 for x in top):
        raise ValueError(f"weight {lam} is not half-integral")
    top = [int(x) for x in top]
    bound = 8 * Fraction(order)
    out = []
    for sign, sr2 in _rho_orbit(wtype, l):
        k2 = [a - b for a, b in zip(top, sr2)]
        norm = sum(x * x for x in k2)
        if norm < bound:
            out.append((sign, Fraction(norm, 8), tuple(Fraction(x, 2) for x in k2)))
    return out


def weyl_qpoly(lam, wtype, l, order):
    """sum_sigma (-1)^l(sigma) q^{||lam+rho-sigma(rho)||^2/2} as a rational QSeries."""
    return QSeries.from_terms(
        RationalRing(),
        [(qexp, Fraction(sign)) for sign, qexp, _ in weyl_sum(lam, wtype, l, order)],
        order)


def weyl_sum_product_form(lam, wtype, l, order):
    """q^{||lam||^2/2} * prod_{alpha>0} (1 - q^{(lam+rho,alpha)})."""
    lam = _check_dominant(wtype, lam)
    ring = RationalRing()
    r = rho(wtype, l)
    out = QSeries.one(ring, order)
    for alpha in positive_roots(wtype, l):
        e = sum((lam[i] + r[i]) * alpha[i] for i in range(l))
        out = out * (QSeries.one(ring, order) - QSeries.monomial(ring, e, Fraction(1), order))
    shift = sum(x * x for x in lam) / 2
    return out.shift(shift)


def weyl_denominator_poly(wtype, l, variables):
    """sum_sigma (-1)^l(sigma) z^{sigma(rho)} as a Laurent polynomial in
    ``variables``, one per coordinate.

    Type D uses integer z-exponents; type B has half-integer rho, so there
    the variables are square roots w_j with z_j = w_j^2.
    """
    if wtype not in ("B", "D"):
        raise ValueError("denominator helper covers types B and D")
    terms = {}
    for sign, sr2 in _rho_orbit(wtype, l):
        exps = tuple(x // 2 for x in sr2) if wtype == "D" else sr2
        terms[exps] = terms.get(exps, 0) + sign
    return LaurentPoly(variables, terms)
