"""Weyl groups of types B/C/D as signed permutations, rho vectors,
Weyl's dimension formula, the q-polynomials
sum_sigma (-1)^l(sigma) q^{||lam+rho-sigma(rho)||^2/2}, and the matching
positive-root product form.

No group is listed or cached: one depth-first walk of the signed
permutations, ``_orbit``, gives the int vectors top - sigma(2 rho), with
top = 2(lam+rho) and pruned at the order for the Weyl sums, and with top = 0
in full for the Weyl denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .laurent import LaurentPoly
from .qseries import QSeries, RationalRing


def rho(wtype, l):
    """Half-sum of positive roots as an l-vector of Fractions."""
    if wtype == "D":
        return tuple(Fraction(l - 1 - i) for i in range(l))
    if wtype == "B":
        return tuple(Fraction(2 * (l - i) - 1, 2) for i in range(l))
    if wtype == "C":
        return tuple(Fraction(l - i) for i in range(l))
    raise ValueError(f"unknown Weyl type {wtype!r}")


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


def dimension(wtype, weight, l):
    """Weyl's dimension formula: the product over the positive roots alpha
    of <weight + rho, alpha> / <rho, alpha>, as a Fraction."""
    r = rho(wtype, l)
    top = [Fraction(w) + x for w, x in zip(weight, r)]
    num = den = 1
    for alpha in positive_roots(wtype, l):
        num *= sum(a * x for a, x in zip(alpha, top))
        den *= sum(a * x for a, x in zip(alpha, r))
    return Fraction(num, den)


def _check_dominant(wtype, lam):
    lam = tuple(Fraction(x) for x in lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"weight {lam} is not dominant (not weakly decreasing)")
    if lam and lam[-1] < 0:
        raise ValueError(f"weight {lam} is not dominant for type {wtype}")
    return lam


def _orbit(wtype, l, top, bound=None):
    """(sign, top - sigma(2 rho)) in ints for the group elements sigma, whose
    signed permutations act by (sigma v)_i = signs[i] v[perm[i]]; the sign is
    (-1)^l(sigma), the determinant.  Depth first over the positions, picking
    (perm[i], signs[i]) with the inversion parity and the squared norm so far;
    a branch ends once its norm reaches ``bound``, as every square is >= 0.
    Type D has an even number of flips, so its last sign follows from the
    others.  The records come in the order of (perm, signs), +1 before -1.
    """
    r2 = [int(2 * x) for x in rho(wtype, l)]
    leaves = []

    def walk(i, free, perm, flips, odd, sign, norm, vec):
        if i == l:
            leaves.append((perm, flips, sign, vec))
            return
        for pos, j in enumerate(free):
            rest = free[:pos] + free[pos + 1:]
            # j lands before the pos smaller indices still unused: pos inversions
            psign = -sign if pos % 2 else sign
            for flip in (odd,) if wtype == "D" and i == l - 1 else (0, 1):
                x = top[i] + r2[j] if flip else top[i] - r2[j]
                n = norm + x * x
                if bound is None or n < bound:
                    walk(i + 1, rest, perm + (j,), flips + (flip,), odd ^ flip,
                         -psign if flip else psign, n, vec + (x,))

    walk(0, tuple(range(l)), (), (), 0, 1, 0, ())
    leaves.sort()
    return [(sign, vec) for _, _, sign, vec in leaves]


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
    return [(sign, Fraction(sum(x * x for x in k2), 8), tuple(Fraction(x, 2) for x in k2))
            for sign, k2 in _orbit(wtype, l, top, ceil(8 * Fraction(order)))]


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
    for sign, k2 in _orbit(wtype, l, (0,) * l):
        exps = tuple(-x // 2 for x in k2) if wtype == "D" else tuple(-x for x in k2)
        terms[exps] = terms.get(exps, 0) + sign
    return LaurentPoly(variables, terms)
