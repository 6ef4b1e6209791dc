"""Determinant-ratio characters of the classical groups appearing in the
Howe dualities, as exact Laurent polynomials.

Families and their diagonal-torus variables:

  SO2l, O2l     z_1..z_l, integer exponents
  Sp2l          z_1..z_l, integer exponents
  B2l1          O(2l+1)/Spin(2l+1): half-integer exponents, variables w_j
                with z_j = w_j^2
  Pin2l         half-integer weights, same w_j convention

Characters are cached per (family, weight, l); the duality checks reuse each
one across every lambda-term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combinat import ModuleLabel
from .errors import LabelError
from .laurent import LaurentPoly, exact_div

FAMILIES = ("SO2l", "O2l", "B2l1", "Sp2l", "Pin2l")


def det_laurent(rows, zero):
    """Determinant of a square matrix by cofactor expansion along the first
    row, skipping zero entries; ``zero`` is the zero of the entries' type
    (a ``LaurentPoly`` or a ``QSeries``), where the running total starts."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 1:
        return rows[0][0]
    total = zero
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * det_laurent(minor, zero)
        total = total + (term if j % 2 == 0 else -term)
    return total


def torus_vars(family, l):
    if family in ("B2l1", "Pin2l"):
        return tuple(f"w{j + 1}" for j in range(l))
    return tuple(f"z{j + 1}" for j in range(l))


def _weight_rows(family, weights, l, variables, kind):
    """Matrix entries z_j^{a_i} +/- z_j^{-a_i} for the given exponent list."""
    rows = []
    for i in range(l):
        a = weights[i]
        row = []
        for j in range(l):
            if family in ("B2l1", "Pin2l"):
                e = int(2 * a)  # w_j = z_j^{1/2}
            else:
                e = int(a)
            plus = LaurentPoly.var(variables, variables[j], e)
            minus = LaurentPoly.var(variables, variables[j], -e)
            row.append(plus + minus if kind == "+" else plus - minus)
        rows.append(row)
    return rows


def _num_exponents(family, weight, l):
    w = tuple(Fraction(x) for x in weight)
    if family in ("SO2l", "O2l", "Pin2l"):
        return tuple(w[i] + l - i - 1 for i in range(l))
    if family == "B2l1":
        return tuple(w[i] + l - i - 1 + Fraction(1, 2) for i in range(l))
    if family == "Sp2l":
        return tuple(w[i] + l - i for i in range(l))
    raise ValueError(f"unknown family {family!r}")


def _den_exponents(family, l):
    return _num_exponents(family, (0,) * l, l)


def _det_kind(family):
    return "-" if family in ("B2l1", "Sp2l") else "+"


@lru_cache(maxsize=None)
def numerator_det(family, weight, l, kind=None):
    """Expanded numerator determinant |z_j^{w_i + rho_i} +/- z_j^{-(w_i + rho_i)}|."""
    variables = torus_vars(family, l)
    kind = kind or _det_kind(family)
    rows = _weight_rows(family, _num_exponents(family, weight, l), l, variables, kind)
    return det_laurent(rows, LaurentPoly.zero(variables))


@lru_cache(maxsize=None)
def denominator_det(family, l, kind=None):
    variables = torus_vars(family, l)
    kind = kind or _det_kind(family)
    rows = _weight_rows(family, _den_exponents(family, l), l, variables, kind)
    return det_laurent(rows, LaurentPoly.zero(variables))


@lru_cache(maxsize=None)
def _character_cached(family, weight, l, lam_last_zero):
    num = numerator_det(family, weight, l)
    den = denominator_det(family, l)
    if family == "O2l":
        ch = exact_div(num, den)
        return ch if lam_last_zero else ch * 2
    if family == "SO2l":
        num2 = numerator_det(family, weight, l, kind="-")
        return exact_div(num + num2, den)
    if family == "Pin2l":
        return exact_div(num, den) * 2
    return exact_div(num, den)


def character(family, label: ModuleLabel) -> LaurentPoly:
    """The classical-group character attached to a module label.

    The det twist does not change the value on the diagonal torus used here,
    so folded labels share the plain character.
    """
    if family not in FAMILIES:
        raise LabelError(f"unknown family {family!r}")
    if family in ("O2l", "SO2l", "Sp2l") and label.spin:
        raise LabelError(f"{family} takes non-spin labels")
    if family == "Pin2l" and not label.spin:
        raise LabelError("Pin2l takes spin labels")
    lam_last_zero = (not label.lam) or label.lam[-1] == 0
    return _character_cached(family, label.weight(), label.rank(), lam_last_zero)


def dominant_coefficient(family, label: ModuleLabel) -> int:
    """Coefficient of z^{lambda+rho} in the numerator determinant."""
    l = label.rank()
    w = label.weight()
    num = numerator_det(family, w, l)
    exps = _num_exponents(family, w, l)
    if family in ("B2l1", "Pin2l"):
        key = tuple(int(2 * a) for a in exps)
    else:
        key = tuple(int(a) for a in exps)
    c = num.terms.get(key, Fraction(0))
    assert c.denominator == 1
    return int(c)
