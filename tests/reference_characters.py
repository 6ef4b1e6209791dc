"""Determinant-ratio characters of the classical groups appearing in the
Howe dualities, as exact Laurent polynomials: the test-side reference for
``characters.dimension`` (their values at z = 1) and for the dominant
coefficients the Howe checks rely on.

Each is the numerator determinant of ``characters.numerator_det`` divided
exactly by the denominator determinant.  SO2l, the identity component of
O2l, is not a family of ``characters.FAMILIES``; it reads O2l's torus
variables and determinants.  Characters are cached per (family, weight, l).
"""

from fractions import Fraction
from functools import lru_cache

from fockcorr.characters import (FAMILIES, denominator_det, dominant_exponents,
                                 numerator_det)
from fockcorr.combinat import ModuleLabel
from fockcorr.errors import LabelError
from fockcorr.laurent import LaurentPoly, exact_div


@lru_cache(maxsize=None)
def _character_cached(family, weight, l, lam_last_zero):
    dets = "O2l" if family == "SO2l" else family
    num = numerator_det(dets, weight, l)
    if family == "SO2l":
        num = num + numerator_det(dets, weight, l, kind="-")
    ch = exact_div(num, denominator_det(dets, l))
    # with no zero exponent the + ratio is half the O(2l) or Pin(2l) character
    return ch * 2 if family == "Pin2l" or (family == "O2l" and not lam_last_zero) else ch


def character(family, label: ModuleLabel) -> LaurentPoly:
    """The classical-group character attached to a module label.

    The det twist does not change the value on the diagonal torus used here,
    so a label and its det partner share one character.  Pin2l takes the
    algebra b (spin) labels; O2l, SO2l and Sp2l take the others.
    """
    if family not in FAMILIES and family != "SO2l":
        raise LabelError(f"unknown family {family!r}")
    if family in ("O2l", "SO2l", "Sp2l") and label.algebra == "b":
        raise LabelError(f"{family} takes non-spin labels")
    if family == "Pin2l" and label.algebra != "b":
        raise LabelError("Pin2l takes spin labels")
    lam_last_zero = (not label.lam) or label.lam[-1] == 0
    return _character_cached(family, label.weight(), label.rank(), lam_last_zero)


def dominant_coefficient(family, label: ModuleLabel) -> int:
    """Coefficient of z^{lambda+rho} in the numerator determinant."""
    l = label.rank()
    w = label.weight()
    c = numerator_det(family, w, l).terms.get(dominant_exponents(family, w, l), Fraction(0))
    assert c.denominator == 1
    return int(c)
