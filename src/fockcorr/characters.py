"""The classical groups of the Howe dualities: their torus variables, the
determinants of their Weyl character formula, and the dimensions of their
modules.

Each family has the Weyl type of its rho (``weyl.rho``) and the scale of
its torus exponents (``FAMILIES``):

  O2l           type D; z_1..z_l, integer exponents
  Sp2l          type C; z_1..z_l, integer exponents
  B2l1          O(2l+1)/Spin(2l+1), type B: half-integer exponents, so the
                variables are w_j with z_j = w_j^2 (scale 2)
  Pin2l         type D with half-integer weights, same w_j convention

The Howe checks and the Weyl denominator identities read the determinants,
qdim-consistency the dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combinat import ModuleLabel
from .laurent import LaurentPoly
from .weyl import dimension as weyl_dimension, rho

# family: (Weyl type of its rho, 2 if its torus variables are the w_j, else 1)
FAMILIES = {
    "O2l": ("D", 1),
    "B2l1": ("B", 2),
    "Sp2l": ("C", 1),
    "Pin2l": ("D", 2),
}


def dimension(family, label: ModuleLabel):
    """The dimension of ``label``'s module of ``family``, its character at
    z = 1: the Weyl dimension of its weight, doubled where the module
    restricts to two of the identity component, for Pin2l always and for
    O2l when lambda_l != 0."""
    dim = weyl_dimension(FAMILIES[family][0], label.weight(), label.rank())
    return 2 * dim if family == "Pin2l" or (family == "O2l" and label.lam[-1]) else dim


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
        if not entry:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = entry * det_laurent(minor, zero)
        total = total + (term if j % 2 == 0 else -term)
    return total


def torus_vars(family, l):
    prefix = "w" if FAMILIES[family][1] == 2 else "z"
    return tuple(f"{prefix}{j + 1}" for j in range(l))


def dominant_exponents(family, weight, l):
    """The exponents of z^{weight + rho}, the dominant monomial of the
    numerator determinant, as ints: of w_j = z_j^{1/2} for B2l1 and Pin2l.
    At weight 0 they are rho's, the denominator determinant's."""
    wtype, scale = FAMILIES[family]
    return tuple(int(scale * (Fraction(w) + r)) for w, r in zip(weight, rho(wtype, l)))


def _weight_rows(exponents, variables, kind):
    """Matrix entries z_j^{a_i} +/- z_j^{-a_i} for the integer exponents a."""
    sign = 1 if kind == "+" else -1
    return [[LaurentPoly.var(variables, z, a) + LaurentPoly.var(variables, z, -a, sign)
             for z in variables] for a in exponents]


def det_kind(family):
    """The sign in the determinant entries z^a +/- z^-a of ``family``."""
    return "+" if FAMILIES[family][0] == "D" else "-"


@lru_cache(maxsize=None)
def numerator_det(family, weight, l, kind=None):
    """Expanded numerator determinant |z_j^{w_i + rho_i} +/- z_j^{-(w_i + rho_i)}|."""
    variables = torus_vars(family, l)
    kind = kind or det_kind(family)
    rows = _weight_rows(dominant_exponents(family, weight, l), variables, kind)
    return det_laurent(rows, LaurentPoly.zero(variables))


def denominator_det(family, l, kind=None):
    return numerator_det(family, (0,) * l, l, kind)
