"""Partitions, label sets, Frobenius coordinates, and highest-weight maps.

Trailing zeros of a partition are significant: a label living in P^l carries
its declared length l, which the weight maps and the det-partner rules
depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import LabelError
from .qseries import NS, RAMOND


@dataclass(frozen=True)
class Partition:
    parts: tuple

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in partition: {parts}")
        object.__setattr__(self, "parts", parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    @property
    def size(self):
        return sum(self.parts)

    @property
    def norm2(self):
        return sum(p * p for p in self.parts)

    def nonzero(self):
        return tuple(p for p in self.parts if p)

    def conjugate(self):
        nz = self.nonzero()
        if not nz:
            return Partition(())
        return Partition(tuple(sum(1 for p in nz if p > i) for i in range(nz[0])))

    def rank(self):
        """Durfee rank #{i : lambda_i >= i+1... (1-indexed: lambda_i >= i)}."""
        return sum(1 for i, p in enumerate(self.parts, start=1) if p >= i)

    def is_symmetric(self):
        return self.nonzero() == self.conjugate().parts


@dataclass(frozen=True)
class FrobeniusCoords:
    """Strictly decreasing positive half-integer arm/leg coordinates."""
    p: tuple
    q: tuple

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise ValueError("arm and leg lists must have equal length")
        for seq in (self.p, self.q):
            for x in seq:
                if Fraction(x) <= 0 or (Fraction(x) - Fraction(1, 2)).denominator != 1:
                    raise ValueError(f"coordinate {x} is not a positive half-integer")
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("coordinates must strictly decrease")


def frobenius(lam: Partition) -> FrobeniusCoords:
    """Half-integer Frobenius coordinates p_k = lam_k - k + 1/2, q_k from the conjugate."""
    r = lam.rank()
    conj = lam.conjugate()
    p = tuple(Fraction(2 * (lam.parts[k] - (k + 1)) + 1, 2) for k in range(r))
    q = tuple(Fraction(2 * (conj.parts[k] - (k + 1)) + 1, 2) for k in range(r))
    return FrobeniusCoords(p, q)


def from_frobenius(fc: FrobeniusCoords) -> Partition:
    """Rebuild the partition from its half-integer Frobenius coordinates."""
    r = len(fc.p)
    arms = [int(Fraction(x) + Fraction(1, 2)) for x in fc.p]   # lam_k - k + 1
    legs = [int(Fraction(x) + Fraction(1, 2)) for x in fc.q]
    rows = [arms[k] + k for k in range(r)]                      # lam_k for k < r
    # rows below the Durfee square come from the conjugate legs
    cols = [legs[k] + k for k in range(r)]
    extra = []
    for i in count(r):
        v = sum(1 for k in range(r) if cols[k] > i)
        if v == 0:
            break
        extra.append(v)
    return Partition(tuple(rows) + tuple(extra))


def sym_to_osp(lam: Partition) -> tuple:
    """Symmetric partition -> strict partition with odd parts (diagonal hooks)."""
    if not lam.is_symmetric():
        raise ValueError(f"{lam.parts} is not symmetric")
    return tuple(2 * lam.parts[i] - 2 * i - 1 for i in range(lam.rank()))


def osp_to_sym(mu) -> Partition:
    """Inverse of sym_to_osp."""
    mu = tuple(mu)
    if any(m % 2 == 0 or m <= 0 for m in mu) or any(
        mu[i] <= mu[i + 1] for i in range(len(mu) - 1)
    ):
        raise ValueError(f"{mu} is not a strict partition with odd parts")
    r = len(mu)
    fc = FrobeniusCoords(
        tuple(Fraction(m, 2) for m in mu), tuple(Fraction(m, 2) for m in mu)
    )
    part = from_frobenius(fc)
    assert part.rank() == r
    return part


def partitions(n, max_part=None):
    """All partitions of n with parts bounded by max_part, as tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partitions_up_to(total):
    """All partitions of size <= total."""
    for n in range(total + 1):
        yield from partitions(n)


def odd_strict_partitions(total):
    """All strict partitions with odd parts and size <= total."""
    def rec(remaining, max_odd):
        yield ()
        m = min(max_odd, remaining)
        if m % 2 == 0:
            m -= 1
        for first in range(m, 0, -2):
            for rest in rec(remaining - first, first - 2):
                yield (first,) + rest

    return list(rec(total, total))


ALGEBRAS = ("a", "b", "c", "d")

# the Fock sector of each algebra's fermions: R for b (Pin(2l), Spin(2l+1)), NS otherwise
SECTOR = {"a": NS, "b": RAMOND, "c": NS, "d": NS}


@dataclass(frozen=True)
class ModuleLabel:
    """An element of Sigma(A)/Sigma(B)/Sigma(C)/Sigma(D)/Sigma(Pin).

    lam holds the integer vector (m_1 >= ... >= m_l).  Algebra b labels are
    the Sigma(Pin) labels, so their highest weight is lam + (1/2,...,1/2).
    det marks the determinant-twisted partner where the label set admits
    one.  It is validated here and keys the corr cache, but ``npoint`` and
    ``qdim`` do not read it: a label and its partner get the same Weyl-sum
    function, the one a plain label stands for when summed over both.
    """

    algebra: str
    level: Fraction
    lam: tuple
    det: bool = False

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise LabelError(f"unknown algebra {self.algebra!r}")
        object.__setattr__(self, "level", Fraction(self.level))
        object.__setattr__(self, "lam", tuple(int(m) for m in self.lam))
        if any(self.lam[i] < self.lam[i + 1] for i in range(len(self.lam) - 1)):
            raise LabelError(f"label parts not weakly decreasing: {self.lam}")
        half = self.level.denominator == 2
        if self.level <= 0 or self.level.denominator not in (1, 2):
            raise LabelError(f"level must be a positive (half-)integer: {self.level}")
        l = self.rank()
        if len(self.lam) != l:
            raise LabelError(f"label {self.lam} must have exactly {l} entries")
        if self.algebra == "a":
            if half or self.det:
                raise LabelError("type A labels are integer-level, untwisted")
            return
        if any(m < 0 for m in self.lam):
            raise LabelError(f"negative part in {self.algebra}-label: {self.lam}")
        if self.algebra == "b":
            if self.det:
                raise LabelError("Sigma(Pin) has no det twist")
        elif self.algebra == "c":
            if half:
                raise LabelError("c_infinity has integer levels only")
            if self.det:
                raise LabelError("Sigma(C) has no det twist")
        elif self.det and not half and self.lam and self.lam[-1] != 0:
            raise LabelError("Sigma(D) label with lam_l > 0 has no det partner")

    def rank(self):
        """Number of label entries l (level rounded down)."""
        return int(self.level)

    def weyl_type(self):
        """The Weyl type whose rho shifts the weight: C for algebra c, B at a
        half-integer level, D otherwise (Sigma(D) and Sigma(Pin))."""
        if self.algebra == "a":
            raise LabelError("type A labels have no B/C/D Weyl type")
        return "C" if self.algebra == "c" else "B" if self.level.denominator == 2 else "D"

    def weight(self):
        """Highest-weight vector as Fractions (b labels add the 1/2 shift)."""
        shift = Fraction(1, 2) if self.algebra == "b" else Fraction(0)
        return tuple(Fraction(m) + shift for m in self.lam)

    def norm2(self):
        w = self.weight()
        return sum(x * x for x in w)


def enumerate_labels(algebra, level, bound):
    """All plain (untwisted) labels whose correlator can contribute below
    q^bound; each stands for itself and its det partner, if it has one.

    Soundness: every Weyl-sum term of a correlator has leading exponent
    >= ||weight||^2 / 2, so labels with ||weight||^2 / 2 >= bound are
    invisible below the bound.
    """
    level = Fraction(level)
    bound = Fraction(bound)
    l = int(level)
    shift = Fraction(1, 2) if algebra == "b" else Fraction(0)
    out = []
    # largest possible first part: (m + shift)^2/2 < bound
    cap = 0
    while (cap + 1 + shift) ** 2 / 2 < bound:
        cap += 1
    for size in range(0, l * cap + 1):
        for p in partitions(size, max_part=cap):
            if len(p) > l:
                continue
            lam = tuple(p) + (0,) * (l - len(p))
            lab = ModuleLabel(algebra, level, lam)
            if lab.norm2() / 2 < bound:
                out.append(lab)
    out.sort(key=lambda L: (L.norm2(), L.lam))
    return out


def fundamental_weight_label(label: ModuleLabel):
    """Multiplicities {i: m} of the fundamental weights Lambda_i for the label.

    Convention for the i/j indices when no part equals 1: both count the
    nonzero parts (recorded as a convention, not a stated fact).
    """
    m = label.lam
    l = label.rank()
    half = label.level.denominator == 2
    out = {}

    def bump(i, k):
        if k:
            out[i] = out.get(i, 0) + k

    if label.algebra == "a":
        for mk in m:
            bump(mk, 1)
        return out
    if label.algebra == "c":
        j = sum(1 for x in m if x)
        bump(0, l - j)
        for k in range(j):
            bump(m[k], 1)
        return out
    if label.algebra == "b":
        j = sum(1 for x in m if x)
        n0 = (2 * l - 2 * j) if not half else (2 * l + 1 - 2 * j)
        bump(0, n0)
        for k in range(j):
            bump(m[k], 1)
        return out
    # type d: integer level uses Sigma(D), half level uses Sigma(B)
    i = sum(1 for x in m if x > 1)
    j = sum(1 for x in m if x >= 1)
    c0 = (2 * l - i - j) if not half else (2 * l + 1 - i - j)
    c1 = j - i
    if label.det:
        c0, c1 = c1, c0
    bump(0, c0)
    bump(1, c1)
    for k in range(i):
        bump(m[k], 1)
    return out
