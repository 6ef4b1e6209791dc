"""Bloch-Okounkov's n-point kernel and the level-1/2 bases as sums over
Fock states, in evaluation mode.

Bloch and Okounkov define their kernel as a sum over partitions,

    F_bo(q; t) = sum_lambda q^|lambda| prod_i phi_lambda(s_i),
    phi_lambda(s) = 1/(s - 1/s) + sum_{k <= l(lambda)} (s^(2(lambda_k - k) + 1) - s^(1 - 2k)),

with t = s^2; the theta determinant of ``correlators.f_bo`` is their closed
formula for it.  The level-1/2 base of a sector is a trace over the strict
partitions mu of the sector's positive modes (1/2 + Z in NS, Z in R),

    q^e sum_mu q^|mu| prod_i (c(s_i) + sum_{m in mu} (s_i^(2m) - s_i^(-2m))),

with c(s) = 1/(s - 1/s) in NS and (t + 1)/(2(t - 1)) in R, where the zero
mode adds its two states, and e the sector's vacuum energy.

At s = a/b every factor is an int numerator over one denominator per
(s, order): with M the largest |m| of a power s^m and
P[m] = (a^2 - b^2) a^(M+m) b^(M-m), 1/(s - 1/s) is a^(M+1) b^(M+1) and s^m
is P[m] over D = (a^2 - b^2) a^M b^M (the R constant goes over 2D).  A
state's numerator is its parent's (the state less its last part) plus two
P entries, and a sum over n points costs n - 1 int products per state;
the result is one ``QSeries._from_nums`` over the product of the D's.

The sums are finite at every s but 0 and +-1, while the theta formula has
poles where a signed product of two or more of the s_i is +-1;
``check_poles`` raises the theta route's ``PoleError`` there, so both
routes accept the same points.  ``fock_route`` decides which route runs.
This module and ``fock_oracle`` enumerate the same states and import
neither each other nor the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, prod

from .errors import PoleError
from .qseries import QSeries, RationalRing, to16


def fock_route(ring, n, order):
    """Whether the eps sums and the level-1/2 bases of n points run as Fock
    sums: over ``RationalRing`` at n >= 3 and 1 <= order <= 4n + 4.

    The Fock sums cost the number of states below the order (p(order)
    partitions, fewer strict ones) times n per sign vector, the theta
    route about 3^n series products.  Cold single calls, in ms (CPython
    3.11, shared 2-core x86-64 host), theta route / Fock sums:

        n, order   eps sum (k = 0)    NS base
        1, 12        1.1 / 0.7          2.2 / 2.9
        2, 12        1.3 / 0.6          2.9 / 1.5
        2, 20        2.0 / 4.8          5.1 / 8.1
        3, 12        4.2 / 1.0          8.8 / 1.6
        3, 16        5.6 / 2.7         11.0 / 3.6
        3, 20        6.7 / 7.8         15.5 / 8.2
        4, 12       16.2 / 1.8         25.9 / 1.6
        4, 20       26.1 / 14.8        52.9 / 7.8
        4, 24       36.5 / 41.9        73.7 / 18.3
        5, 28      212.5 / 278.1      426.2 / 34.5
        6, 24      830.9 / 223.2     1205.4 / 16.0
        8, 8        5283 / 14.9        5355 / 1.9

    The eps sums cross at about order 4n + 7, the bases later, so the
    bound leaves a margin.  At n <= 2 the theta route costs little and
    is what ``graded-A`` and the Howe checks compare with the oracle, and
    the exact and Laurent rings keep it, since their bytes follow the
    order of operations.  The rule starts at order 1: at order 1/16 the
    R recursion's truncation drifts below order - 1/16 (a zero series
    reports its truncation as its order), which the Fock sum does not
    reproduce, and below order 1 both routes cost little."""
    return isinstance(ring, RationalRing) and n >= 3 and 1 <= order <= 4 * n + 4


@lru_cache(maxsize=None)
def check_poles(units):
    """Raise the theta route's ``PoleError`` when a product of the s_i^(+-1)
    over two or more of the ``units`` (or one unit +-1) is +-1, a vanishing
    leading term of the theta route.  Each signed product is held as the
    pair (numerator, denominator) of its absolute value, unreduced, so the
    test is one int comparison."""
    pairs = [(1, 1)]  # the empty product
    for u in units:
        a, b = abs(u.numerator), u.denominator
        new = [(x * a, y * b) for x, y in pairs] + [(x * b, y * a) for x, y in pairs]
        if any(x == y for x, y in new):
            raise PoleError("theta argument t = 1 (vanishing leading term)")
        pairs += new


def _states(rows):
    """The states of ``rows`` as (M, exponents, parents, plus, minus).

    Each row is (q-exponent in sixteenths, parent row, plus power, minus
    power): a state is its parent with one more part, whose finite part
    gains s^plus - s^minus; the first row is the empty state, and a parent
    comes before its children.  A power m is stored as its index m + M in
    the power table, M the largest |m|."""
    top = max((max(abs(p), abs(m)) for _, _, p, m in rows[1:]), default=0)
    exps, parents, plus, minus = zip(*rows)
    return (top, exps, parents[1:], tuple(p + top for p in plus[1:]),
            tuple(m + top for m in minus[1:]))


@lru_cache(maxsize=None)
def _partition_states(order):
    """The states of F_bo below q^order: the partitions lambda with
    |lambda| < order.  A part lambda_k (the k-th largest) adds
    s^(2(lambda_k - k) + 1) - s^(1 - 2k) to phi_lambda."""
    most = ceil(order) - 1
    rows = [(0, -1, 0, 0)]

    def walk(j, size, k, last):
        for part in range(1, min(last, most - size) + 1):
            rows.append((to16(size + part), j, 2 * (part - k) + 1, 1 - 2 * k))
            walk(len(rows) - 1, size + part, k + 1, part)

    walk(0, 0, 1, most)
    return _states(rows)


@lru_cache(maxsize=None)
def _strict_states(trunc, energy, first):
    """The states of a level-1/2 base below q^trunc: the strict partitions
    mu with parts in ``first`` + Z>=0, at q^(energy + |mu|).  A part m adds
    s^(2m) - s^(-2m)."""
    rows = [(to16(energy), -1, 0, 0)]

    def walk(j, size, m):
        while energy + size + m < trunc:
            rows.append((to16(energy + size + m), j, int(2 * m), -int(2 * m)))
            walk(len(rows) - 1, size + m, m + 1)
            m += 1

    walk(0, Fraction(0), Fraction(first))
    return _states(rows)


@lru_cache(maxsize=None)
def _factors(states, unit, zero_mode):
    """(D, numerators) of the one-point factor of each of ``states`` at s =
    ``unit``: the constant 1/(s - 1/s), or (t + 1)/(2(t - 1)) with a
    ``zero_mode``, plus the state's finite part, each part's two powers
    added to its parent's numerator."""
    top, _, parents, plus, minus = states
    a, b = unit.numerator, unit.denominator
    apow, bpow = [1], [1]
    for _ in range(2 * top + 1):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    d = (a * a - b * b) * (2 if zero_mode else 1)
    pw = [d * apow[i] * bpow[2 * top - i] for i in range(2 * top + 1)]
    if zero_mode:
        nums = [(a * a + b * b) * apow[top] * bpow[top]]
    else:
        nums = [apow[top + 1] * bpow[top + 1]]
    for j, p, m in zip(parents, plus, minus):
        nums.append(nums[j] + pw[p] - pw[m])
    return pw[top], nums


def _state_sum(states, units, zero_mode, trunc):
    """sum over ``states`` of q^e prod_i (factor at units[i]), below
    q^trunc (sixteenths)."""
    tables = [_factors(states, u, zero_mode) for u in units]
    den = prod(t[0] for t in tables)
    sign = 1 if den > 0 else -1
    nums = {}
    for e, row in zip(states[1], zip(*(t[1] for t in tables))):
        nums[e] = nums.get(e, 0) + prod(row)
    nums = {e: sign * v for e, v in nums.items() if v}
    return QSeries._from_nums(RationalRing(), nums, abs(den), trunc)


@lru_cache(maxsize=None)
def f_bo_sum(units, order):
    """F_bo(q; t) at t = units^2 below q^order, as the partition sum."""
    order = Fraction(order)
    return _state_sum(_partition_states(order), units, False, to16(order))


@lru_cache(maxsize=None)
def base_sum(units, order, energy, first):
    """The level-1/2 base of the sector with vacuum energy ``energy`` and
    first positive mode ``first`` at t = units^2, as the strict-partition
    sum; it stops where the theta route's does: at the order in NS, and
    in R (n >= 1) 1/16 below it."""
    order, energy = Fraction(order), Fraction(energy)
    trunc = order - energy
    zero_mode = Fraction(first).denominator == 1
    return _state_sum(_strict_states(trunc, energy, first), units, zero_mode, to16(trunc))
