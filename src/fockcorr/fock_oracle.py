"""Brute-force graded traces over fermionic Fock spaces.

Every operator in scope is diagonal on the occupation basis, so a trace is
an exact sum over basis states below an energy cutoff.  Every state is
enumerated, per fermion flavor (strict mode subsets), and the flavors are
merged with energy pruning.  Op i's eigenvalue on a state is C_i + x_i,
C_i its central constant and x_i the sum of the weights of the occupied
modes, all numerators built from the op's unit written as a/b: ints at a
rational argument, the unit's Laurent form over 1 at a symbolic one.  The
merges key states by energy and charges, and the states of one key are
stored as their moment vector, mu_S = sum over the states of
prod_{i in S} x_i for each subset S of the ops.

One merge does all the combining: it joins the two flavors of a pair
(charges add), and after each pair's charge filter it folds the pairs
together (per-pair charge tuples concatenate); the neutral fermion joins
as one more merge.  Joining disjoint mode sets multiplies moment vectors
in Z[y_1..y_k]/(y_i^2), (a b)_S = sum_{T <= S} a_T b_(S-T), on ints or
Laurent polynomials, never on ring elements.  A key's eigenvalue sum is
sum_S mu_S prod_{i not in S} C_i, a numerator over prod_i d_i, and the
series divides once per output term.  The moments are exact algebra over
the enumerated states, not a closed form, and nothing here comes from the
closed-form modules.
``charge_sectors`` splits the merged keys of one pair by charge, so all
its charge sectors come from one enumeration, and the tau-refined trace
values its tau-fixed states the same way.

Conventions (NS = modes in 1/2+Z, R = modes in Z):
  * NS charged pair: psi^{+-} creators at k in 1/2+Z_+, charge +-1 each.
  * R charged pair: psi^+ creators at k >= 1, psi^- creators at k >= 0
    (the k = 0 one is the zero mode), charge +-1; e_11 = C + 1/2.
  * neutral NS: creators at k in 1/2+Z_+; neutral R: creators at k >= 1
    plus a zero-occupation bit.
  * energy = sum of creator mode indices, plus 1/8 per R pair and 1/16 per
    R neutral fermion; zero modes are energy-free; a graded trace weighs a
    charge c by z^c in NS and by w^(2c), w = z^{1/2}, in R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul

from .errors import InexactDivisionError, NonUnitError, PoleError, ResourceLimitError
from .laurent import LaurentPoly, _div
from .qseries import NS, RAMOND, QSeries, rational_value, to16, unit_pow


@dataclass(frozen=True)
class SectorSpec:
    pairs: int
    neutral: int
    sector: str
    cutoff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cutoff", Fraction(self.cutoff))
        if self.sector not in (NS, RAMOND):
            raise ValueError(f"sector must be {NS!r} or {RAMOND!r}")
        if self.neutral not in (0, 1):
            raise ValueError("neutral must be 0 or 1")
        if self.pairs < 0:
            raise ValueError("pairs must be >= 0")

    @property
    def level(self):
        return Fraction(self.pairs) + Fraction(self.neutral, 2)

    @property
    def energy_shift(self):
        if self.sector == NS:
            return Fraction(0)
        return Fraction(self.pairs, 8) + Fraction(self.neutral, 16)

    @property
    def charge_shift(self):
        """A state's e_pp eigenvalue minus its raw charge (psi^+ count minus
        psi^- count)."""
        return Fraction(1, 2) if self.sector == RAMOND else Fraction(0)


@dataclass(frozen=True)
class OpSpec:
    """A diagonal observable insertion X(t); ``unit`` is the square root of t."""
    kind: str  # "A" | "D" | "C" | "B"
    unit: object

    def __post_init__(self):
        if self.kind not in ("A", "D", "C", "B"):
            raise ValueError(f"unknown operator kind {self.kind!r}")


@dataclass(frozen=True)
class FockState:
    """Occupied creator modes per flavor; psi_minus includes R zero modes."""
    psi_plus: tuple    # per pair: tuple of mode Fractions
    psi_minus: tuple
    neutral: tuple     # tuple of mode Fractions (with 0 for the R zero bit)
    energy: Fraction   # includes the sector shift
    charges: tuple     # e_pp eigenvalues per pair (Fractions)


def _flavor_modes(spec: SectorSpec, flavor):
    """Mode list (ascending) for 'plus'/'minus'/'neutral' under the cutoff."""
    out = []
    cutoff = spec.cutoff
    if spec.sector == NS:
        k = Fraction(1, 2)
    else:
        if flavor == "minus":
            k = Fraction(0)
        elif flavor == "plus":
            k = Fraction(1)
        else:
            out.append(Fraction(0))  # neutral zero-occupation bit
            k = Fraction(1)
    while k < cutoff:
        out.append(k)
        k += 1
    return out


def _weight(kind, flavor, up, down):
    """The weight of an occupied mode k from up = unit^(2k), down = unit^(-2k)."""
    if kind == "A":
        if flavor == "plus":
            return up
        if flavor == "minus":
            return -down
        raise ValueError("A(t) does not act on the neutral fermion")
    # D, C, B all weight occupied modes by t^k - t^{-k}
    return up - down


def op_mode_weight(kind, flavor, k, ring, unit):
    """Eigenvalue contribution of one occupied creator mode."""
    if k == 0:
        return ring.zero()
    two_k = int(2 * Fraction(k))
    return _weight(kind, flavor, unit_pow(ring, unit, two_k), unit_pow(ring, unit, -two_k))


def op_central(kind, level, ring, unit):
    """The central constant: level-scaled 1/(t^{1/2}-t^{-1/2}) or (t+1)/(t-1)."""
    if kind in ("A", "D", "C"):
        den = unit - ring.inv(unit)
        if not den:
            raise PoleError("operator argument t = 1")
        scale = level if kind == "A" else 2 * level
        return ring.from_fraction(scale) * ring.inv(den)
    num = unit_pow(ring, unit, 2) + ring.one()
    den = unit_pow(ring, unit, 2) - ring.one()
    if not den:
        raise PoleError("operator argument t = 1")
    return ring.from_fraction(level) * (num * ring.inv(den))


def _check_ops(spec: SectorSpec, ops):
    for op in ops:
        if op.kind in ("A", "D", "C") and spec.sector != NS:
            raise ValueError(f"{op.kind}(t) is an NS-sector operator")
        if op.kind == "B" and spec.sector != RAMOND:
            raise ValueError("B(t) is an R-sector operator")
        if op.kind == "A" and spec.neutral:
            raise ValueError("A(t) does not act on the neutral fermion")


def _flavor_signature_states(spec, flavor, max_states, counter):
    """All mode subsets of one flavor: list of (energy16, charge, modes)."""
    modes = _flavor_modes(spec, flavor)
    cutoff16 = to16(spec.cutoff)
    energies = [to16(k) if k != 0 else 0 for k in modes]
    chg = 1 if flavor == "plus" else (-1 if flavor == "minus" else 0)
    out = []

    def rec(i, e, chosen):
        counter[0] += 1
        if max_states is not None and counter[0] > max_states:
            raise ResourceLimitError(
                f"state budget {max_states} exceeded during enumeration")
        out.append((e, chg * len(chosen), tuple(chosen)))
        for j in range(i, len(modes)):
            e2 = e + energies[j]
            if e2 >= cutoff16:
                if energies[j] > 0:
                    break
                continue
            rec(j + 1, e2, chosen + [modes[j]])

    rec(0, 0, [])
    return out


def _moment_mul_add(k):
    """The map acc -> acc + a b, in place, of moment vectors over k ops, in
    Z[y_1..y_k]/(y_i^2): entry S of a b is sum over the subsets T of S of
    a_T b_(S-T).  The merges spend most of their time here, so for one and
    two ops, the usual counts, the sums are written out."""
    if k == 1:
        def mul_add(acc, a, b):
            a0, a1 = a
            b0, b1 = b
            acc[0] += a0 * b0
            acc[1] += a0 * b1 + a1 * b0
            return acc
    elif k == 2:
        def mul_add(acc, a, b):
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            acc[0] += a0 * b0
            acc[1] += a0 * b1 + a1 * b0
            acc[2] += a0 * b2 + a2 * b0
            acc[3] += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
            return acc
    else:
        splits = [[(t, s ^ t) for t in range(s + 1) if t & s == t] for s in range(1 << k)]

        def mul_add(acc, a, b):
            for s, split in enumerate(splits):
                acc[s] = sum([a[t] * b[u] for t, u in split], acc[s])
            return acc
    return mul_add


def _quotient(ring, op):
    """(a, b) with ``op.unit`` = a/b: coprime ints, b > 0, at a rational
    unit, else the unit's Laurent form over 1."""
    value = rational_value(op.unit)
    if value is not None:
        return value.numerator, value.denominator
    try:
        return ring.to_laurent(op.unit), 1
    except InexactDivisionError:
        raise ValueError(f"{op.kind}(t) takes a Laurent polynomial unit, "
                         f"not {op.unit!r}") from None


class _OpTable:
    """The moment vectors of sets of states under ``ops`` on a sector, their
    product ``mul_add`` and the series of keyed moment vectors.

    Op i's unit is a/b (``_quotient``).  With T the largest 2k of a mode, g
    the level's denominator and P(m) = a^(T+m) b^(T-m), as in
    ``fock_sums._factors``, a mode k weighs P(2k) - P(-2k) over a^T b^T
    under D, C and B (A: P(2k) on psi^+, -P(-2k) on psi^-).  The central
    is g level (a^2 + b^2) a^T b^T under B, g level a^(T+1) b^(T+1) under
    A and twice that under D and C, over d_i = g (a^2 - b^2) a^T b^T; so
    over prod_i d_i the term of mu_S is mu_S ``cofactors[S]``, the product
    of g (a^2 - b^2) over the ops in S and the central numerators of the
    others.  ``weights[flavor][i]`` lists op i's weights by mode numerator
    (no ``Fraction`` is hashed).  Every argument error (a pole, a zero or
    non-Laurent unit, a d with no inverse in the ring) raises here, before
    any state is enumerated."""

    def __init__(self, spec, ops, ring):
        self.spec, self.ring = spec, ring
        flavors = ("plus", "minus") * bool(spec.pairs) + ("neutral",) * spec.neutral
        modes = {f: _flavor_modes(spec, f) for f in flavors}
        top = max((int(2 * ks[-1]) for ks in modes.values() if ks), default=0)
        quotients = [_quotient(ring, op) for op in ops]
        self.laurent = any(isinstance(a, LaurentPoly) for a, _ in quotients)
        zero = self.zero = LaurentPoly.zero(ring.vars) if self.laurent else 0
        g, glevel = spec.level.denominator, spec.level.numerator  # glevel = g * level
        self.weights = {f: [] for f in flavors}
        self.den, scales, centrals = 1, [], []
        for op, (a, b) in zip(ops, quotients):
            if not a:
                raise NonUnitError("zero is not invertible")
            apow, bpow = [1], [1]
            for _ in range(max(2 * top, top + 2)):
                apow.append(apow[-1] * a)
                bpow.append(bpow[-1] * b)
            if not apow[2] - bpow[2]:
                raise PoleError("operator argument t = 1")
            scales.append(g * (apow[2] - bpow[2]))
            self.den *= scales[-1] * apow[top] * bpow[top]
            if op.kind == "B":
                centrals.append(glevel * (apow[top + 2] * bpow[top] + apow[top] * bpow[top + 2]))
            else:
                centrals.append((1 if op.kind == "A" else 2) * glevel
                                * apow[top + 1] * bpow[top + 1])
            for f, ks in modes.items():
                weights = [zero] * (ks[-1].numerator + 1 if ks else 0)
                for k in ks:
                    if k:
                        j = int(2 * k)
                        weights[k.numerator] = _weight(
                            op.kind, f, apow[top + j] * bpow[top - j],
                            apow[top - j] * bpow[top + j])
                self.weights[f].append(weights)
        if self.laurent:
            self.inv_den = ring.inv(ring.from_laurent(self.den))
        self.cofactors = [prod((scales if s >> i & 1 else centrals)[i]
                               for i in range(len(ops))) for s in range(1 << len(ops))]
        self.mul_add = _moment_mul_add(len(ops))

    def constant(self, m):
        """The value of m copies of the empty state (of no state at m = 0),
        a new object."""
        return [m] + [self.zero] * (len(self.cofactors) - 1)

    def state(self, flavor, modes):
        """The value of the one state of ``flavor`` that occupies ``modes``."""
        nums = [k.numerator for k in modes]
        mu = [1]
        for w in self.weights[flavor]:
            x = sum([w[n] for n in nums], self.zero)
            mu += [m * x for m in mu]
        return mu

    def series(self, terms):
        """The sum over ``terms``, triples (energy16, z-exponent vector,
        value), of q^energy z^exponents times the value's eigenvalue sum,
        the sum over its states of prod_i (C_i + x_i): the numerator
        sum_S mu_S cofactors_S over prod_i d_i, summed per (energy,
        z-monomial) and divided once per output term, by ``_from_nums`` (or
        per z-coefficient) when it is an int, by one ring product per
        energy when it is a Laurent polynomial."""
        spec, ring, zero = self.spec, self.ring, self.zero
        acc = {}  # energy16 -> {z-exponent vector: numerator}
        for e16, z, mu in terms:
            poly = acc.setdefault(e16, {})
            poly[z] = sum(map(mul, mu, self.cofactors), poly.get(z, zero))
        # every energy is below the cutoff, so below the shifted truncation
        shift = to16(spec.energy_shift)
        trunc, den = to16(spec.cutoff) + shift, self.den
        if self.laurent:
            nums = {e16 + shift: sum([n.shift(z) for z, n in poly.items()], zero)
                    for e16, poly in acc.items()}
            return QSeries(ring, {e: ring.from_laurent(n) * self.inv_den
                                  for e, n in nums.items() if n}, trunc, _clean=False)
        if ring.mode == "rational":
            sign = 1 if den > 0 else -1
            return QSeries._from_nums(ring, {e16 + shift: sign * poly[()]
                                             for e16, poly in acc.items() if poly[()]},
                                      sign * den, trunc)
        return QSeries(ring, {e16 + shift: ring.from_laurent(LaurentPoly(
            ring.vars, {z: _div(v, den) for z, v in poly.items() if v}, _clean=False))
            for e16, poly in acc.items()}, trunc)


def enumerate_states(spec: SectorSpec, max_states=None):
    """Every basis state with unshifted energy < cutoff, exactly once."""
    counter = [0]
    groups = []
    for p in range(spec.pairs):
        groups.append(("plus", p))
        groups.append(("minus", p))
    if spec.neutral:
        groups.append(("neutral", None))
    cutoff16 = to16(spec.cutoff)
    lists = [
        _flavor_signature_states(spec, flavor, max_states, counter)
        for flavor, _ in groups
    ]

    def rec(g, e, plus, minus, neut):
        if g == len(groups):
            charges = tuple(Fraction(len(plus[p]) - len(minus[p])) + spec.charge_shift
                            for p in range(spec.pairs))
            yield FockState(
                psi_plus=tuple(plus), psi_minus=tuple(minus),
                neutral=neut, energy=Fraction(e, 16) + spec.energy_shift,
                charges=charges,
            )
            return
        flavor, _ = groups[g]
        for e1, _, chosen in lists[g]:
            if e + e1 >= cutoff16:
                continue
            if flavor == "plus":
                yield from rec(g + 1, e + e1, plus + [chosen], minus, neut)
            elif flavor == "minus":
                yield from rec(g + 1, e + e1, plus, minus + [chosen], neut)
            else:
                yield from rec(g + 1, e + e1, plus, minus, chosen)

    yield from rec(0, 0, [], [], ())


def trace(spec: SectorSpec, ops, ring, *, zvars=None,
          charge=None, max_states=None) -> QSeries:
    """Exact graded trace  tr q^{L_0} prod_p z_p^{e_pp} prod_i X_i(t_i).

    ops: sequence of OpSpec (units live in ``ring``).
    zvars: per-pair grading variable names (None entries skip grading):
           z_p in NS, and in R its square root w_p, the charges there
           being half-integral (z^{e_pp} = w^{2 e_pp}).
    charge: per-pair e_pp filter (Fraction or None per pair), or a single
            value when pairs == 1; an entry off the sector's charge lattice
            (Z in NS, 1/2 + Z in R) is a ValueError.
    max_states: budget on the states enumerated and on the (energy,
                charges) entries of any one merge, so a rational call and
                its symbolic twin raise alike.

    The states are merged as moment vectors of numerators, as the module
    docstring says, and each output term is divided once.  A symbolic
    unit must be a Laurent polynomial (a ValueError names the op
    otherwise).
    """
    ops = tuple(ops)
    _check_ops(spec, ops)
    if charge is not None and not isinstance(charge, (tuple, list)):
        charge = (Fraction(charge),)
    if charge is not None and len(charge) != spec.pairs:
        raise ValueError("one charge filter entry per pair required")
    for c in charge or ():
        if c is not None and (Fraction(c) - spec.charge_shift).denominator != 1:
            lattice = "Z" if spec.sector == NS else "1/2 + Z"
            raise ValueError(f"charge filter {c} is off the charge lattice "
                             f"{lattice} of sector {spec.sector}")
    if zvars is not None and len(zvars) != spec.pairs:
        raise ValueError("one z-variable entry per pair required")
    return _trace(spec, _OpTable(spec, ops, ring), zvars, charge, max_states)


def charge_sectors(spec: SectorSpec, ops, ring):
    """{e_pp charge k: T_k} for a one-pair ``spec``, T_k being the z-free
    series ``trace(spec, ops, ring, charge=k)``, all from one enumeration
    and merge; a charge with no state below the cutoff has no entry.  The
    z-graded trace is sum_k T_k z^k."""
    ops = tuple(ops)
    _check_ops(spec, ops)
    if spec.pairs != 1:
        raise ValueError("charge sectors are taken over one pair")
    table = _OpTable(spec, ops, ring)
    zero = (0,) * len(ring.vars)
    by_charge = {}  # raw charge -> [(energy16, z-exponents, value)]
    for (e, (c,)), value in _signatures(spec, table, (True,), None, None).items():
        by_charge.setdefault(c, []).append((e, zero, value))
    return {c + spec.charge_shift: table.series(terms)
            for c, terms in sorted(by_charge.items())}


def _trace(spec, table, zvars, charge, max_states):
    """``trace`` on the values of ``table``, arguments checked."""
    ring = table.ring
    graded = [zvars is not None and zvars[p] is not None for p in range(spec.pairs)]
    zindex = [ring.vars.index(zvars[p]) for p in range(spec.pairs) if graded[p]]
    # the exponent of raw charge c: c in NS, 2 (c + 1/2) of w in R
    scale, shift = (1, 0) if spec.sector == NS else (2, 1)

    def exponents(cs):
        """The exponent vector of prod_p z_p^{scale * c_p + shift}."""
        exps = [0] * len(ring.vars)
        for idx, c in zip(zindex, cs):
            exps[idx] += scale * c + shift
        return tuple(exps)

    joined = _signatures(spec, table, graded, charge, max_states)
    zexps = {cs: exponents(cs) for _, cs in joined}
    return table.series((e, zexps[cs], value) for (e, cs), value in joined.items())


def _signatures(spec, table, graded, charge, max_states):
    """The states of ``spec`` below the cutoff, merged by energy and
    charges: {(energy16, raw charges of the ``graded`` pairs): value},
    each pair kept only at its ``charge`` filter entry (None keeps all)."""
    cutoff16 = to16(spec.cutoff)
    counter = [0]
    mul_add, constant = table.mul_add, table.constant
    one = constant(1)

    # under a merge energies and charges add, so per-pair charge tuples
    # concatenate, and values multiply
    def merge(a, b):
        out = {}
        inner = sorted(b.items())  # by energy: keys are unique
        for (e1, c1), v1 in a.items():
            for (e2, c2), v2 in inner:
                e = e1 + e2
                if e >= cutoff16:
                    break
                key = (e, c1 + c2)
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = constant(0)
                    if max_states is not None and len(out) > max_states:
                        raise ResourceLimitError(
                            f"state budget {max_states} exceeded during merge")
                mul_add(acc, v1, v2)
        return out

    def put(out, key, value):
        mul_add(out.setdefault(key, constant(0)), value, one)

    def flavor_dict(flavor):
        out = {}
        for e, c, chosen in _flavor_signature_states(spec, flavor, max_states, counter):
            put(out, (e, c), table.state(flavor, chosen))
        return out

    # every pair has the same states; only the charge filter differs
    pair_states = merge(flavor_dict("plus"), flavor_dict("minus")) if spec.pairs else {}
    parts = []  # per pair, then the neutral fermion
    for p in range(spec.pairs):
        # the raw charge c of a state is its e_pp eigenvalue minus the shift
        want = (None if charge is None or charge[p] is None
                else Fraction(charge[p]) - spec.charge_shift)
        kept = {}
        for (e, c), value in pair_states.items():
            if want is None or c == want:
                put(kept, (e, (c,) if graded[p] else ()), value)
        parts.append(kept)
    if spec.neutral:
        parts.append({(e, ()): value for (e, _), value in flavor_dict("neutral").items()})

    joined = {(0, ()): one}
    for states in parts:
        joined = merge(joined, states)
    return joined


def eigenvalue(op: OpSpec, state: FockState, spec: SectorSpec, ring):
    """Full diagonal eigenvalue (normal-ordered part + central constant)."""
    _check_ops(spec, (op,))
    total = op_central(op.kind, spec.level, ring, op.unit)
    for p in range(spec.pairs):
        for k in state.psi_plus[p]:
            total = total + op_mode_weight(op.kind, "plus", k, ring, op.unit)
        for k in state.psi_minus[p]:
            total = total + op_mode_weight(op.kind, "minus", k, ring, op.unit)
    for k in state.neutral:
        total = total + op_mode_weight(op.kind, "neutral", k, ring, op.unit)
    return total


# ---------------------------------------------------------------------------
# the tau-refined charge-zero trace (one NS pair)
# ---------------------------------------------------------------------------

def reorder_sign(ops_list):
    """Sign from anticommuting a list of distinct creators into canonical
    order (psi^- block then psi^+ block, modes ascending within a block)."""
    keyed = [( {"minus": 0, "plus": 1}[fl], k) for fl, k in ops_list]
    inversions = 0
    for i in range(len(keyed)):
        for j in range(i + 1, len(keyed)):
            if keyed[i] > keyed[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def tau_refined_trace(ops, cutoff, ring):
    """(tr over the tau=+1 part, tr over the tau=-1 part) of the charge-zero
    sector of one NS pair, with the diagonal insertions ``ops``.

    tau swaps psi^+_n <-> psi^-_n; on a basis monomial it yields +- another
    basis monomial, the sign coming from the mechanical fermionic reordering.
    So tr tau sums over the states occupying one mode set S in both flavors,
    each signed by ``reorder_sign``; those states are keyed by their energy
    (2 * energy of S), each valued as the product of its two flavors'
    states, and evaluated as ``trace`` does.
    """
    spec = SectorSpec(1, 0, NS, cutoff)
    ops = tuple(ops)
    _check_ops(spec, ops)
    table = _OpTable(spec, ops, ring)
    tr = _trace(spec, table, None, (0,), None)
    cutoff16 = to16(spec.cutoff)
    twisted = {}  # energy16 -> value, each state signed
    for e, _, chosen in _flavor_signature_states(spec, "minus", None, [0]):
        if 2 * e >= cutoff16:
            continue
        word = [("plus", k) for k in chosen] + [("minus", k) for k in chosen]
        value = table.mul_add(table.constant(0), table.state("plus", chosen),
                              table.state("minus", chosen))
        table.mul_add(twisted.setdefault(2 * e, table.constant(0)), value,
                      table.constant(reorder_sign(word)))
    zero = (0,) * len(ring.vars)
    trtau = table.series((e, zero, value) for e, value in twisted.items())
    return (tr + trtau) * Fraction(1, 2), (tr - trtau) * Fraction(1, 2)
