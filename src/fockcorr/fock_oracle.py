"""Brute-force graded traces over fermionic Fock spaces.

Every operator in scope is diagonal on the occupation basis, so a trace is
an exact sum over basis states below an energy cutoff.  Every state is
enumerated, per fermion flavor (strict mode subsets), and the flavors are
merged with energy pruning.  Op i's eigenvalue on a state is C_i + x_i,
C_i its central constant and x_i the sum of the weights of the occupied
modes.  The merges key states by energy and charges only, and the states
of one key are stored as one value, of one of two kinds:

  * rational op arguments: the moment vector, mu_S = sum over the states
    of prod_{i in S} x_i for each subset S of the ops, in ints (op i's
    weights and central go over one common denominator d_i);
  * symbolic ones: the occupation-count polynomial {counts: multiplicity},
    counts per weight class, a weight class being one distinct nonzero
    tuple of per-op mode weights (found by ``==`` on each pair of entries,
    so no ring element is hashed).

One merge does all the combining: it joins the two flavors of a pair
(charges add), and after each pair's charge filter it folds the pairs
together (per-pair charge tuples concatenate); the neutral fermion joins
as one more merge.  Joining disjoint mode sets multiplies their values:
moment vectors in Z[y_1..y_k]/(y_i^2), (a b)_S = sum_{T <= S} a_T b_(S-T),
and count polynomials by adding counts.  So merges do integer work only.
A key's eigenvalue sum is sum_S mu_S prod_{i not in S} C_i, an int over
prod_i d_i, and one Fraction is built per output term; over symbolic
arguments the ring evaluates each final (energy, counts) signature once.
The moments are exact algebra over the enumerated states, not a closed
form, and nothing here comes from the closed-form modules.
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
from math import lcm, prod
from operator import add, eq, mul

from .errors import PoleError, ResourceLimitError
from .laurent import LaurentPoly, _div
from .qseries import (NS, RAMOND, QSeries, RationalRing, from16, rational_value, to16,
                      unit_pow)


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


def _mode_weights(kind, modes, ring, unit):
    """{flavor: ``op_mode_weight`` of each mode k of ``modes[flavor]`` at
    index k.numerator of a list (zero at the other indices)}, from one power
    table of ``unit``: its powers unit^(+-2k), 2k all odd (NS) or all even
    (R), each the last one times unit^(+-2)."""
    top = max((int(2 * ks[-1]) for ks in modes.values() if ks), default=0)
    sq = unit * unit
    inv_sq = ring.inv(sq)
    pows = {1: unit, -1: ring.inv(unit)} if top % 2 else {0: ring.one()}
    for j in range(top % 2 + 2, top + 1, 2):
        pows[j], pows[-j] = pows[j - 2] * sq, pows[2 - j] * inv_sq
    out = {}
    for flavor, ks in modes.items():
        weights = out[flavor] = [ring.zero()] * (ks[-1].numerator + 1 if ks else 0)
        for k in ks:
            if k:
                weights[k.numerator] = _weight(kind, flavor, pows[int(2 * k)], pows[-int(2 * k)])
    return out


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
                acc[s] += sum([a[t] * b[u] for t, u in split])
            return acc
    return mul_add


def _count_mul_add(acc, a, b):
    """acc + a b, in place, of occupation-count polynomials {counts:
    multiplicity}: the counts of two joined mode sets add."""
    for n1, m1 in a.items():
        for n2, m2 in b.items():
            n = tuple(map(add, n1, n2))
            acc[n] = acc.get(n, 0) + m1 * m2
    return acc


class _OpTable:
    """The value of a set of states under ``ops`` on a sector, its product
    ``mul_add`` and the series of keyed values (see the module docstring).

    Over rational arguments ``weights[flavor][i]`` lists op i's weight
    numerators over d_i by mode numerator (a state looks up
    ``k.numerator`` and hashes no ``Fraction``), and ``cofactors[S]`` is
    the product of the central numerators of the ops not in S.  Over
    symbolic ones ``classes`` holds the weight tuples W_j, and
    ``class_of[flavor]`` each mode's class by mode numerator (None when
    all its weights are zero)."""

    def __init__(self, spec, ops, ring):
        args = [rational_value(op.unit) for op in ops]
        self.rational = None not in args
        self.spec, self.ring = spec, ring
        wring = RationalRing() if self.rational else ring
        units = args if self.rational else [op.unit for op in ops]
        flavors = ("plus", "minus") * bool(spec.pairs) + ("neutral",) * spec.neutral
        modes = {f: _flavor_modes(spec, f) for f in flavors}
        weights = [_mode_weights(op.kind, modes, wring, u) for op, u in zip(ops, units)]
        centrals = [op_central(op.kind, spec.level, wring, u) for op, u in zip(ops, units)]
        if self.rational:
            dens = [lcm(c.denominator, *(w.denominator for ws in weights[i].values() for w in ws))
                    for i, c in enumerate(centrals)]
            self.den = prod(dens)
            self.weights = {f: [[w.numerator * (d // w.denominator) for w in ws[f]]
                                for ws, d in zip(weights, dens)] for f in flavors}
            nums = [c.numerator * (d // c.denominator) for c, d in zip(centrals, dens)]
            self.cofactors = [prod(n for i, n in enumerate(nums) if not s >> i & 1)
                              for s in range(1 << len(ops))]
            self.mul_add = _moment_mul_add(len(ops))
            return
        self.centrals, self.classes, self.class_of = centrals, [], {}
        for f in flavors:
            of = self.class_of[f] = []
            for w in zip(*(ws[f] for ws in weights)):
                j = None
                if any(w):
                    j = next((j for j, seen in enumerate(self.classes)
                              if all(map(eq, w, seen))), len(self.classes))
                    if j == len(self.classes):
                        self.classes.append(w)
                of.append(j)
        self.mul_add = _count_mul_add

    def constant(self, m):
        """The value of m copies of the empty state (of no state at m = 0),
        a new object."""
        if self.rational:
            return [m] + [0] * (len(self.cofactors) - 1)
        return {(0,) * len(self.classes): m} if m else {}

    def state(self, flavor, modes):
        """The value of the one state of ``flavor`` that occupies ``modes``."""
        if not self.rational:
            counts = [0] * len(self.classes)
            of = self.class_of[flavor]
            for k in modes:
                j = of[k.numerator]
                if j is not None:
                    counts[j] += 1
            return {tuple(counts): 1}
        nums = [k.numerator for k in modes]
        mu = [1]
        for w in self.weights[flavor]:
            x = sum([w[n] for n in nums])
            mu += [m * x for m in mu]
        return mu

    def series(self, terms):
        """The sum over ``terms``, triples (energy16, z-exponent vector,
        value), of q^energy z^exponents times the value's eigenvalue sum,
        the sum over its states of prod_i (C_i + x_i).

        Over rational arguments that sum is the int sum_S mu_S cofactors_S
        over prod_i d_i; the ints are summed per (energy, z-monomial), and
        the series takes them as they are: as its numerators over the
        rational ring, as the z-polynomials' coefficients (each divided
        once) over the others."""
        spec, ring = self.spec, self.ring
        if not self.rational:
            return QSeries.from_terms(ring, ((from16(e16) + spec.energy_shift, c)
                                             for e16, c in self._ring_terms(terms)),
                                      spec.cutoff + spec.energy_shift)
        acc = {}  # energy16 -> {z-exponent vector: numerator}
        for e16, z, mu in terms:
            poly = acc.setdefault(e16, {})
            poly[z] = poly.get(z, 0) + sum(map(mul, mu, self.cofactors))
        # every energy is below the cutoff, so below the shifted truncation
        shift = to16(spec.energy_shift)
        trunc, den = to16(spec.cutoff) + shift, self.den
        if ring.mode == "rational":
            return QSeries._from_nums(ring, {e16 + shift: poly[()] for e16, poly in acc.items()
                                             if poly[()]}, den, trunc)
        return QSeries(ring, {e16 + shift: ring.from_laurent(LaurentPoly(
            ring.vars, {z: _div(v, den) for z, v in poly.items() if v}, _clean=False))
            for e16, poly in acc.items()}, trunc)

    def _ring_terms(self, terms):
        """(energy16, coefficient) per final signature (energy, counts): its
        z-polynomial times the product of the eigenvalues
        central_i + sum_j counts_j W_j[i], in the ring."""
        ring = self.ring
        signatures = {}  # (energy16, counts) -> {z-exponent vector: multiplicity}
        for e16, z, value in terms:
            for counts, m in value.items():
                poly = signatures.setdefault((e16, counts), {})
                poly[z] = poly.get(z, 0) + m
        for (e16, counts), poly in signatures.items():
            monomials = {z: m for z, m in poly.items() if m}
            if not monomials:
                continue
            val = ring.from_laurent(LaurentPoly(ring.vars, monomials, _clean=False))
            for i, central in enumerate(self.centrals):
                ev = central
                for w, n in zip(self.classes, counts):
                    if n:
                        ev = ev + (w[i] if n == 1 else ring.from_fraction(n) * w[i])
                val = val * ev
            yield e16, val


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
                charges) entries of any one merge, whatever the kind of
                value, so a rational call and its symbolic twin raise alike.

    The states are merged and valued as the module docstring says:
    rational arguments in ints, symbolic ones in the ring once per final
    (energy, counts) signature.
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
