"""Brute-force graded traces over fermionic Fock spaces.

Every operator in scope is diagonal on the occupation basis, so a trace is
an exact sum over basis states below an energy cutoff.  Every state is
enumerated, per fermion flavor (strict mode subsets), and the flavors are
merged with energy pruning.  A state is keyed by its signature: its energy
and its occupation count per weight class, a weight class being one
distinct nonzero tuple of per-op mode weights (found by ``==`` on each
pair of entries, so no ring element is hashed).  Each signature carries its
charges as an integer polynomial {charge: multiplicity}.  One merge does all
the combining, adding count tuples and multiplying charge polynomials: it
joins the two flavors of a pair (charges add), and after each pair's
charge filter it folds the pairs together (per-pair charge tuples
concatenate).  The neutral fermion joins as one more merge.  So merges do
integer work only.  ``charge_sectors`` splits the merged signatures of one
pair by charge, so all its charge sectors come from one enumeration.  When
every op argument is a rational number, the weights and centrals are
Fractions over one common denominator per op, and each final signature's
eigenvalue product is evaluated and summed in plain ints, with one Fraction
per output term; symbolic arguments touch the ring once per final
signature.  The tau-refined trace evaluates its tau-fixed states by the
same signatures, on the same weight classes and centrals.

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
from operator import add, eq, mul

from .errors import PoleError, ResourceLimitError
from .laurent import LaurentPoly, _div, _numerators
from .qseries import NS, RAMOND, QSeries, RationalRing, from16, to16, unit_pow


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


def op_mode_weight(kind, flavor, k, ring, unit):
    """Eigenvalue contribution of one occupied creator mode."""
    if k == 0:
        return ring.zero()
    two_k = int(2 * Fraction(k))
    if kind == "A":
        if flavor == "plus":
            return unit_pow(ring, unit, two_k)
        if flavor == "minus":
            return -unit_pow(ring, unit, -two_k)
        raise ValueError("A(t) does not act on the neutral fermion")
    # D, C, B all weight occupied modes by t^k - t^{-k}
    return unit_pow(ring, unit, two_k) - unit_pow(ring, unit, -two_k)


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


def _rational_arg(unit):
    """``unit`` as a Fraction when it is a rational number (a
    ``RationalRing`` value or a constant ``LaurentPoly``), else None."""
    if isinstance(unit, (int, Fraction)):
        return Fraction(unit)
    if isinstance(unit, LaurentPoly):
        zero = (0,) * len(unit.vars)
        if unit.terms.keys() == {zero}:
            return Fraction(unit.terms[zero])
    return None


class _OpTable:
    """The weight classes and central constants of ``ops`` on a sector, and
    the evaluation of signatures.

    ``classes`` holds the distinct nonzero weight tuples W_j, and
    ``class_of`` the class j of each (flavor, mode) whose weights are not
    all zero; classes are told apart by ``==`` on each pair of entries.
    When every op argument is a rational number, the weights and centrals
    are Fractions and ``series`` works in plain ints; otherwise they are
    elements of ``ring`` and so is its work.
    """

    def __init__(self, spec, ops, ring):
        args = [_rational_arg(op.unit) for op in ops]
        self.rational = None not in args
        wring = ring
        if self.rational:
            ops, wring = [OpSpec(op.kind, a) for op, a in zip(ops, args)], RationalRing()
        self.spec, self.ring = spec, ring
        self.classes = []
        self.class_of = {}  # (flavor, mode) -> j
        for flavor in ("plus", "minus") * bool(spec.pairs) + ("neutral",) * spec.neutral:
            for k in _flavor_modes(spec, flavor):
                w = tuple(op_mode_weight(op.kind, flavor, k, wring, op.unit) for op in ops)
                if not any(w):
                    continue
                j = next((j for j, seen in enumerate(self.classes)
                          if all(map(eq, w, seen))), len(self.classes))
                if j == len(self.classes):
                    self.classes.append(w)
                self.class_of[flavor, k] = j
        self.centrals = [op_central(op.kind, spec.level, wring, op.unit) for op in ops]
        if self.rational:
            self.scaled = []  # per op: (d_i * central_i, [d_i * W_j[i]])
            self.den = 1  # prod_i d_i
            for i, central in enumerate(self.centrals):
                pairs, d = _numerators(list(enumerate([central] + [w[i] for w in self.classes])))
                self.scaled.append((pairs[0][1], [n for _, n in pairs[1:]]))
                self.den *= d

    def counts(self, creators):
        """The occupation count per weight class of the (flavor, mode)
        ``creators``."""
        counts = [0] * len(self.classes)
        for creator in creators:
            j = self.class_of.get(creator)
            if j is not None:
                counts[j] += 1
        return tuple(counts)

    def series(self, signatures):
        """The sum over ``signatures``, pairs ((energy16, counts), {z-exponent
        vector: multiplicity}), of the z-polynomial times q^energy times the
        eigenvalue of each op i on that signature:
        central_i + sum_j counts_j * W_j[i].

        Over rational arguments, op i's central and weights go over one
        common denominator d_i, the product of the integer eigenvalue
        numerators is summed per (energy, z-monomial) in ints, and the
        series takes them as they are, over prod_i d_i: as its numerators
        over the rational ring, as the z-polynomials' coefficients (each
        divided once) over the others."""
        spec = self.spec
        if self.rational:
            return self._integer_series(signatures)
        return QSeries.from_terms(self.ring, ((from16(e16) + spec.energy_shift, c)
                                              for e16, c in self._ring_terms(signatures)),
                                  spec.cutoff + spec.energy_shift)

    def _ring_terms(self, signatures):
        ring = self.ring
        for (e16, counts), monomials in signatures:
            val = ring.from_laurent(LaurentPoly(ring.vars, monomials, _clean=False))
            for i, central in enumerate(self.centrals):
                ev = central
                for w, n in zip(self.classes, counts):
                    if n:
                        ev = ev + (w[i] if n == 1 else ring.from_fraction(n) * w[i])
                val = val * ev
            yield e16, val

    def _integer_series(self, signatures):
        ring, scaled, den = self.ring, self.scaled, self.den
        acc = {}  # energy16 -> {z-exponent vector: numerator}
        for (e16, counts), monomials in signatures:
            ev = 1
            for central, weights in scaled:
                ev *= central + sum(map(mul, counts, weights))
            poly = acc.setdefault(e16, {})
            for z, m in monomials.items():
                poly[z] = poly.get(z, 0) + m * ev
        # every energy is below the cutoff, so below the shifted truncation
        shift = to16(self.spec.energy_shift)
        trunc = to16(self.spec.cutoff) + shift
        if ring.mode == "rational":
            return QSeries._from_nums(ring, {e16 + shift: poly[()] for e16, poly in acc.items()
                                             if poly[()]}, den, trunc)
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
            value when pairs == 1.
    max_states: budget on the states enumerated and on the (energy, counts,
                charge) entries of any one merge.

    The merges see only signatures (energy, occupation count per weight
    class) and integer charge polynomials; see the module docstring.  Op i
    has the eigenvalue central_i + sum_j count_j * W_j[i] on a signature,
    W_j being the weights of class j, and the product of the eigenvalues
    multiplies the charge polynomial, read as sum m * z^charge.
    With rational op arguments the products are evaluated and summed in
    ints, over one common denominator per op; with symbolic ones the ring
    is used once per final signature.
    """
    ops = tuple(ops)
    _check_ops(spec, ops)
    if charge is not None and not isinstance(charge, (tuple, list)):
        charge = (Fraction(charge),)
    if charge is not None and len(charge) != spec.pairs:
        raise ValueError("one charge filter entry per pair required")
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
    by_charge = {}  # raw charge -> signatures
    for sig, poly in _signatures(spec, table, (True,), None, None).items():
        for (c,), m in poly.items():
            by_charge.setdefault(c, []).append((sig, {zero: m}))
    return {c + spec.charge_shift: table.series(sigs)
            for c, sigs in sorted(by_charge.items())}


def _trace(spec, table, zvars, charge, max_states):
    """``trace`` on the weight classes of ``table``, arguments checked."""
    ring = table.ring
    graded = [zvars is not None and zvars[p] is not None for p in range(spec.pairs)]
    joined = _signatures(spec, table, graded, charge, max_states)
    zindex = [ring.vars.index(zvars[p]) for p in range(spec.pairs) if graded[p]]
    # the exponent of raw charge c: c in NS, 2 (c + 1/2) of w in R
    scale, shift = (1, 0) if spec.sector == NS else (2, 1)

    def monomials(poly):
        """{exponent vector: m} of sum m * prod_p z_p^{scale * c_p + shift}."""
        out = {}
        for cs, m in poly.items():
            exps = [0] * len(ring.vars)
            for idx, c in zip(zindex, cs):
                exps[idx] += scale * c + shift
            exps = tuple(exps)
            out[exps] = out.get(exps, 0) + m
        return out

    return table.series((sig, monomials(poly)) for sig, poly in joined.items())


def _signatures(spec, table, graded, charge, max_states):
    """The states of ``spec`` below the cutoff, merged by signature:
    {(energy16, counts): {raw charges of the ``graded`` pairs: multiplicity}},
    each pair kept only at its ``charge`` filter entry (None keeps all)."""
    cutoff16 = to16(spec.cutoff)
    counter = [0]

    # (energy16, counts) -> {charge: multiplicity}; under a merge counts and
    # charges add, so per-pair charge tuples concatenate
    def merge(a, b):
        out = {}
        size = 0
        for (e1, n1), p1 in a.items():
            for (e2, n2), p2 in b.items():
                e = e1 + e2
                if e >= cutoff16:
                    continue
                key = (e, tuple(map(add, n1, n2)))
                poly = out.get(key)
                if poly is None:
                    poly = out[key] = {}
                for c1, m1 in p1.items():
                    for c2, m2 in p2.items():
                        c = c1 + c2
                        if c not in poly:
                            size += 1
                            if max_states is not None and size > max_states:
                                raise ResourceLimitError(
                                    f"state budget {max_states} exceeded during merge")
                        poly[c] = poly.get(c, 0) + m1 * m2
        return out

    def flavor_dict(flavor):
        d = {}
        for e, c, chosen in _flavor_signature_states(spec, flavor, max_states, counter):
            poly = d.setdefault((e, table.counts((flavor, k) for k in chosen)), {})
            poly[c] = poly.get(c, 0) + 1
        return d

    # every pair has the same states; only the charge filter differs
    pair_states = merge(flavor_dict("plus"), flavor_dict("minus")) if spec.pairs else {}
    parts = []  # per pair, then the neutral fermion
    for p in range(spec.pairs):
        # the raw charge c of a state is its e_pp eigenvalue minus the shift
        want = (None if charge is None or charge[p] is None
                else Fraction(charge[p]) - spec.charge_shift)
        keyed = {}
        for sig, poly in pair_states.items():
            for c, m in poly.items():
                if want is None or c == want:
                    kept = keyed.setdefault(sig, {})
                    key = (c,) if graded[p] else ()
                    kept[key] = kept.get(key, 0) + m
        parts.append(keyed)
    if spec.neutral:
        parts.append({sig: {(): sum(poly.values())}
                      for sig, poly in flavor_dict("neutral").items()})

    joined = {(0, (0,) * len(table.classes)): {(): 1}}
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
    each signed by ``reorder_sign``; those states are keyed by their
    signature (2 * energy of S, counts) and evaluated as ``trace`` does.
    """
    spec = SectorSpec(1, 0, NS, cutoff)
    ops = tuple(ops)
    _check_ops(spec, ops)
    table = _OpTable(spec, ops, ring)
    tr = _trace(spec, table, None, (0,), None)
    cutoff16 = to16(spec.cutoff)
    twisted = {}  # (energy16, counts) -> sum of reordering signs
    for e, _, chosen in _flavor_signature_states(spec, "minus", None, [0]):
        if 2 * e >= cutoff16:
            continue
        word = [("plus", k) for k in chosen] + [("minus", k) for k in chosen]
        key = (2 * e, table.counts(word))
        twisted[key] = twisted.get(key, 0) + reorder_sign(word)
    zero = (0,) * len(ring.vars)
    trtau = table.series((sig, {zero: m}) for sig, m in twisted.items() if m)
    return (tr + trtau) * Fraction(1, 2), (tr - trtau) * Fraction(1, 2)
