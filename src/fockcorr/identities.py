"""Verification registry: every named identity, each computed by two
independent routes and compared coefficient-exactly.

Each runner returns a Report; `run(identity_id, **params)` dispatches by id
and `REGISTRY` lists ids with their default parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import correlators as corr
from .combinat import (Partition, enumerate_labels,
                       odd_strict_partitions, partitions_up_to)
from .characters import character, denominator_det, numerator_det, torus_vars
from .errors import FockcorrError
from .fock_oracle import NS, RAMOND, OpSpec, SectorSpec, tau_refined_trace, trace
from .qseries import (LaurentRing, QSeries, RatFuncRing, RationalRing,
                      lattice_sum, lift_coeff, pochhammer)
from .weyl import weyl_denominator_poly, weyl_qpoly, weyl_sum_product_form


@dataclass
class Report:
    identity: str
    params: dict
    order: Fraction
    ok: bool
    detail: str = ""
    checks: int = 1

    def line(self):
        status = "pass" if self.ok else "FAIL"
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        msg = f"[{status}] {self.identity} ({ps}) order<{self.order}"
        if self.detail:
            msg += f" :: {self.detail}"
        return msg


def _compare(identity, params, order, lhs, rhs, checks=1):
    mm = lhs.first_mismatch(rhs, order)
    if mm is None:
        return Report(identity, params, Fraction(order), True, checks=checks)
    e, a, b = mm
    return Report(identity, params, Fraction(order), False,
                  f"first mismatch at q^{e}: {a!r} != {b!r}", checks)


# ---------------------------------------------------------------------------
# q-series / combinatorial identities
# ---------------------------------------------------------------------------

def check_jacobi_z(order=12):
    ring = LaurentRing(("s",))
    lhs = lattice_sum(ring, "int", ring.var("s"), order, half_unit=True)
    rhs = (pochhammer(ring, 1, 1, 1, order)
           * pochhammer(ring, ring.var("s", 2, -1), Fraction(1, 2), 1, order)
           * pochhammer(ring, ring.var("s", -2, -1), Fraction(1, 2), 1, order))
    return _compare("jacobi-z", {}, order, lhs, rhs)


def check_jacobi_half(order=12):
    ring = LaurentRing(("s",))
    lhs = lattice_sum(ring, "half", ring.var("s"), order, half_unit=True)
    rhs = (pochhammer(ring, 1, 1, 1, order)
           * pochhammer(ring, ring.var("s", 2, -1), 1, 1, order)
           * pochhammer(ring, ring.var("s", -2, -1), 0, 1, order))
    rhs = rhs.shift(Fraction(1, 8)).scale(ring.var("s"))
    return _compare("jacobi-half", {}, order, lhs, rhs)


def check_weyl_denom_d(l=4):
    for rank in range(1, l + 1):
        vars_ = torus_vars("O2l", rank)
        half_det = denominator_det("O2l", rank).map_coeffs(lambda c: Fraction(c, 2))
        wd = weyl_denominator_poly("D", rank, vars_)
        if half_det != wd:
            return Report("weyl-denom-D", {"l": rank}, Fraction(0), False,
                          "determinant and Weyl-sum forms differ")
    return Report("weyl-denom-D", {"l": l}, Fraction(0), True, checks=l)


def check_weyl_denom_b(l=4):
    """The B denominator holds with the minus sign of the character formula;
    the plus variant printed in the denominator display does not."""
    for rank in range(1, l + 1):
        vars_ = torus_vars("B2l1", rank)
        wd = weyl_denominator_poly("B", rank, vars_)
        if denominator_det("B2l1", rank) != wd:
            return Report("weyl-denom-B", {"l": rank}, Fraction(0), False,
                          "minus-sign determinant fails the monomial identity")
        if denominator_det("B2l1", rank, kind="+") == wd:
            return Report("weyl-denom-B", {"l": rank}, Fraction(0), False,
                          "plus-sign variant unexpectedly matches")
    return Report("weyl-denom-B", {"l": l}, Fraction(0), True,
                  "minus-sign variant confirmed", checks=l)


def check_weyl_lemma(wtype=None, l=None, order=15, count=20, seed=0):
    rng = random.Random(seed)
    types = (wtype,) if wtype else ("B", "C", "D")
    ranks = (l,) if l is not None else (1, 2, 3, 4)
    checks = 0
    for wt in types:
        for rank in ranks:
            for _ in range(count):
                lam = tuple(sorted((rng.randrange(0, 6) for _ in range(rank)),
                                   reverse=True))
                lam = tuple(Fraction(x) for x in lam)
                a = weyl_qpoly(lam, wt, rank, order)
                b = weyl_sum_product_form(lam, wt, rank, order)
                if a.first_mismatch(b) is not None:
                    return Report("weyl-lemma",
                                  {"type": wt, "l": rank, "lam": lam},
                                  Fraction(order), False, "sum != product form")
                checks += 1
    params = {"type": wtype or "BCD", "l": "1..4" if l is None else l, "count": count}
    return Report("weyl-lemma", params, Fraction(order), True, checks=checks)


def check_osp_gf(order=20):
    ring = LaurentRing(("z",))
    osp = odd_strict_partitions(int(order) - 1)
    lhs = QSeries.from_terms(ring, [(sum(mu), ring.var("z", len(mu))) for mu in osp], order)
    rhs = pochhammer(ring, ring.var("z", 1, -1), 1, 2, order)
    return _compare("osp-gf", {}, order, lhs, rhs)


def _gt_term(ring, hooks):
    """+-2 sum over the odd hook lengths e of (s^e - s^-e); the sign is
    (-1)^(number of hooks)."""
    inner = ring.zero()
    for e in hooks:
        inner = ring.add(inner, ring.add(ring.var("s", e), ring.neg(ring.var("s", -e))))
    sgn = -2 if len(hooks) % 2 else 2
    return ring.mul(ring.from_fraction(sgn), inner)


def check_gt_osp(order=12):
    """:G:(t) closed form against the exhaustive symmetric-partition sum
    (both the hook-coordinate and the OSP reformulation)."""
    ring = RatFuncRing(("s",))
    central = ring.mul(ring.from_fraction(2),
                       ring.inv(ring.add(ring.var("s"), ring.neg(ring.var("s", -1)))))
    closed = corr.refined_g(order) - corr.qq_odd(ring, order).scale(central)
    terms = []
    for lam in partitions_up_to(int(order) - 1):
        part = Partition(lam)
        if part.is_symmetric():
            # 2(lam_i - i) + 1, rows i counted from 1
            hooks = [2 * part.parts[i] - 2 * i - 1 for i in range(part.rank())]
            terms.append((part.size, _gt_term(ring, hooks)))
    by_partitions = QSeries.from_terms(ring, terms, order)
    osp = odd_strict_partitions(int(order) - 1)
    by_osp = QSeries.from_terms(ring, [(sum(mu), _gt_term(ring, mu)) for mu in osp], order)
    rep = _compare("gt-osp", {}, order, by_partitions, closed)
    if not rep.ok:
        return rep
    return _compare("gt-osp", {}, order, by_osp, closed, checks=2)


def check_cor_d(order=12):
    return _compare("cor-d", {"mode": "exact"}, order,
                    corr.corollary_d_lhs(order), corr.corollary_d_rhs(order))


def check_cor_b(order=12):
    lhs = corr.corollary_b_lhs(order)
    rep = _compare("cor-b", {"mode": "exact"}, order, lhs,
                   corr.corollary_b_rhs(order))
    if not rep.ok:
        return rep
    return _compare("cor-b", {"mode": "exact", "form": "log-derivative"},
                    order, lhs, corr.corollary_b_rhs_log(order), checks=2)


# ---------------------------------------------------------------------------
# oracle-vs-formula identities
# ---------------------------------------------------------------------------

def check_f0_trace(order=8):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    tr = trace(SectorSpec(1, 0, NS, order), [OpSpec("D", u)], ring, charge=0)
    rhs = corr.f_bo((u,), ring, order) * Fraction(2)
    return _compare("f0-trace", {}, order, tr, rhs)


def check_shift_sym(order=6, kmax=2):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    spec = SectorSpec(1, 0, NS, order)
    tr0 = trace(spec, [OpSpec("D", u)], ring, charge=0)
    checks = 0
    for k in range(-kmax, kmax + 1):
        trk = trace(spec, [OpSpec("D", u)], ring, charge=k)
        w = ring.add(ring.var("s", 2 * k), ring.var("s", -2 * k))
        ref = (tr0.scale(w) * Fraction(1, 2)).shift(Fraction(k * k, 2)).truncated(order)
        mm = trk.first_mismatch(ref, order)
        if mm is not None:
            return Report("shift-sym", {"k": k}, Fraction(order), False,
                          f"first mismatch at q^{mm[0]}")
        checks += 1
    return Report("shift-sym", {"kmax": kmax}, Fraction(order), True, checks=checks)


def check_ad_trace(order=5):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    spec = SectorSpec(1, 0, NS, order)
    lhs = trace(spec, [OpSpec("D", u)], ring)
    rhs = trace(spec, [OpSpec("A", u)], ring) - trace(spec, [OpSpec("A", ring.inv(u))], ring)
    return _compare("AD-trace", {}, order, lhs, rhs)


def check_oracle_a1(order=8, mmax=2):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    spec = SectorSpec(1, 0, NS, order)
    checks = 0
    for m in range(-mmax, mmax + 1):
        tr = trace(spec, [OpSpec("A", u)], ring, charge=m)
        ref = corr.a_npoint((m,), 1, (u,), ring, order)
        mm = tr.first_mismatch(ref, order)
        if mm is not None:
            return Report("oracle-a1", {"m": m}, Fraction(order), False,
                          f"first mismatch at q^{mm[0]}")
        checks += 1
    return Report("oracle-a1", {"mmax": mmax}, Fraction(order), True, checks=checks)


def check_graded_a(n=2, order=5, svals=(2, 3), mode="eval"):
    ring = corr.make_ring(n, mode, ("z",))
    units = corr.make_units(ring, n, mode, svals)
    ops = [OpSpec("D", u) for u in units]
    lhs = trace(SectorSpec(1, 0, NS, order), ops, ring, zvars=("z",))
    rhs = corr.graded_trace_F("NS", units, ring, order, zvar="z")
    return _compare("graded-A", {"n": n, "mode": mode}, order, lhs, rhs)


def check_graded_b(n=1, order=6, svals=(2,), mode="exact"):
    ring = corr.make_ring(n, mode, ("w",))
    units = corr.make_units(ring, n, mode, svals)
    ops = [OpSpec("B", u) for u in units]
    lhs = trace(SectorSpec(1, 0, RAMOND, order), ops, ring, zvars=("w",), zscale=2)
    rhs = corr.graded_trace_F("R", units, ring, order, zvar="w", zscale=2)
    return _compare("graded-B", {"n": n, "mode": mode}, order, lhs, rhs)


# ---------------------------------------------------------------------------
# Howe-duality checks (denominator-cleared, oracle left side)
# ---------------------------------------------------------------------------

_HOWE_SETUP = {
    # id: (algebra, family, sector, op kind, zscale)
    "howe-D": ("d", "O2l", NS, "D", 1),
    "howe-C": ("c", "Sp2l", NS, "C", 1),
    "howe-Pin": ("b", "Pin2l", RAMOND, "B", 2),
    "howe-Dhalf": ("d", "B2l1", NS, "D", 2),
    "howe-Bhalf": ("b", "B2l1", RAMOND, "B", 2),
}


def _coeff_factor(identity, label):
    if identity == "howe-D":
        return 1 if (not label.lam or label.lam[-1] == 0) else 2
    if identity == "howe-Pin":
        return 2
    return 1


def howe_check(identity, l=1, n=1, order=6, svals=(2, 3), mode="eval"):
    """Oracle graded-trace product * cleared denominator == sum over labels of
    coeff * numerator determinant * closed-form correlator.

    mode 'exact' keeps the t-arguments formal (Laurent-level equality); the
    acceptance grid runs in evaluation mode.
    """
    algebra, family, sector, opkind, zscale = _HOWE_SETUP[identity]
    half = identity.endswith("half")
    level = Fraction(l) + (Fraction(1, 2) if half else 0)
    order = Fraction(order)
    gvars = torus_vars(family, l)
    if mode == "exact":
        params = {"l": l, "n": n, "mode": mode}
    else:
        svals = tuple(Fraction(s) for s in svals)[:n]
        params = {"l": l, "n": n, "s": svals}
    ring = corr.make_ring(n, mode, gvars)
    units = corr.make_units(ring, n, mode, svals)
    ops = [OpSpec(opkind, u) for u in units]

    lhs = QSeries.one(ring, order)
    for i in range(l):
        zcols = (gvars[i],)
        tr = trace(SectorSpec(1, 0, sector, order), ops, ring,
                   zvars=zcols, zscale=zscale)
        lhs = lhs * tr
    if half:
        pre = trace(SectorSpec(0, 1, sector, order), ops, ring)
        if identity == "howe-Bhalf":
            pre = pre * Fraction(1, 2)
        lhs = lhs * pre
    if l:
        lhs = lhs.scale(lift_coeff(ring, denominator_det(family, l)))

    rhs = QSeries.zero(ring, order)
    if mode == "exact":
        scalar, scalar_units = ring, units
    else:
        scalar = corr.make_ring(n, mode)
        scalar_units = corr.make_units(scalar, n, mode, svals)
    for label in enumerate_labels(algebra, level, order):
        series = corr.npoint(label, scalar_units, scalar, order)
        if scalar is not ring:
            series = series.convert(ring)
        factor = _coeff_factor(identity, label)
        if l:
            num = lift_coeff(ring, numerator_det(family, label.weight(), l))
            series = series.scale(num)
        if factor != 1:
            series = series * Fraction(factor)
        rhs = rhs + series
    return _compare(identity, params, order, lhs, rhs)


# ---------------------------------------------------------------------------
# half-level recursion and refined functions
# ---------------------------------------------------------------------------

def _subset_sum(sector, n, units, ring, order):
    """sum over subsets I of {1..n} of base(t_I) base(t_I^c)."""
    total = QSeries.zero(ring, order)
    for bits in range(2 ** n):
        left = tuple(units[i] for i in range(n) if bits >> i & 1)
        right = tuple(units[i] for i in range(n) if not bits >> i & 1)
        total = total + corr.half_level_base(sector, left, ring, order) \
            * corr.half_level_base(sector, right, ring, order)
    return total


def _oracle_route(rep, sector, units, ring, order):
    """After the subset recursion passed (``rep``), compare the base with
    the neutral-fermion oracle: the NS trace of D ops, or half the R trace
    of B ops.  Above n = 1 the recursion holds by construction of the base,
    so this is the route that tests it."""
    kind, spec = ("D", NS) if sector == "D" else ("B", RAMOND)
    oracle = trace(SectorSpec(0, 1, spec, order),
                   [OpSpec(kind, u) for u in units], ring)
    if sector == "B":
        oracle = oracle * Fraction(1, 2)
    base = corr.half_level_base(sector, units, ring, order)
    out = _compare(rep.identity, rep.params, order, base, oracle, checks=2)
    if not out.ok:
        out.detail = f"oracle route: {out.detail}"
    return out


def check_rec_d_half(n=2, order=8, mode="exact", svals=(2, 3, 5)):
    """F(1,q;t) == sum over subsets I of base(t_I) base(t_I^c); the n = 1
    base also equals the Jacobi-product closed form, any other base the
    oracle's neutral-fermion trace."""
    ring = corr.make_ring(n, mode)
    units = corr.make_units(ring, n, mode, svals)
    lhs = corr.graded_trace_F("NS", units, ring, order)
    rhs = _subset_sum("D", n, units, ring, order)
    rep = _compare("rec-d-half", {"n": n, "mode": mode}, order, lhs, rhs)
    if not rep.ok:
        return rep
    if n != 1:
        return _oracle_route(rep, "D", units, ring, order)
    u = units[0]
    t, tinv = corr.unit_pow(ring, u, 2), corr.unit_pow(ring, u, -2)
    prod = (pochhammer(ring, ring.neg(t), Fraction(1, 2), 1, order)
            * pochhammer(ring, ring.neg(tinv), Fraction(1, 2), 1, order)
            * corr.em_half(ring, order).inverse()
            * corr.inv_theta_at(u, ring, order))
    return _compare("rec-d-half", {"n": 1, "mode": mode, "form": "product"},
                    order, corr.half_level_base("D", units, ring, order), prod,
                    checks=2)


def check_rec_b_half(n=2, order=8, mode="exact", svals=(2, 3, 5)):
    ring = corr.make_ring(n, mode)
    units = corr.make_units(ring, n, mode, svals)
    lhs = corr.graded_trace_F("R", units, ring, order)
    rhs = _subset_sum("B", n, units, ring, order) * Fraction(2)
    rep = _compare("rec-b-half", {"n": n, "mode": mode}, order, lhs, rhs)
    if not rep.ok:
        return rep
    if n != 1:
        return _oracle_route(rep, "B", units, ring, order)
    u = units[0]
    t, tinv = corr.unit_pow(ring, u, 2), corr.unit_pow(ring, u, -2)
    num = (pochhammer(ring, ring.neg(t), 1, 1, order)
           * pochhammer(ring, ring.neg(tinv), 0, 1, order)
           * corr.qq_series(ring, order) ** 2)
    den = (pochhammer(ring, t, 1, 1, order)
           * pochhammer(ring, tinv, 0, 1, order)
           * corr.em_one(ring, order) * Fraction(2))
    prod = (num * den.inverse()).shift(Fraction(1, 16))
    return _compare("rec-b-half", {"n": 1, "mode": mode, "form": "product"},
                    order, corr.half_level_base("B", units, ring, order), prod,
                    checks=2)


def check_refined_d(order=10):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    tp, tm = tau_refined_trace([OpSpec("D", u)], order, ring)
    for sign, tr in ((1, tp), (-1, tm)):
        for name, form in (("recursive", corr.refined_level1(sign, order)),
                           ("sum", corr.refined_form1(sign, order)),
                           ("log", corr.refined_form2(sign, order))):
            mm = tr.first_mismatch(form, order)
            if mm is not None:
                return Report("refined-d", {"sign": sign, "form": name},
                              Fraction(order), False,
                              f"first mismatch at q^{mm[0]}")
    return Report("refined-d", {}, Fraction(order), True, checks=6)


# ---------------------------------------------------------------------------
# q-dimension consistency
# ---------------------------------------------------------------------------

def _qdim_grid(order):
    grid = []
    for algebra in ("d", "c", "b"):
        for l in (1, 2):
            grid.extend(enumerate_labels(algebra, l, min(Fraction(order), 3)))
    for algebra in ("d", "b"):
        for level in (Fraction(1, 2), Fraction(3, 2)):
            grid.extend(enumerate_labels(algebra, level, min(Fraction(order), 3)))
    return grid


def check_qdim_consistency(order=10):
    """Internal sum-vs-product agreement for every grid label, then the
    n = 0 duality at levels 1, 3/2, 2, 5/2 and 3: sum over labels of
    dim V_lambda * qdim == oracle dim_q of the Fock space."""
    order = Fraction(order)
    for label in _qdim_grid(order):
        corr.qdim(label, order)  # raises InternalCheckError on mismatch
    ring = RationalRing()
    setups = [
        ("d", Fraction(1), "O2l", NS, 1, 0),
        ("c", Fraction(1), "Sp2l", NS, 1, 0),
        ("b", Fraction(1), "Pin2l", RAMOND, 1, 0),
        ("d", Fraction(3, 2), "B2l1", NS, 1, 1),
        ("b", Fraction(3, 2), "B2l1", RAMOND, 1, 1),
        ("d", Fraction(2), "O2l", NS, 2, 0),
        ("c", Fraction(2), "Sp2l", NS, 2, 0),
        ("b", Fraction(2), "Pin2l", RAMOND, 2, 0),
        ("d", Fraction(5, 2), "B2l1", NS, 2, 1),
        ("b", Fraction(5, 2), "B2l1", RAMOND, 2, 1),
        ("d", Fraction(3), "O2l", NS, 3, 0),
    ]
    checks = len(_qdim_grid(order))
    for algebra, level, family, sector, pairs, neutral in setups:
        l = int(level)
        fock = trace(SectorSpec(pairs, neutral, sector, order), [], ring)
        dual = QSeries.zero(ring, order)
        ones = {v: Fraction(1) for v in torus_vars(family, l)}
        for label in enumerate_labels(algebra, level, order):
            dim = character(family, label).eval_at(ones)
            dual = dual + corr.qdim(label, order).truncated(order).scale(dim)
        if algebra == "b" and level.denominator == 2:
            dual = dual * Fraction(2)  # duality multiplicity
        mm = fock.first_mismatch(dual, order)
        if mm is not None:
            return Report("qdim-consistency",
                          {"algebra": algebra, "level": level},
                          order, False, f"first mismatch at q^{mm[0]}")
        checks += 1
    return Report("qdim-consistency", {}, order, True, checks=checks)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY = {
    "jacobi-z": (check_jacobi_z, "Jacobi triple product, integer offsets"),
    "jacobi-half": (check_jacobi_half, "Jacobi triple product, half offsets"),
    "weyl-denom-D": (check_weyl_denom_d, "type D Weyl denominator determinant"),
    "weyl-denom-B": (check_weyl_denom_b, "type B Weyl denominator determinant"),
    "weyl-lemma": (check_weyl_lemma, "Weyl sum equals positive-root product"),
    "shift-sym": (check_shift_sym, "charge-sector shift symmetry (oracle)"),
    "f0-trace": (check_f0_trace, "charge-zero D-trace equals 2 F_bo (oracle)"),
    "graded-A": (check_graded_a, "NS graded trace formula (oracle)"),
    "graded-B": (check_graded_b, "R graded trace formula (oracle)"),
    "howe-D": (partial(howe_check, "howe-D"), "(O(2l), d) duality, integer level"),
    "howe-Dhalf": (partial(howe_check, "howe-Dhalf", order=5),
                   "(O(2l+1), d) duality, half level"),
    "howe-C": (partial(howe_check, "howe-C"), "(Sp(2l), c) duality"),
    "howe-Pin": (partial(howe_check, "howe-Pin"), "(Pin(2l), b) duality, integer level"),
    "howe-Bhalf": (partial(howe_check, "howe-Bhalf", order=5),
                   "(Spin(2l+1), b) duality, half level"),
    "rec-d-half": (check_rec_d_half, "NS half-level subset recursion"),
    "rec-b-half": (check_rec_b_half, "R half-level subset recursion"),
    "refined-d": (check_refined_d, "refined level-1 trace, all closed forms"),
    "gt-osp": (check_gt_osp, "symmetric-partition form of :G:"),
    "osp-gf": (check_osp_gf, "odd strict partition generating function"),
    "cor-d": (check_cor_d, "half-level NS corollary q-identity"),
    "cor-b": (check_cor_b, "half-level R corollary q-identity"),
    "qdim-consistency": (check_qdim_consistency, "q-dimension dual forms + duality"),
    "AD-trace": (check_ad_trace, "D(t) = A(t) - A(t^{-1}) at trace level"),
    "oracle-a1": (check_oracle_a1, "type A level-1 charge sectors (oracle)"),
}


def run(identity_id, **params):
    if identity_id not in REGISTRY:
        raise FockcorrError(f"unknown identity {identity_id!r}")
    fn, _ = REGISTRY[identity_id]
    report = fn(**params)
    if report.ok and report.checks < 1:
        raise ValueError(f"{identity_id}: the parameters leave nothing to check")
    return report


def run_all():
    return [run(key) for key in REGISTRY]
