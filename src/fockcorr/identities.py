"""Verification registry: every named identity, each computed by two
independent routes and compared coefficient-exactly.

Each runner hands its (case params, lhs, rhs) triples to `_compare`, which
builds the Report (the Weyl denominator checks compare polynomials and build
their own).  `run(identity_id, **params)` dispatches by id and `REGISTRY`
lists ids with their default parameters; an identity whose internal
consistency check raises ``InternalCheckError`` is reported as failed, so
the identities after it still run.  The Howe checks and
qdim-consistency read each label set's group family and multiplicity from
one table, `DUALITY`, and its Fock sector from ``combinat.SECTOR``.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil

from . import correlators as corr
from .combinat import (SECTOR, Partition, enumerate_labels, odd_strict_partitions,
                       partitions_up_to, sym_to_osp)
from .characters import (FAMILIES, denominator_det, det_kind, det_laurent,
                         dimension, dominant_exponents, torus_vars)
from .errors import FockcorrError, InternalCheckError
from .fock_sums import f_bo_sum
from .fock_oracle import (OpSpec, SectorSpec, charge_sectors, tau_refined_trace,
                          trace)
from .qseries import (NS, RAMOND, LaurentRing, QSeries, RatFuncRing, RationalRing,
                      lattice_sum, pochhammer, to16)
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


def _compare(identity, params, order, cases):
    """Compare each (case params, lhs, rhs) of ``cases``, read lazily, below
    q^order.  The first pair that differs fails the report with its case
    params; when all agree the report carries ``params``, one check a pair."""
    order = Fraction(order)
    checks = 0
    for case, lhs, rhs in cases:
        checks += 1
        mm = lhs.first_mismatch(rhs, order)
        if mm is not None:
            e, a, b = mm
            return Report(identity, case, order, False,
                          f"first mismatch at q^{e}: {a!r} != {b!r}", checks)
    return Report(identity, params, order, True, checks=checks)


# ---------------------------------------------------------------------------
# q-series / combinatorial identities
# ---------------------------------------------------------------------------

def check_jacobi_z(order=12):
    ring = LaurentRing(("s",))
    lhs = lattice_sum(ring, NS, ring.var("s"), order)
    rhs = (pochhammer(ring, 1, 1, 1, order)
           * pochhammer(ring, ring.var("s", 2, -1), Fraction(1, 2), 1, order)
           * pochhammer(ring, ring.var("s", -2, -1), Fraction(1, 2), 1, order))
    return _compare("jacobi-z", {}, order, [({}, lhs, rhs)])


def check_jacobi_half(order=12):
    ring = LaurentRing(("s",))
    lhs = lattice_sum(ring, RAMOND, ring.var("s"), order)
    rhs = (pochhammer(ring, 1, 1, 1, order)
           * pochhammer(ring, ring.var("s", 2, -1), 1, 1, order)
           * pochhammer(ring, ring.var("s", -2, -1), 0, 1, order))
    rhs = rhs.shift(Fraction(1, 8)).scale(ring.var("s"))
    return _compare("jacobi-half", {}, order, [({}, lhs, rhs)])


def check_weyl_denom_d(l=4):
    for rank in range(1, l + 1):
        vars_ = torus_vars("O2l", rank)
        half_det = denominator_det("O2l", rank) * Fraction(1, 2)
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

    def cases():
        for wt in types:
            for rank in ranks:
                for _ in range(count):
                    lam = tuple(sorted((rng.randrange(0, 6) for _ in range(rank)),
                                       reverse=True))
                    lam = tuple(Fraction(x) for x in lam)
                    yield ({"type": wt, "l": rank, "lam": lam},
                           weyl_qpoly(lam, wt, rank, order),
                           weyl_sum_product_form(lam, wt, rank, order))

    params = {"type": wtype or "BCD", "l": "1..4" if l is None else l, "count": count}
    return _compare("weyl-lemma", params, order, cases())


def check_osp_gf(order=20):
    ring = LaurentRing(("z",))
    osp = odd_strict_partitions(ceil(order) - 1)
    lhs = QSeries.from_terms(ring, [(sum(mu), ring.var("z", len(mu))) for mu in osp], order)
    rhs = pochhammer(ring, ring.var("z", 1, -1), 1, 2, order)
    return _compare("osp-gf", {}, order, [({}, lhs, rhs)])


def _gt_term(ring, hooks):
    """+-2 sum over the odd hook lengths e of (s^e - s^-e); the sign is
    (-1)^(number of hooks)."""
    inner = ring.zero()
    for e in hooks:
        inner = inner + (ring.var("s", e) - ring.var("s", -e))
    sgn = -2 if len(hooks) % 2 else 2
    return ring.from_fraction(sgn) * inner


def check_gt_osp(order=12):
    """:G:(t) closed form against the exhaustive symmetric-partition sum
    (both the hook-coordinate and the OSP reformulation)."""
    ring = RatFuncRing(("s",))
    closed = corr.colon_g(order)
    terms = []
    for lam in partitions_up_to(ceil(order) - 1):
        part = Partition(lam)
        if part.is_symmetric():
            terms.append((part.size, _gt_term(ring, sym_to_osp(part))))
    by_partitions = QSeries.from_terms(ring, terms, order)
    osp = odd_strict_partitions(ceil(order) - 1)
    by_osp = QSeries.from_terms(ring, [(sum(mu), _gt_term(ring, mu)) for mu in osp], order)
    return _compare("gt-osp", {}, order,
                    [({"form": "partitions"}, by_partitions, closed),
                     ({"form": "osp"}, by_osp, closed)])


def check_cor_d(order=12):
    ring = RatFuncRing(("s",))
    lhs = corr.corollary_lhs(NS, ring.var("s"), ring, order)
    rhs = corr.corollary_d_rhs(order)
    return _compare("cor-d", {"mode": "exact"}, order, [({"mode": "exact"}, lhs, rhs)])


def check_cor_b(order=12):
    ring = RatFuncRing(("s",))
    lhs = corr.corollary_lhs(RAMOND, ring.var("s"), ring, order)
    forms = (({"mode": "exact"}, corr.corollary_b_rhs),
             ({"mode": "exact", "form": "log-derivative"}, corr.corollary_b_rhs_log))
    return _compare("cor-b", forms[-1][0], order,
                    ((case, lhs, rhs(order)) for case, rhs in forms))


# ---------------------------------------------------------------------------
# oracle-vs-formula identities
# ---------------------------------------------------------------------------

def check_f0_trace(order=8):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    tr = trace(SectorSpec(1, 0, NS, order), [OpSpec("D", u)], ring, charge=0)
    rhs = corr.f_bo((u,), ring, order) * Fraction(2)
    return _compare("f0-trace", {}, order, [({}, tr, rhs)])


def check_shift_sym(order=6, kmax=2):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    sectors = charge_sectors(SectorSpec(1, 0, NS, order), [OpSpec("D", u)], ring)
    zero = QSeries.zero(ring, order)
    return _compare("shift-sym", {"kmax": kmax}, order, (
        ({"k": k}, sectors.get(k, zero),
         (sectors[0].scale(ring.var("s", 2 * k) + ring.var("s", -2 * k)) * Fraction(1, 2))
         .shift(Fraction(k * k, 2)).truncated(order))
        for k in range(-kmax, kmax + 1)))


def check_ad_trace(order=5):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    spec = SectorSpec(1, 0, NS, order)
    lhs = trace(spec, [OpSpec("D", u)], ring)
    rhs = trace(spec, [OpSpec("A", u)], ring) - trace(spec, [OpSpec("A", ring.inv(u))], ring)
    return _compare("AD-trace", {}, order, [({}, lhs, rhs)])


def check_oracle_a1(order=8, mmax=2):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    sectors = charge_sectors(SectorSpec(1, 0, NS, order), [OpSpec("A", u)], ring)
    zero = QSeries.zero(ring, order)
    return _compare("oracle-a1", {"mmax": mmax}, order, (
        ({"m": m}, sectors.get(m, zero), corr.a_npoint((m,), 1, (u,), ring, order))
        for m in range(-mmax, mmax + 1)))


def _graded_check(identity, kind, sector, zvar, n, order, svals, mode):
    """The oracle's graded one-pair trace of ``kind`` ops in ``sector``
    against the closed graded trace F, both graded by ``zvar``: z in NS,
    its square root w in R."""
    ring = corr.make_ring(n, mode, (zvar,))
    units = corr.make_units(ring, n, mode, svals)
    ops = [OpSpec(kind, u) for u in units]
    lhs = trace(SectorSpec(1, 0, sector, order), ops, ring, zvars=(zvar,))
    rhs = corr.graded_trace_F(sector, units, ring, order, zvar=zvar)
    params = {"n": n, "mode": mode}
    return _compare(identity, params, order, [(params, lhs, rhs)])


check_graded_a = partial(_graded_check, "graded-A", "D", NS, "z",
                         n=2, order=5, svals=(2, 3), mode="eval")
check_graded_b = partial(_graded_check, "graded-B", "B", RAMOND, "w",
                         n=1, order=6, svals=(2,), mode="exact")


# ---------------------------------------------------------------------------
# Howe-duality checks (one case per label, oracle left side)
# ---------------------------------------------------------------------------

# (algebra, half level): (group family, c), c being a label's multiplicity
# times the coefficient of z^{lambda+rho} in its character times the
# denominator, the same for every label; the l charged pairs and a half
# level's neutral fermion live in the algebra's SECTOR
DUALITY = {
    ("d", False): ("O2l", 2),
    ("c", False): ("Sp2l", 1),
    ("b", False): ("Pin2l", 2),
    ("d", True): ("B2l1", 1),
    ("b", True): ("B2l1", 2),
}

# Howe id: its row of DUALITY
HOWE_IDS = {
    "howe-D": ("d", False),
    "howe-C": ("c", False),
    "howe-Pin": ("b", False),
    "howe-Dhalf": ("d", True),
    "howe-Bhalf": ("b", True),
}


def howe_check(identity, l=1, n=1, order=6, svals=(2, 3), mode="eval"):
    """Howe duality label by label: the coefficient of z^{lambda+rho} in the
    oracle's graded-trace product times the Weyl denominator is c times the
    closed-form correlator of lambda.

    Write the one-pair trace as tr(z) = sum_k T_k z^k, T_k its charge
    sectors (``charge_sectors``); the family's torus variable is z, or
    w = z^{1/2} where ``FAMILIES`` scales its exponents by 2, and then
    T_k is the coefficient of w^{2k}.  The coefficient of z^e in
    prod_j tr(z_j) det[z_j^{rho_i} +/- z_j^{-rho_i}] is the l x l
    determinant det[T_{e_j - rho_i} +/- T_{e_j + rho_i}], and at
    e = lambda + rho (``characters.dominant_exponents``) no other label's
    numerator determinant has that monomial, so the determinant is c times
    the correlator.  The half levels multiply the determinant by the
    neutral fermion's trace.

    Completeness: T_k = T_{-k}, so the product is Weyl-antisymmetric and
    its strictly dominant terms fix the rest; and T_k starts at q^{k^2/2}
    or later, so the z^e coefficient starts at min_w |e - w rho|^2 / 2 =
    |lambda|^2 / 2 or later, and every strictly dominant term outside the
    labels of ``enumerate_labels`` vanishes below the order.  Both facts
    are asserted (``InternalCheckError``).

    mode 'exact' keeps the t-arguments formal; the acceptance grid runs in
    evaluation mode.
    """
    algebra, half = HOWE_IDS[identity]
    family, c = DUALITY[algebra, half]
    sector, scale = SECTOR[algebra], FAMILIES[family][1]
    level = Fraction(l) + (Fraction(1, 2) if half else 0)
    order = Fraction(order)
    if mode == "exact":
        params = {"l": l, "n": n, "mode": mode}
    else:
        svals = tuple(Fraction(s) for s in svals)[:n]
        params = {"l": l, "n": n, "s": svals}
    ring = corr.make_ring(n, mode)
    units = corr.make_units(ring, n, mode, svals)
    ops = [OpSpec(algebra.upper(), u) for u in units]
    labels = enumerate_labels(algebra, level, order)
    zero = QSeries.zero(ring, order)
    sectors = charge_sectors(SectorSpec(1, 0, sector, order), ops, ring)
    for k, tk in sectors.items():
        if tk.order16() < to16(k * k / 2) or tk.first_mismatch(sectors.get(-k, zero)):
            raise InternalCheckError(f"{identity}: charge sector {k} starts below "
                                     f"q^(k^2/2) or differs from sector {-k}")
    if half:
        pre = trace(SectorSpec(0, 1, sector, order), ops, ring)
    plus = det_kind(family) == "+"
    rho_exps = dominant_exponents(family, (0,) * l, l)

    def t(k):
        return sectors.get(Fraction(k, scale), zero)

    def cases():
        for label in labels:
            e = dominant_exponents(family, label.weight(), l)
            rows = [[t(ej - r) + t(ej + r) if plus else t(ej - r) - t(ej + r)
                     for ej in e] for r in rho_exps]
            lhs = det_laurent(rows, zero) if l else QSeries.one(ring, order)
            yield ({**params, "lam": label.lam}, lhs * pre if half else lhs,
                   corr.npoint(label, units, ring, order) * c)

    return _compare(identity, params, order, cases())


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


def _half_product(sector, u, ring, order):
    """The one-point base as the corollary's Pochhammer side times
    (-q^{1/2};q)/(t^{1/2}-t^{-1/2}) in NS or q^{1/16}(-q;q)/2 in R."""
    lhs = corr.corollary_lhs(sector, u, ring, order)
    if sector == NS:
        return (lhs * corr.em_half(ring, order)).scale(ring.inv(u - ring.inv(u)))
    return (lhs * corr.em_one(ring, order) * Fraction(1, 2)).shift(Fraction(1, 16))


def _rec_half_check(algebra, n=2, order=8, mode="exact", svals=(2, 3, 5)):
    """F(1,q;t) == sum over subsets I of base(t_I) base(t_I^c) in the
    ``algebra``'s sector, twice that in R (algebra b).  The n = 1 base also
    equals its Jacobi-product closed form; any other base is compared with
    the neutral-fermion oracle, the NS trace of D ops or half the R trace
    of B ops.  Where ``correlators.half_level_base`` runs the recursion
    (exact mode, and eval mode below 3 points) the first case holds by
    construction and the oracle route is the one that tests it; where it
    takes the Fock sum over strict partitions (eval mode at n >= 3, see
    ``fock_sums.fock_route``) the first case tests the recursion against
    the theta kernel."""
    sector = SECTOR[algebra]
    ring = corr.make_ring(n, mode)
    units = corr.make_units(ring, n, mode, svals)
    params = {"n": n, "mode": mode}
    product = {**params, "form": "product"}

    def cases():
        lhs = corr.graded_trace_F(sector, units, ring, order)
        rhs = _subset_sum(sector, n, units, ring, order)
        yield params, lhs, rhs if sector == NS else rhs * Fraction(2)
        base = corr.half_level_base(sector, units, ring, order)
        if n == 1:
            yield product, base, _half_product(sector, units[0], ring, order)
        else:
            oracle = trace(SectorSpec(0, 1, sector, order),
                           [OpSpec(algebra.upper(), u) for u in units], ring)
            yield ({**params, "route": "oracle"}, base,
                   oracle if sector == NS else oracle * Fraction(1, 2))

    return _compare(f"rec-{algebra}-half", product if n == 1 else params,
                    order, cases())


check_rec_d_half = partial(_rec_half_check, "d")
check_rec_b_half = partial(_rec_half_check, "b")


def check_refined_d(order=10):
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    tp, tm = tau_refined_trace([OpSpec("D", u)], order, ring)
    forms = (("recursive", corr.refined_level1), ("sum", corr.refined_form1),
             ("log", corr.refined_form2))
    return _compare("refined-d", {}, order, (
        ({"sign": sign, "form": name}, tr, form(sign, order))
        for sign, tr in ((1, tp), (-1, tm)) for name, form in forms))


def check_fock_kernel(n=6, order=4, svals=(2, -3, Fraction(5, 7), 11, Fraction(-13, 3), 17)):
    """The eps sums (k = 0, 1/2, 1) and the NS and R level-1/2 bases in
    eval mode by both routes, for 1 to n points: theta (``f_bo`` in
    ``corr.eps_sum``, and ``corr.half_level_recursion``) against the Fock
    sums (``fock_sums.f_bo_sum`` and ``corr.fock_base``).  ``fock_route``
    picks theta below 3 points and the Fock sums from 3 on (at orders 1 to
    4n + 4), so the cases lie on both sides of the rule."""
    ring = RationalRing()
    units = corr.make_units(ring, n, "eval", svals)

    def cases():
        for m in range(1, n + 1):
            us = units[:m]
            for k in (0, Fraction(1, 2), 1):
                yield ({"n": m, "k": k},
                       corr.eps_sum(lambda v: corr.f_bo(v, ring, order), us, ring, order, k),
                       corr.eps_sum(lambda v: f_bo_sum(v, order), us, ring, order, k))
            for sector in (NS, RAMOND):
                yield ({"n": m, "base": sector},
                       corr.half_level_recursion(sector, us, ring, order),
                       corr.fock_base(sector, us, order))

    return _compare("fock-kernel", {"n": n}, order, cases())


# ---------------------------------------------------------------------------
# q-dimension consistency
# ---------------------------------------------------------------------------

def _qdim_grid(order):
    """The labels below q^3 of every DUALITY row at its two lowest levels."""
    grid = []
    for algebra, half in DUALITY:
        for level in (Fraction(1, 2), Fraction(3, 2)) if half else (1, 2):
            grid.extend(enumerate_labels(algebra, level, min(Fraction(order), 3)))
    return grid


def check_qdim_consistency(order=10):
    """Internal sum-vs-product agreement for every grid label, then the
    n = 0 duality at levels 1 to 4 and 9/2: sum over labels of
    dim V_lambda * qdim == oracle dim_q of the Fock space, dim V_lambda by
    Weyl's dimension formula (``characters.dimension``)."""
    order = Fraction(order)
    grid = _qdim_grid(order)
    for label in grid:
        corr.qdim(label, order)  # raises InternalCheckError on mismatch
    ring = RationalRing()
    setups = [
        ("d", Fraction(1)),
        ("c", Fraction(1)),
        ("b", Fraction(1)),
        ("d", Fraction(3, 2)),
        ("b", Fraction(3, 2)),
        ("d", Fraction(2)),
        ("c", Fraction(2)),
        ("b", Fraction(2)),
        ("d", Fraction(5, 2)),
        ("b", Fraction(5, 2)),
        ("d", Fraction(3)),
        ("d", Fraction(4)),
        ("c", Fraction(4)),
        ("b", Fraction(4)),
        ("d", Fraction(9, 2)),
        ("b", Fraction(9, 2)),
    ]

    def cases():
        for algebra, level in setups:
            l, half = int(level), level.denominator == 2
            family, c = DUALITY[algebra, half]
            fock = trace(SectorSpec(l, int(half), SECTOR[algebra], order), [], ring)
            dual = QSeries.zero(ring, order)
            for label in enumerate_labels(algebra, level, order):
                dim = dimension(family, label)
                dual = dual + corr.qdim(label, order).truncated(order).scale(dim)
            # c over the dominant coefficient of a character times the
            # denominator, 2 in the + families, is the duality multiplicity
            yield ({"algebra": algebra, "level": level}, fock,
                   dual * Fraction(c, 2 if det_kind(family) == "+" else 1))

    report = _compare("qdim-consistency", {}, order, cases())
    report.checks += len(grid)
    return report


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
    "fock-kernel": (check_fock_kernel, "theta eps sums and bases vs Fock sums"),
    "qdim-consistency": (check_qdim_consistency, "q-dimension dual forms + duality"),
    "AD-trace": (check_ad_trace, "D(t) = A(t) - A(t^{-1}) at trace level"),
    "oracle-a1": (check_oracle_a1, "type A level-1 charge sectors (oracle)"),
}


def run(identity_id, **params):
    """The report of one identity.  An identity whose internal consistency
    check raises ``InternalCheckError`` fails with the error's message, so
    the identities after it still run."""
    if identity_id not in REGISTRY:
        raise FockcorrError(f"unknown identity {identity_id!r}")
    fn, _ = REGISTRY[identity_id]
    try:
        report = fn(**params)
    except InternalCheckError as exc:
        default = inspect.signature(fn).parameters.get("order")
        order = params.get("order", default.default if default else 0)
        return Report(identity_id, params, order, False, str(exc))
    if report.ok and report.checks < 1:
        raise ValueError(f"{identity_id}: the parameters leave nothing to check")
    return report


def run_all():
    return [run(key) for key in REGISTRY]
