"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Every comparison is exact (coefficient equality of truncated series);
the stated runtime bounds are asserted with a monotonic clock.
"""

import time
from fractions import Fraction as F

from fockcorr import identities
from fockcorr.combinat import Partition, partitions_up_to
from fockcorr.correlators import (f_bo, qq_odd, refined_form1,
                                  refined_form2, refined_level1)
from fockcorr.fock_oracle import OpSpec, SectorSpec, enumerate_states, trace, \
    tau_refined_trace
from fockcorr.identities import (check_cor_b, check_cor_d, check_gt_osp,
                                 check_osp_gf, check_qdim_consistency,
                                 check_rec_b_half, check_rec_d_half,
                                 check_weyl_lemma, howe_check)
from fockcorr.qseries import RatFuncRing, RationalRing, pochhammer


def report(criterion, ok, note=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_level1_typeD_sanity():
    t0 = time.monotonic()
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    closed = f_bo((u,), ring, 10) * F(2)
    spec = SectorSpec(1, 0, "ns", 10)
    oracle = trace(spec, [OpSpec("D", u)], ring, charge=0)
    mm = oracle.first_mismatch(closed, 10)
    dt = time.monotonic() - t0
    report("1 (level-1 type D sanity)",
           mm is None and dt < 5.0, f"{dt:.2f}s")


GRID = [
    ("d", F(1)), ("d", F(2)), ("c", F(1)), ("c", F(2)),
    ("b", F(1)), ("b", F(2)),
    ("d", F(1, 2)), ("d", F(3, 2)), ("b", F(1, 2)), ("b", F(3, 2)),
]

_IDENTITY_FOR = {
    ("d", 1): "howe-D", ("d", 2): "howe-Dhalf",
    ("c", 1): "howe-C",
    ("b", 1): "howe-Pin", ("b", 2): "howe-Bhalf",
}

# higher levels at n = 1: l = 3 to 6 of the integral-level identities, and
# levels 3 + 1/2 to 5 + 1/2 of the half-integral ones
WIDE_GRID = [
    ("howe-D", 3, 6), ("howe-C", 3, 6), ("howe-Pin", 3, 6),
    ("howe-D", 4, 6), ("howe-C", 4, 6), ("howe-Pin", 4, 6),
    ("howe-D", 5, 6), ("howe-C", 5, 6), ("howe-Pin", 5, 6),
    ("howe-D", 6, 6), ("howe-C", 6, 6), ("howe-Pin", 6, 6),
    ("howe-Dhalf", 3, 5), ("howe-Bhalf", 3, 5),
    ("howe-Dhalf", 4, 5), ("howe-Bhalf", 4, 5),
    ("howe-Dhalf", 5, 5), ("howe-Bhalf", 5, 5),
]


def test_criterion_2_oracle_theorem_grid():
    t0 = time.monotonic()
    failures = []
    runs = 0
    for algebra, level in GRID:
        identity = _IDENTITY_FOR[(algebra, level.denominator)]
        for n, svals in ((1, (2,)), (2, (2, 3))):
            rep = howe_check(identity, l=int(level), n=n, order=8, svals=svals)
            runs += 1
            if not rep.ok:
                failures.append((algebra, level, n, rep.detail))
    for identity, l, order in WIDE_GRID:
        rep = howe_check(identity, l=l, n=1, order=order, svals=(2,))
        runs += 1
        if not rep.ok:
            failures.append((identity, l, 1, rep.detail))
    # the grid's lambda window ||lambda||^2/2 <= 2 is covered by the sums
    from fockcorr.combinat import enumerate_labels
    for algebra, level in GRID:
        lams = {lab.lam for lab in enumerate_labels(algebra, level, 8)}
        small = {lab.lam for lab in enumerate_labels(algebra, level, F(33, 16))}
        assert small <= lams
    dt = time.monotonic() - t0
    report("2 (oracle-theorem duality grid)",
           not failures and dt < 600.0,
           f"{runs} identities, {dt:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_half_level_recursion():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        ok = ok and check_rec_d_half(n=n, order=8, mode="exact").ok
        ok = ok and check_rec_b_half(n=n, order=8, mode="exact").ok
    ok = ok and check_rec_d_half(n=3, order=8, mode="eval", svals=(2, 3, 5)).ok
    ok = ok and check_rec_b_half(n=3, order=8, mode="eval", svals=(2, 3, 5)).ok
    report("3 (half-level recursion)", ok, f"{time.monotonic()-t0:.1f}s")


def test_criterion_4_corollary_identities():
    rep_d = check_cor_d(order=12)
    rep_b = check_cor_b(order=12)  # includes the log-derivative form
    report("4 (corollary q-identities at order 12)", rep_d.ok and rep_b.ok)


def test_criterion_5_refined_functions():
    ring = RatFuncRing(("s",))
    u = ring.var("s")
    tp, tm = tau_refined_trace([OpSpec("D", u)], 10, ring)
    ok = True
    for sign, tr in ((1, tp), (-1, tm)):
        ok = ok and tr.first_mismatch(refined_level1(sign, 10), 10) is None
        ok = ok and tr.first_mismatch(refined_form1(sign, 10), 10) is None
        ok = ok and tr.first_mismatch(refined_form2(sign, 10), 10) is None
    p20, m20 = tau_refined_trace([], 20, ring)
    ok = ok and (p20 - m20).first_mismatch(qq_odd(ring, 20), 20) is None
    report("5 (refined level-1 functions)", ok)


def test_criterion_6_qdim_double_check():
    rep = check_qdim_consistency(order=10)
    report("6 (q-dimension dual forms and duality)", rep.ok, rep.detail)


def test_criterion_7_identity_suite():
    t0 = time.monotonic()
    reports = identities.run_all()
    bad = [r.identity for r in reports if not r.ok]
    wl = check_weyl_lemma(order=15, count=20)  # exhaustive types, l <= 4
    ok = not bad and wl.ok
    report("7 (identity suite)", ok,
           f"{len(reports)} identities, {time.monotonic()-t0:.1f}s"
           + (f"; failing: {bad}" if bad else ""))


def test_criterion_8_combinatorial_exhaustives():
    from fockcorr.combinat import (frobenius, from_frobenius, sym_to_osp,
                                   osp_to_sym, odd_strict_partitions)
    ok = True
    for lam in partitions_up_to(12):
        p = Partition(lam)
        ok = ok and from_frobenius(frobenius(p)).nonzero() == p.nonzero()
    seen = set()
    for lam in partitions_up_to(20):
        p = Partition(lam)
        if not p.is_symmetric():
            continue
        mu = sym_to_osp(p)
        ok = ok and sum(mu) == p.size and len(mu) == p.rank()
        ok = ok and osp_to_sym(mu).nonzero() == p.nonzero()
        seen.add(mu)
    ok = ok and seen == set(odd_strict_partitions(20))
    ok = ok and check_osp_gf(order=20).ok
    ok = ok and check_gt_osp(order=12).ok
    report("8 (combinatorial exhaustives)", ok)


def test_criterion_9_performance_guard():
    ring = RationalRing()
    t0 = time.monotonic()
    series = pochhammer(ring, 1, 1, 1, 500).inverse()
    dt_inv = time.monotonic() - t0
    assert series.coeff(100) == 190569292  # p(100), frozen reference value
    t0 = time.monotonic()
    count = sum(1 for _ in enumerate_states(SectorSpec(2, 0, "ns", 12)))
    dt_enum = time.monotonic() - t0
    # count must match the generating function (-q^{1/2};q)_infty^4
    gf = pochhammer(ring, -1, F(1, 2), 1, 12) ** 4
    expected = sum(gf.terms.values())
    ok = dt_inv < 1.0 and dt_enum < 30.0 and count == expected
    report("9 (performance guard)", ok,
           f"inv(q;q) to q^500 in {dt_inv:.2f}s; "
           f"{count} states enumerated in {dt_enum:.1f}s")
