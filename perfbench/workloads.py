"""Job lists of the benchmark workloads.

A job is the argv of one ``fockcorr`` CLI call.  Sizes (n, order, pairs) are
fixed per workload; the seed only picks labels and s-values from the fixed
grids below, so the cost of a run is comparable across seeds.  Every job a
seed can produce is in ``universe(workload)``, which is what the recorded
output digests cover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact-corr", "eval-corr", "oracle-verify")

# exact-corr: (algebra, level, n, order, --json?, label grid).  A label is
# the --lambda value, with " det" for the twisted partner; the labels of one
# grid cost about the same, so that a seed changes the inputs but not the
# amount of work.
EXACT_SLOTS = (
    ("d", "1", 2, "6", False, ("0", "0 det", "1", "2")),
    ("c", "1", 2, "5", True, ("0", "1")),
    ("b", "1", 2, "5", False, ("0", "1", "2")),
    ("d", "1/2", 2, "4", True, ("",)),
    ("d", "3/2", 2, "4", False, ("1", "1 det")),
    ("b", "3/2", 1, "8", True, ("0", "1")),
    ("d", "2", 1, "8", False, ("1,0", "1,0 det", "1,1")),
    ("c", "2", 1, "8", True, ("0,0", "1,0")),
)
# s-values at which the exact series are specialized (differential check)
EXACT_S = {
    1: ("2", "3", "5", "3/2", "5/2", "7/3"),
    2: ("2,3", "3,5", "2,7", "3/2,5", "5/3,7", "2,7/5"),
}

# eval-corr: (command, algebra, level, n, order, label grid).  All corr jobs
# of one size n share the seed's s-tuple, so f_bo and theta are reused.  The
# s-tuples of a grid have rationals of like size, so their Fraction
# arithmetic costs about the same (within 4% at this commit).
EVAL_SLOTS = (
    ("corr", "d", "2", 3, "12", ("0,0", "1,0", "1,1")),
    ("corr", "c", "2", 3, "12", ("0,0", "1,0", "1,1")),
    ("corr", "b", "2", 3, "12", ("0,0", "1,0")),
    ("corr", "d", "3/2", 3, "10", ("0", "1")),
    ("corr", "b", "3/2", 3, "10", ("0", "1")),
    ("corr", "d", "2", 4, "6", ("0,0", "1,0")),
    ("corr", "c", "2", 4, "6", ("0,0", "1,0")),
    ("qdim", "d", "3", None, "30", ("0,0,0", "1,1,0", "2,1,0")),
    ("qdim", "b", "5/2", None, "30", ("0,0", "1,0", "1,1")),
    ("qdim", "c", "3", None, "30", ("0,0,0", "1,0,0", "2,1,1")),
)
EVAL_S = {
    3: ("2,3,5", "3,5,7", "2,5,7", "3/2,5,7", "2,3,7/5", "5/2,3,7"),
    4: ("2,3,5,7", "3,5,7,11", "2,5,7,11", "2,3,7,11", "3/2,5,7,11", "2,3,5/7,11"),
}

# oracle-verify: argv templates; {a} and {b} are the seed's two s-values
ORACLE_JOBS = (
    "oracle --pairs 2 --sector ns --ops D,s={a} --graded --order 9",
    "oracle --pairs 3 --sector ns --ops D,s={a} --graded --order 7",
    "oracle --pairs 2 --sector r --ops B,s={b} --graded --order 8",
    "oracle --pairs 3 --sector r --ops B,s={b} --graded --order 5",
    "oracle --pairs 2 --neutral 1 --sector ns --ops D,s={a};D,s={b} --charge 0,- --order 9",
    "oracle --pairs 3 --sector ns --ops D,s={a};D,s={b} --charge 0,0,- --order 8",
    "verify howe-D --l 2 --n 1 --order 7 --s={a}",
    "verify howe-C --l 1 --n 2 --order 7 --s={a},{b}",
    "verify howe-Pin --l 1 --n 1 --order 7 --s={b}",
    "verify howe-Dhalf --l 1 --n 1 --order 7 --s={a}",
    "verify howe-Bhalf --l 1 --n 1 --order 7 --s={b}",
    "verify graded-A --n 2 --order 8 --s={a},{b} --mode eval",
)
ORACLE_S = (("2", "3"), ("3", "2"), ("2", "5"), ("5", "3"), ("3/2", "5"),
            ("5/2", "3"), ("-2", "3"), ("2", "-3"))


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple          # argv tuples, run in this order
    replay: bool = False  # run the list again from a run-private --cache-dir
    # (exact argv, s-values): exact series specialized at s == eval series
    differential: tuple = ()


def _label_flags(algebra, level, label):
    lam, _, det = label.partition(" ")
    flags = ["--algebra", algebra, "--level", level]
    return flags + (["--lambda", lam] if lam else []) + (["--det"] if det else [])


def _exact_job(slot, label):
    algebra, level, n, order, as_json, _ = slot
    argv = ["corr", *_label_flags(algebra, level, label), "--n", str(n),
            "--order", order, "--mode", "exact"]
    return tuple(argv + (["--json"] if as_json else []))


def _eval_job(slot, label, svals):
    command, algebra, level, n, order, _ = slot
    argv = [command, *_label_flags(algebra, level, label), "--order", order]
    if command == "corr":
        argv += ["--n", str(n), "--mode", "eval", "--s", svals]
    return tuple(argv)


def _oracle_job(template, a, b):
    return tuple(template.format(a=a, b=b).split())


def jobs(name, seed):
    """The workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "exact-corr":
        out = [_exact_job(slot, rng.choice(slot[5])) for slot in EXACT_SLOTS]
        rng.shuffle(out)
        diff = tuple((job, rng.choice(EXACT_S[int(job[job.index("--n") + 1])]))
                     for job in out)
        return Workload(name, seed, tuple(out), replay=True, differential=diff)
    if name == "eval-corr":
        svals = {n: rng.choice(grid) for n, grid in EVAL_S.items()}
        out = [_eval_job(slot, rng.choice(slot[5]), svals.get(slot[3]))
               for slot in EVAL_SLOTS]
        rng.shuffle(out)
        return Workload(name, seed, tuple(out))
    if name == "oracle-verify":
        a, b = rng.choice(ORACLE_S)
        out = [_oracle_job(t, a, b) for t in ORACLE_JOBS]
        rng.shuffle(out)
        return Workload(name, seed, tuple(out))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def universe(name):
    """Every job that some seed of workload ``name`` can produce."""
    if name == "exact-corr":
        return [_exact_job(slot, label) for slot in EXACT_SLOTS for label in slot[5]]
    if name == "eval-corr":
        return [_eval_job(slot, label, svals)
                for slot in EVAL_SLOTS for label in slot[5]
                for svals in EVAL_S.get(slot[3], (None,))]
    if name == "oracle-verify":
        return list(dict.fromkeys(_oracle_job(t, a, b) for t in ORACLE_JOBS
                                  for a, b in ORACLE_S))
    raise ValueError(f"unknown workload {name!r}")


def key(job):
    """The job's reference key: its argv joined by spaces."""
    return " ".join(job)
