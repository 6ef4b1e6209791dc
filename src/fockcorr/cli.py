"""Command-line front end.

Subcommands: corr, qdim, oracle, verify, list-identities.
Exit codes: 0 success / all identities pass, 1 verification failure
(a failed identity, or two internal forms that disagree), 2 usage error,
3 pole-guard violation, 4 resource limit, 5 internal error (any other
exception), 141 stdout closed by its reader; see ``errors`` for the mapping.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import sys
from fractions import Fraction

from . import diskcache
from . import identities
from .combinat import ModuleLabel
from .correlators import CorrelatorRequest, correlator, qdim
from .errors import (FockcorrError, InternalCheckError, LabelError,
                     ModeMismatchError, PoleError, ResourceLimitError)
from .fock_oracle import OpSpec, SectorSpec, trace
from .qseries import NS, RAMOND, LaurentRing, QSeries, RationalRing, from16


def _fraction(text):
    """The one parser of rational CLI input: a bad value is a usage error
    (exit 2), whether argparse or a subcommand meets it."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _order(text):
    """A q-order: a positive rational; below it nothing would be computed,
    compared or printed, so zero or less is a usage error (exit 2)."""
    order = _fraction(text)
    if order <= 0:
        raise argparse.ArgumentTypeError(f"order must be positive: {text!r}")
    return order


def _state_budget(text):
    """An oracle state budget: an integer of at least 1 (exit 2 otherwise)."""
    budget = _fraction(text)
    if budget.denominator != 1 or budget < 1:
        raise argparse.ArgumentTypeError(f"state budget must be an integer >= 1: {text!r}")
    return int(budget)


def _int_list(text):
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _fraction_list(text):
    if not text:
        return ()
    return tuple(_fraction(x) for x in text.split(","))


def _charge_list(text):
    """Per-pair charges; '-' or an empty item skips a pair (None)."""
    return tuple(None if x.strip() in ("-", "") else _fraction(x)
                 for x in text.split(","))


def render_text(series: QSeries):
    """One line per term; a rational coefficient prints as the repr of its
    ``Fraction`` value, whatever its Python type."""
    rational = series.ring.mode == "rational"
    lines = [f"# mode={series.ring.mode}"
             + (f" vars={','.join(series.ring.vars)}" if series.ring.vars else "")]
    for e, c in series.sorted_terms():
        lines.append(f"q^{from16(e)}: {Fraction(c) if rational else c!r}")
    if series.trunc is not None:
        lines.append(f"O(q^{from16(series.trunc)})")
    return "\n".join(lines)


def _emit(series, as_json):
    if as_json:
        print(series.dumps())
    else:
        print(render_text(series))


def _build_label(args):
    lam = _int_list(args.lam)
    l = int(args.level)
    if len(lam) < l and all(m >= 0 for m in lam):
        lam = lam + (0,) * (l - len(lam))   # pad partitions to declared length
    return ModuleLabel(args.algebra, args.level, lam, det=args.det)


def _cached_series(key, ring, compute):
    """The series over ``ring`` that the disk cache holds under ``key``;
    on a miss, ``compute()``, stored under ``key``.  A blob that does not
    decode, or decodes to a series over another ring, is a miss, so a
    corrupt blob is recomputed and overwritten, never served."""
    blob = diskcache.get(key)
    if blob is not None:
        try:
            series = QSeries.from_json(blob)
        except (KeyError, TypeError, ValueError, ArithmeticError, ModeMismatchError):
            series = None
        if series is not None and series.ring == ring:
            return series
    series = compute()
    diskcache.put(key, series.to_json())
    return series


def cmd_corr(args):
    label = _build_label(args)
    req = CorrelatorRequest(label=label, npoints=args.n, order=args.order,
                            mode=args.mode, eval_points=args.svals)
    key = diskcache.key("corr", label.algebra, label.level, label.lam, label.det,
                        req.npoints, req.order, req.mode, req.eval_points)
    _emit(_cached_series(key, req.ring, lambda: correlator(req)), args.json)
    return 0


def cmd_qdim(args):
    label = _build_label(args)
    series = qdim(label, args.order)
    _emit(series, args.json)
    return 0


def _parse_ops(text, ring):
    if not text or text.lower() == "none":
        return []
    ops = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            kind, assign = chunk.split(",", 1)
            var, val = assign.split("=", 1)
        except ValueError as exc:
            raise LabelError(f"bad op spec {chunk!r}; expected KIND,s=RAT") from exc
        kind = kind.strip().upper()
        val = _fraction(val)
        if var.strip() == "s":
            s = val
        elif var.strip() == "t":
            # t must be the square of a rational so that t^{1/2} stays exact
            num, den = val.numerator, val.denominator
            rn, rd = _isqrt_exact(num), _isqrt_exact(den)
            if rn is None or rd is None:
                raise LabelError(f"t={val} is not a rational square; pass s instead")
            s = Fraction(rn, rd)
        else:
            raise LabelError(f"bad op argument {var!r}; use s= or t=")
        if s in (0, 1, -1):
            raise PoleError(f"s = {s} sits on a pole")
        ops.append(OpSpec(kind, ring.from_fraction(s)))
    return ops


def _isqrt_exact(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def cmd_oracle(args):
    spec = SectorSpec(args.pairs, args.neutral, args.sector, args.order)
    if args.graded and args.pairs:
        prefix = "w" if args.sector == RAMOND else "z"
        zvars = tuple(f"{prefix}{p + 1}" for p in range(args.pairs))
        ring = LaurentRing(zvars)
    else:
        zvars, ring = None, RationalRing()
    ops = _parse_ops(args.ops, ring)
    series = trace(spec, ops, ring, zvars=zvars, charge=args.charge,
                   max_states=args.max_states)
    _emit(series, args.json)
    return 0


def cmd_verify(args):
    """Run the named identity, or all of them; each gets the overrides
    that its signature accepts."""
    if args.identity == "all":
        keys = list(identities.REGISTRY)
    elif args.identity in identities.REGISTRY:
        keys = [args.identity]
    else:
        print(f"unknown identity {args.identity!r}; "
              f"see list-identities", file=sys.stderr)
        return 2
    overrides = {
        "order": args.order, "l": args.l, "n": args.n, "wtype": args.type,
        "svals": args.svals or None, "mode": args.oracle_mode,
        "seed": args.seed, "count": args.count, "kmax": args.kmax,
        "mmax": args.mmax,
    }
    ok = True
    for key in keys:
        accepted = inspect.signature(identities.REGISTRY[key][0]).parameters
        rep = identities.run(key, **{k: v for k, v in overrides.items()
                                     if v is not None and k in accepted})
        print(rep.line())
        ok = ok and rep.ok
    return 0 if ok else 1


def cmd_list_identities(args):
    for key, (_, desc) in identities.REGISTRY.items():
        print(f"{key:18s} {desc}")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(
        prog="fockcorr",
        description="Exact n-point correlation functions on integrable "
                    "modules of types B, C, D (and A), with a brute-force "
                    "Fock-space oracle.")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed cache directory (safe to delete)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_label_flags(p):
        p.add_argument("--algebra", required=True, choices=("a", "b", "c", "d"))
        p.add_argument("--level", type=_fraction, required=True,
                       help="positive integer or half-integer, e.g. 2 or 3/2")
        p.add_argument("--lambda", dest="lam", default="",
                       help="comma-separated weakly decreasing parts")
        p.add_argument("--det", action="store_true",
                       help="only validates the label and keys the corr cache: a "
                            "label and its det partner print the same function")
        p.add_argument("--order", type=_order, required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("corr", help="closed-form correlation function")
    add_label_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "eval"), default="exact")
    p.add_argument("--s", dest="svals", type=_fraction_list, default=(),
                   help="comma-separated square roots s_i of the t_i")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("qdim", help="graded dimension of a module")
    add_label_flags(p)
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("oracle", help="brute-force Fock-space trace")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--neutral", type=int, choices=(0, 1), default=0)
    p.add_argument("--sector", required=True, choices=(NS, RAMOND))
    p.add_argument("--ops", default="none",
                   help='";"-separated ops, e.g. "D,s=2;D,t=9"')
    p.add_argument("--charge", type=_charge_list, default=None,
                   help="per-pair charge filter (comma list; '-' skips a pair)")
    p.add_argument("--order", type=_order, required=True)
    p.add_argument("--graded", action="store_true",
                   help="grade the output by per-pair charge variables")
    p.add_argument("--max-states", type=_state_budget, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a registry identity (or 'all')")
    p.add_argument("identity")
    p.add_argument("--order", type=_order, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--type", choices=("B", "C", "D"), default=None)
    p.add_argument("--s", dest="svals", type=_fraction_list, default=())
    p.add_argument("--mode", dest="oracle_mode", choices=("exact", "eval"),
                   default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list-identities", help="list verify registry entries")
    p.set_defaults(func=cmd_list_identities)
    parser.list_option_words = {name: _list_option_words(p)
                                for name, p in sub.choices.items()}
    return parser


# options whose value may start with '-': a comma list led by a negative
# number (a type A label part, an s-value, a charge) or by '-' for a
# skipped oracle pair, or a rational that is read here and rejected by its
# own check (a negative fraction such as -1/2)
LIST_OPTIONS = frozenset({"--s", "--charge", "--lambda", "--order", "--level",
                          "--max-states"})


def _list_option_words(parser):
    """The words that ``parser`` reads as an option in LIST_OPTIONS: its full
    name, or, as argparse resolves abbreviations, a prefix of it that is no
    option itself and starts no other long option."""
    names = [s for s in parser._option_string_actions if s.startswith("--")]
    words = set()
    for name in LIST_OPTIONS.intersection(names):
        words.add(name)
        for end in range(3, len(name)):
            prefix = name[:end]
            if [n for n in names if n.startswith(prefix)] == [name]:
                words.add(prefix)
    return frozenset(words)


def _attach_list_values(argv, list_option_words):
    """Rewrite ``--s -2,3`` as ``--s=-2,3`` for the options in LIST_OPTIONS,
    also when named by an abbreviation (``--charg -1,0``).

    argparse reads a word that starts with '-' as an option unless it is a
    plain negative number, so '-2,3', '-1/2' or '-,1/2' would otherwise
    leave the option without its value (``--order -1/2`` would fail with
    "expected one argument", not with the order's own check).  A following
    word that looks like an option ('-h', '--json') is left alone.  The
    words after the first one naming a subcommand are read with that
    subcommand's options (``list_option_words`` maps a subcommand to its
    list-option words).
    """
    command = None
    out = []
    for word in argv:
        if (out and out[-1] in list_option_words.get(command, ())
                and word.startswith("-") and not word[1:2].isalpha()
                and not word.startswith("--")):
            out[-1] += "=" + word
        else:
            out.append(word)
            if command is None and word in list_option_words:
                command = word
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_list_values(
            sys.argv[1:] if argv is None else argv, parser.list_option_words))
        diskcache.configure(args.cache_dir)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (``| head``): stop without a message, and
        # point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except PoleError as exc:
        print(f"pole-guard violation: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except InternalCheckError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (FockcorrError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
