#!/usr/bin/env python3
"""Print exact q-expansions of the small one-point functions and a
q-dimension table, as a quick exploration of the formulas.

Usage: python scripts/correlator_tables.py [ORDER]
"""

import sys
from fractions import Fraction

from fockcorr.cli import render_text
from fockcorr.combinat import ModuleLabel, enumerate_labels
from fockcorr.correlators import half_level_base, npoint, qdim
from fockcorr.qseries import NS, RAMOND, RatFuncRing


def main(argv):
    order = Fraction(argv[0]) if argv else Fraction(4)
    ring = RatFuncRing(("s1",))
    u = (ring.var("s1"),)

    print(f"== one-point functions to order q^{order} (t = s1^2) ==")
    for label in (ModuleLabel("d", 1, (0,)),
                  ModuleLabel("d", 1, (1,)),
                  ModuleLabel("c", 1, (0,)),
                  ModuleLabel("c", 1, (1,)),
                  ModuleLabel("b", 1, (0,))):
        print(f"\n-- {label.algebra} level {label.level} lambda={label.lam}"
              + (" (spin)" if label.algebra == "b" else ""))
        print(render_text(npoint(label, u, ring, order)))

    print(f"\n== level-1/2 bases ==")
    for sector in (NS, RAMOND):
        print(f"\n-- sector {sector}, n = 1")
        print(render_text(half_level_base(sector, u, ring, order)))

    print(f"\n== q-dimensions to order q^{order} ==")
    for algebra, level in (("d", Fraction(1)), ("c", Fraction(1)),
                           ("b", Fraction(1)), ("d", Fraction(3, 2)),
                           ("b", Fraction(3, 2))):
        for label in enumerate_labels(algebra, level, min(order, 3)):
            series = qdim(label, order)
            terms = ", ".join(f"q^{e}:{c}" for e, c in series.items()[:6])
            print(f"{algebra} level {level} lambda={label.lam}: {terms}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
