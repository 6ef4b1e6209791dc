#!/usr/bin/env python3
"""Run the whole identity registry with per-identity timing.

Usage: python scripts/run_verification_suite.py [identity ...]

Exit codes: 0 all pass, 1 a failure, 2 an unknown identity name.
"""

import sys
import time

from fockcorr import identities


def main(argv):
    subset = set(argv) or None
    unknown = sorted(set(argv) - set(identities.REGISTRY))
    if unknown:
        print(f"unknown identity {', '.join(map(repr, unknown))}; "
              f"see fockcorr list-identities", file=sys.stderr)
        return 2
    failures = 0
    t_total = time.monotonic()
    for key in identities.REGISTRY:
        if subset and key not in subset:
            continue
        t0 = time.monotonic()
        rep = identities.run(key)
        dt = time.monotonic() - t0
        print(f"{dt:7.2f}s  {rep.line()}")
        if not rep.ok:
            failures += 1
    print(f"total {time.monotonic() - t_total:.1f}s, "
          f"{'all identities pass' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
