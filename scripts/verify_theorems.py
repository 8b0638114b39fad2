#!/usr/bin/env python3
"""Seeded corpus runs for the four behaviour-preservation properties.

Each property gets its own corpus (derived from --seed) and prints one
summary line; exit status is nonzero if any case fails.

    python3 scripts/verify_theorems.py --count 500 --seed 7
"""

import argparse
import sys
import time

from pgakit.properties import PROPERTIES, counter_peak, draw_cases
from pgakit.syntax import EXPANSION_LIMIT


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-len", type=int, default=16)
    ap.add_argument("--max-states", type=int, default=8)
    ap.add_argument(
        "--props",
        nargs="*",
        default=list(PROPERTIES),
        choices=list(PROPERTIES),
    )
    args = ap.parse_args(argv)
    if args.count < 0:
        ap.error(f"--count must be at least 0, not {args.count}")
    for flag, value in (("--max-len", args.max_len), ("--max-states", args.max_states)):
        if not 1 <= value <= EXPANSION_LIMIT:
            ap.error(f"{flag} must be from 1 to {EXPANSION_LIMIT}, not {value}")

    bad = 0
    for name in args.props:
        prop = PROPERTIES[name]
        size = args.max_states if name == "roundtrip" else args.max_len
        started = time.monotonic()
        failures = []
        peak = 0
        for case in draw_cases(prop, args.seed, args.count, size):
            if not prop.check(case):
                failures.append(prop.show(case))
            elif name == "counter":
                peak = max(peak, counter_peak(case))
        elapsed = time.monotonic() - started
        passed = args.count - len(failures)
        tail = ""
        if name == "counter":
            tail = f"  [peak counter {peak} (bound {size + 2})]"
        print(f"{name:10s} {passed}/{args.count} pass in {elapsed:.2f}s{tail}")
        for text in failures[:5]:
            print(f"  FAIL {text}")
        bad += len(failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
