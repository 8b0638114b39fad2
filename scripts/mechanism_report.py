#!/usr/bin/env python3
"""Size report for the generic execution mechanism across alphabet sizes.

The mechanism depends only on the set of basic instructions, so the table
below is fixed for every program over a given alphabet. With m basics the
state count is 16m + 16: a head-dispatch chain (3m + 3), per-instruction
enactments (13m + 5), the skip loop (6), and the dead and end states.

    python3 scripts/mechanism_report.py --max-basics 4
    python3 scripts/mechanism_report.py --dump 1
"""

import argparse
import sys

from pgakit import Basic, build_exec_mechanism, print_thread
from pgakit.execmech import Alphabet


def _basics(m):
    return [Basic("f", chr(ord("a") + i)) for i in range(m)]


def _mechanism(m):
    return build_exec_mechanism(Alphabet.from_basics(_basics(m)))


def report(max_basics):
    print(f"{'basics':>6} {'states':>6} {'dispatch':>8} {'enact':>6} "
          f"{'skip':>4} {'misc':>4}  formula")
    for m in range(1, max_basics + 1):
        mech = _mechanism(m)
        names = list(mech.states)
        dispatch = sum(1 for n in names if n.startswith("q"))
        enact = sum(1 for n in names if n.startswith("e"))
        skip = sum(1 for n in names if n.startswith("s"))
        misc = len(names) - dispatch - enact - skip
        ok = "16m+16 ok" if len(names) == 16 * m + 16 else "MISMATCH"
        print(f"{m:>6} {len(names):>6} {dispatch:>8} {enact:>6} "
              f"{skip:>4} {misc:>4}  {ok}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-basics", type=int, default=4)
    ap.add_argument("--dump", type=int, metavar="M",
                    help="print the full mechanism thread for M basics")
    args = ap.parse_args(argv)
    if args.max_basics < 1:
        ap.error("--max-basics needs at least one basic instruction")
    if args.dump is not None:
        if args.dump < 1:
            ap.error("--dump needs at least one basic instruction")
        print(print_thread(_mechanism(args.dump)))
        return 0
    report(args.max_basics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
