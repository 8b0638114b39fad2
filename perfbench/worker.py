"""One workload in one fresh process.

Prints `ready` once the library is imported and the inputs are generated,
then runs the workload's fixed case list in passes until the time budget is
spent (at least one pass), and prints one JSON line of raw results.  With
`--setup-only` it stops after `ready`.  `run.py` starts this file; it is not
meant to be run by hand.
"""

import argparse
import json
import os
import random
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_library():
    """Import pgakit from the source tree of this checkout, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pgakit", "__init__.py")):
        sys.exit(f"worker: no pgakit sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pgakit

    if not os.path.abspath(pgakit.__file__).startswith(src + os.sep):
        sys.exit(f"worker: pgakit imported from {pgakit.__file__}, not {src}")


# A timer signal samples reference() this often, also in the middle of long
# library calls.  The time a sample takes is left out of the case it
# interrupts.
REF_EVERY_S = 0.25


def reference():
    """A fixed pure-Python computation that calls no pgakit code.  Its time
    tracks how fast the machine runs the interpreter at that moment."""
    counts = {}
    for i in range(20000):
        key = (i & 511, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return counts


def passes(cases, budget_s, tally, refs, draw=None):
    """Run every case once per pass, yielding [row, start, seconds] per case
    after each pass.  Meanwhile `refs` collects [midpoint, seconds] of
    reference() samples.  Another pass starts only while the previous one
    would still fit in the budget; `draw`, when given, makes its cases."""
    paused = [0.0]

    def sample(*_):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        refs.append([(t0 + t1) / 2, t1 - t0])
        paused[0] += t1 - t0

    started = time.perf_counter()
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    try:
        while True:
            case_s = []
            for case in cases:
                p0 = paused[0]
                t0 = time.perf_counter()
                try:
                    case.run(tally)
                except Exception as exc:  # counted as a failure; the run goes on
                    tally.case_error(case.row, exc)
                case_s.append([case.row, t0, time.perf_counter() - t0 - (paused[0] - p0)])
            yield case_s
            if time.perf_counter() + sum(dt for _, _, dt in case_s) > started + budget_s:
                return
            if draw:
                cases = draw()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_library()
    import workloads

    rng = random.Random(args.seed)
    cases = workloads.WORKLOADS[args.workload](rng)
    print("ready", flush=True)
    if args.setup_only:
        return

    tally = workloads.Tally()
    out = {"refs": []}
    if args.trace:
        import tracing

        out["case_s"] = list(passes(cases, args.seconds / 2, tally, out["refs"]))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out["traced_case_s"], bounds = [], []
            for case_s in passes(cases, args.seconds / 2, tally, out["refs"]):
                first = bounds[-1][1] if bounds else 0
                bounds.append((first, len(tracer.spans)))
                out["traced_case_s"].append(case_s)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        out["layers"] = [tracing.aggregate(tracer.spans[a:b]) for a, b in bounds]
        out["spans"] = len(tracer.spans)
    else:
        # Each pass draws fresh cases from the seeded generator, so one run
        # sees several draws; the traced run keeps one draw for all passes.
        def draw():
            return workloads.WORKLOADS[args.workload](rng)

        out["case_s"] = list(passes(cases, args.seconds, tally, out["refs"], draw))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        unreached=tally.unreached,
        causes=dict(tally.causes),
    )
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
