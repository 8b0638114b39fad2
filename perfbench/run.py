#!/usr/bin/env python3
"""Time to a verdict for pgakit's pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 35 --trace 0

Workloads: verify-mix, witness-exec, large-threads (see workloads.py and
README.md).  Each run starts the workload in a fresh worker process, which
generates its inputs from --seed, checks every verdict against its known
answer and runs passes over freshly drawn case lists for --seconds.

--trace 0 prints the end-to-end metrics: setup_s (median over several
process starts, each importing the library and generating the inputs),
wall_s (seconds for one pass over the case list), verdict_s.p50 and
verdict_s.p99 (per-case seconds to a verdict) and peak_rss_mb, plus
fail_ratio in the report.  Case times are scaled to a reference speed
(see at_reference_speed).

--trace 1 runs half the time untraced and half with every public pipeline
function wrapped in a span, and prints the per-layer metrics named in
BENCHMARK.json, medians over traced passes.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-mix", "witness-exec", "large-threads")
# Process starts measured for setup_s: the timed worker plus these.
SETUP_PROBES = 8
# Every worker of one run ends within this many seconds of the run's start.
RUN_LIMIT_S = 170
# Seconds that worker.reference() takes on a quiet machine (a 2-vCPU x86-64
# VM, Python 3.11).  Case times are reported at that speed.
REF_NOMINAL_S = 0.004
# Reference samples within this many seconds of a case set its local speed.
REF_NEAR_S = 0.3

# Per-span sums recorded by tracing.aggregate, plus the measures derived
# from them.
MEASURES = {"calls", "failed", "self_s", "total_s", "states_in", "states_out",
            "instrs_out", "kept_ratio"}


class BenchError(Exception):
    pass


def run_worker(args, deadline, setup_only=False, spans=None):
    """Start one worker; return (seconds from start to `ready`, its result)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - started
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def at_reference_speed(samples, refs):
    """Seconds of each [row, start, seconds] sample scaled by REF_NOMINAL_S
    over the median of the reference samples taken around it, so that the
    spells in which a shared machine runs everything slower cancel out."""
    refs.sort()
    at = [t for t, _ in refs]
    scaled = []
    for _, start, dt in samples:
        # the sample taken just before the case is always included
        lo = min(bisect.bisect_left(at, start - REF_NEAR_S), bisect.bisect_right(at, start) - 1)
        near = refs[lo:bisect.bisect_right(at, start + dt + REF_NEAR_S)]
        scaled.append(dt * REF_NOMINAL_S / statistics.median(r for _, r in near))
    return scaled


def end_to_end(args, deadline):
    # Half the extra starts before the timed worker and half after it, so
    # that the median spans more than one spell of the machine.
    setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES // 2)]
    setup_s, res = run_worker(args, deadline)
    setups.append(setup_s)
    setups += [run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    passes = [at_reference_speed(p, res["refs"]) for p in res["case_s"]]
    samples = [dt for p in passes for dt in p]
    beyond = len(samples) // 100
    raw = statistics.median(sum(dt for _, _, dt in p) for p in res["case_s"])
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} process starts"),
        "wall_s": (statistics.median(sum(p) for p in passes),
                   f"median of {len(passes)} passes; {raw:.4g} s unscaled"),
        "verdict_s.p50": (statistics.median(samples), f"{len(samples)} cases"),
        "verdict_s.p99": (percentile(samples, 99), f"{len(samples)} cases, {beyond} beyond p99"
                          + ("" if beyond >= 10 else "; fewer than ten, so this is near the slowest case")),
        "peak_rss_mb": (res["peak_rss_mb"], "worker process"),
    }
    speed = statistics.median(r for _, r in res["refs"]) / REF_NOMINAL_S
    print(f"machine ran the reference {speed:.3g} times slower than nominal (median of {len(res['refs'])} samples)")
    print(f"{'row':16s} {'cases':>8s} {'seconds':>10s}  (per pass at reference speed; median of {len(passes)} passes)")
    for row in dict.fromkeys(row for row, _, _ in res["case_s"][0]):
        count = sum(r == row for r, _, _ in res["case_s"][0])
        per_pass = statistics.median(sum(dt for (r, _, _), dt in zip(raw_p, p) if r == row)
                                     for raw_p, p in zip(res["case_s"], passes))
        print(f"{row:16s} {count:8d} {per_pass:10.4f}")
    return res, metrics


def per_layer(args, deadline, names):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"{args.workload}.spans.tsv")
    _, res = run_worker(args, deadline, spans=spans)
    overhead = (statistics.median(sum(at_reference_speed(p, res["refs"])) for p in res["traced_case_s"])
                / statistics.median(sum(at_reference_speed(p, res["refs"])) for p in res["case_s"]))
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            metrics[name] = (overhead, "traced over untraced wall_s")
            continue
        span, measure = name.rsplit(".", 1)
        if measure not in MEASURES:
            raise BenchError(f"unknown measure in per-layer metric {name}")

        def value(layers):
            row = layers.get(span, {})
            if measure == "kept_ratio":
                return row["states_out"] / row["states_in"] if row.get("states_in") else 0.0
            return row.get("states_out" if measure == "instrs_out" else measure, 0)

        metrics[name] = (statistics.median(value(layers) for layers in res["layers"]),
                         f"median of {len(res['layers'])} traced passes")
    print(f"{res['spans']} spans written to {os.path.relpath(spans, ROOT)}")
    return res, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    try:
        if args.trace:
            res, metrics = per_layer(args, deadline, [m["name"] for m in spec["per_layer"]])
        else:
            res, metrics = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "witness-exec":
        print("note: witness rows n=4..6 are not run: n=4 alone costs about 22 s in"
              " run_exec; they wait for faster compose and abstract_tau (ROADMAP open item 2)")

    attempted, failed = res["attempted"], res["failed"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        value, how = metrics[m["name"]]
        print(f"{m['name']:44s} {value:14.6g} {m['unit']:7s} ({how})")
    print(f"{'fail_ratio':44s} {failed / attempted:14.6g} {'ratio':7s} ({failed} of {attempted} operations)")
    for cause, count in sorted(res["causes"].items()):
        print(f"  failed: {count} x {cause}")
    print(json.dumps({
        "correct": res["wrong"] == 0 and res["unreached"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
