#!/usr/bin/env python3
"""Native allocator benchmark: libhoard.so as it ships, layer by layer.

    python3 perfbench/run.py --workload kv_churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The first run builds the repository's
tree and the two benchmark programs into .bench_build/perfbench.

--trace 0 (end to end): each workload is a closed loop of 4 threads in
its own process, started under LD_PRELOAD=libhoard.so with every
HOARD_* variable removed, so it measures the shipped configuration.
Several such children run per invocation and every metric is the
median over them.  Set-up time is measured from the exec call to the
child's first workload operation, over extra set-up-only children too.
A glibc run of the same workload, and glibc's set-up, are printed as
context, with the hoard/glibc ratio; they are not metrics.

--trace 1 (per layer): the same workload against an in-process core
built like the shipped one, with spans around sampled calls and a
timing page-provider decorator (perfbench_traced), plus the same run
untraced for the tracing overhead, a single-thread 64 B pair ladder
(core, facade, shim), and a cross-check of the traced counts against
the counters libhoard.so kept in an end-to-end child, which fails the
run where they disagree beyond XCHECK's tolerances.

Every object is stamped and verified before it is freed; a NULL return,
a bad stamp, a short malloc_usable_size or a crashed child fails the
run.  The last line of stdout is the JSON result.  README.md maps each
per-layer metric to the end-to-end metric and workload it should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_BIN = os.path.join(BUILD, "perfbench_workload")
TRACED_BIN = os.path.join(BUILD, "perfbench_traced")
SHIM = os.path.join(BUILD, "hoard", "src", "shim", "libhoard.so")

# The programs choose their own sample period and warm-up per workload
# (workloads.h, harness.h).
WORKLOADS = ["kv_churn", "xthread_handoff", "medium_buffers"]

END_TO_END = [
    ("throughput_ops_s", "ops/s"),
    ("malloc_p50_ns", "ns"),
    ("malloc_p99_ns", "ns"),
    ("free_p50_ns", "ns"),
    ("free_p99_ns", "ns"),
    ("peak_rss_mib", "MiB"),
    ("end_rss_mib", "MiB"),
    ("setup_s", "s"),
]

# End-to-end children in the order they run, glibc interleaved with
# hoard.  Shares of --seconds: the hoard children share most of it,
# the glibc reference the rest.  Traced: two plain and two traced runs
# of the core, one end-to-end cross-check child, two ladders.
ORDER = ["hoard"] * 3 + ["glibc"] + ["hoard"] * 3 + ["glibc"] + ["hoard"] * 3
HOARD_SHARE = 0.09
GLIBC_SHARE = 0.04
SETUP_PROBES = 15
CORE_SHARE = 0.15
XCHECK_SHARE = 0.15
LADDER_SHARE = 0.08

CHILD_TIMEOUT_S = 120

# Per-layer metrics (--trace 1) and their units; README.md says what
# each one measures and which end-to-end metric it should move.
PER_LAYER = {
    "entry.core_pair_ns": "ns",
    "entry.facade_pair_ns": "ns",
    "entry.shim_pair_ns": "ns",
    "entry.shim_self_ns": "ns",
    "core.alloc_ns_p50": "ns",
    "core.alloc_ns_p99": "ns",
    "core.free_ns_p50": "ns",
    "core.free_ns_p99": "ns",
    "core.self_ns_per_op": "ns",
    "core.samples": "count",
    "magazine.refills_per_kop": "1/kop",
    "magazine.flushes_per_kop": "1/kop",
    "heap.remote_free_frac": "ratio",
    "heap.remote_pushes_per_kop": "1/kop",
    "heap.remote_drains_per_kop": "1/kop",
    "heap.transfers_per_kop": "1/kop",
    "global.fetches_per_kop": "1/kop",
    "global.bin_hit_ratio": "ratio",
    "reuse_cache.pops_per_kop": "1/kop",
    "reuse_cache.pushes_per_kop": "1/kop",
    "huge.allocs_per_kop": "1/kop",
    "os.map_calls_per_kop": "1/kop",
    "os.unmap_calls_per_kop": "1/kop",
    "os.purge_calls_per_kop": "1/kop",
    "os.map_ns_p50": "ns",
    "os.unmap_ns_p50": "ns",
    "os.ns_per_op": "ns",
    "os.share": "ratio",
    "os.fresh_superblocks_per_kop": "1/kop",
    "footprint.blowup": "ratio",
    "footprint.committed_peak_mib": "MiB",
    "bg.wakeups": "count",
    "trace.overhead_pct": "%",
    "xcheck.shim_huge_allocs_per_kop": "1/kop",
    "xcheck.shim_remote_frees_per_kop": "1/kop",
    "xcheck.shim_global_fetches_per_kop": "1/kop",
    "xcheck.shim_batch_refills_per_kop": "1/kop",
}

# Counters libhoard.so and the traced core both keep, compared per
# thousand pairs: the traced per-layer metric that reports each, and
# the share of the larger value by which the two may differ before the
# traced instance no longer explains the shipped one (None: printed
# only, as remote pushes depend on contention).  Below XCHECK_FLOOR per
# kop a counter counts as idle on both sides.
XCHECK = {
    "huge_allocs": ("huge.allocs_per_kop", 0.05),
    "remote_frees": ("heap.remote_pushes_per_kop", None),
    "global_fetches": ("global.fetches_per_kop", 0.5),
    "batch_refills": ("magazine.refills_per_kop", 0.5),
}
XCHECK_FLOOR = 0.01


class ChildFailed(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "shim", "shim.cc")):
        log("perfbench: no allocator sources at %s/src; run from the root "
            "of a checkout" % ROOT)
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench_all", "-j", "4"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return True


def child_env(preload):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HOARD_") and k != "LD_PRELOAD"}
    if preload:
        env["LD_PRELOAD"] = SHIM
    return env


def run_child(argv, preload):
    """Runs a benchmark program; returns (exec time in ns, its JSON)."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv, env=child_env(preload), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed("timed out: %s" % " ".join(argv))
    if proc.returncode != 0:
        raise ChildFailed("exit %d: %s\n%s" % (proc.returncode, " ".join(argv),
                                              proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    try:
        return start, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed("no result from: %s" % " ".join(argv))


def workload_argv(workload, seed, seconds):
    return [WORKLOAD_BIN, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]


def checked(result, preload, tally):
    """Adds a child's counts to @p tally; a shim child must prove the
    shim served it."""
    tally["attempted"] += int(result["attempted"])
    tally["failed"] += int(result["failed"])
    served = "hoard" in result and result["hoard"]["allocs"] >= result["pairs"]
    if preload != served:
        raise ChildFailed("%s child was %sserved by libhoard.so" %
                          ("preloaded" if preload else "glibc",
                           "not " if preload else ""))


def per_kop(counters, pairs):
    return {name: counters[name] * 1000.0 / pairs for name in XCHECK}


def set_up_s(start, result):
    return (result["first_op_ns"] - start) / 1e9


def end_to_end(args, tally):
    # Set-up probes alternate with glibc ones, whose set-up (process
    # start and loading, no allocator) is printed as context.
    setup = {"hoard": [], "glibc": []}
    argv = workload_argv(args.workload, args.seed, 1.0) + ["--setup-only"]
    for k in range(SETUP_PROBES):
        for side in setup:
            start, result = run_child(argv, side == "hoard")
            setup[side].append(set_up_s(start, result))
    # A discarded child first: the first process after other work runs
    # off the steady state for a few seconds.
    argv = workload_argv(args.workload, args.seed * 16 + 15,
                         args.seconds * HOARD_SHARE)
    checked(run_child(argv, True)[1], True, tally)
    runs = {"hoard": [], "glibc": []}
    for k, side in enumerate(ORDER):
        preload = side == "hoard"
        share = HOARD_SHARE if preload else GLIBC_SHARE
        argv = workload_argv(args.workload, args.seed * 16 + k,
                             args.seconds * share)
        start, result = run_child(argv, preload)
        checked(result, preload, tally)
        setup[side].append(set_up_s(start, result))
        result["peak_rss_mib"] = result["peak_rss_kib"] / 1024.0
        result["end_rss_mib"] = result["end_rss_kib"] / 1024.0
        result["setup_s"] = setup[side][-1]
        runs[side].append(result)

    def median(side, name):
        return statistics.median(r[name] for r in runs[side])

    metrics = {name: median("hoard", name) for name, _ in END_TO_END[:-1]}
    metrics["setup_s"] = statistics.median(setup["hoard"])

    print("%s: %d hoard children (LD_PRELOAD=libhoard.so), %d glibc; "
          "medians" % (args.workload, len(runs["hoard"]), len(runs["glibc"])))
    print("  %-18s %16s %-6s %16s %8s" % ("metric", "hoard", "unit", "glibc",
                                          "ratio"))
    for name, unit in END_TO_END:
        glibc = median("glibc", name)
        print("  %-18s %16.6g %-6s %16.6g %8.3f" % (
            name, metrics[name], unit, glibc, metrics[name] / glibc))
    print("  samples per child: malloc %d, free %d (1 in %d calls); "
          "set-up samples: hoard %d, glibc %d" % (
              median("hoard", "malloc_samples"), median("hoard", "free_samples"),
              runs["hoard"][0]["period"], len(setup["hoard"]),
              len(setup["glibc"])))
    kops = {name: statistics.median(
        per_kop(r["hoard"], r["pairs"])[name] for r in runs["hoard"])
        for name in XCHECK}
    print("  libhoard.so counters per kop: " +
          ", ".join("%s %.4g" % kv for kv in kops.items()))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}


def cross_check(workload, shim_kop, metrics):
    """Compares libhoard.so's counters with the traced core's; raises
    ChildFailed where they are further apart than XCHECK allows."""
    print("%s: cross-check, counters per kop (libhoard.so child vs traced "
          "core)" % workload)
    print("  %-16s %12s %12s  %s" % ("counter", "libhoard.so", "traced",
                                     "traced metric"))
    apart = []
    for name, (traced_name, tolerance) in XCHECK.items():
        shim, traced = shim_kop[name], metrics[traced_name]
        metrics["xcheck.shim_%s_per_kop" % name] = shim
        print("  %-16s %12.4g %12.4g  %s" % (name, shim, traced, traced_name))
        high = max(shim, traced)
        if (tolerance is not None and high > XCHECK_FLOOR and
                high - min(shim, traced) > tolerance * high):
            apart.append(name)
    if apart:
        raise ChildFailed("%s: the traced core does not match libhoard.so on "
                          "%s" % (workload, ", ".join(apart)))


def per_layer(args, tally):
    seconds = repr(args.seconds * CORE_SHARE)

    def core(plain):
        argv = [TRACED_BIN, "--workload", args.workload, "--seed",
                str(args.seed), "--seconds", seconds]
        _, result = run_child(argv + (["--plain"] if plain else []), False)
        tally["attempted"] += int(result["attempted"])
        tally["failed"] += int(result["failed"])
        return result

    ladder_s = repr(args.seconds * LADDER_SHARE)
    _, core_ladder = run_child([TRACED_BIN, "--ladder", "--seconds", ladder_s],
                               False)
    _, shim_ladder = run_child([WORKLOAD_BIN, "--ladder", "--seconds", ladder_s],
                               True)
    # ABBA, so a drift in host speed hits both sides alike.
    plain = [core(True)]
    traced = [core(False), core(False)]
    plain.append(core(True))
    _, shim = run_child(workload_argv(args.workload, args.seed,
                                      args.seconds * XCHECK_SHARE), True)
    checked(shim, True, tally)

    names = list(traced[0]["metrics"])
    metrics = {name: statistics.median(t["metrics"][name] for t in traced)
               for name in names}
    metrics["entry.core_pair_ns"] = core_ladder["core_pair_ns"]
    metrics["entry.facade_pair_ns"] = shim_ladder["facade_pair_ns"]
    metrics["entry.shim_pair_ns"] = shim_ladder["shim_pair_ns"]
    metrics["entry.shim_self_ns"] = shim_ladder["shim_self_ns"]
    plain_ops = statistics.median(p["throughput_ops_s"] for p in plain)
    traced_ops = statistics.median(t["throughput_ops_s"] for t in traced)
    metrics["trace.overhead_pct"] = 100.0 * (plain_ops - traced_ops) / plain_ops
    metrics["bg.wakeups"] = max(metrics["bg.wakeups"],
                                shim["bg_wakeups_total"])

    cross_check(args.workload, per_kop(shim["hoard"], shim["pairs"]), metrics)
    print("%s: per-layer metrics (traced core, median of %d runs)" %
          (args.workload, len(traced)))
    for name in sorted(metrics):
        print("  %-34s %.6g" % (name, metrics[name]))
    if set(metrics) != set(PER_LAYER):
        raise ChildFailed("per-layer metrics differ from PER_LAYER: %s" %
                          sorted(set(metrics) ^ set(PER_LAYER)))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not build():
        return 2
    tally = {"attempted": 0, "failed": 0}
    try:
        metrics = (per_layer if args.trace else end_to_end)(args, tally)
        correct = tally["failed"] == 0
    except ChildFailed as err:
        log("perfbench: %s" % err)
        metrics, correct = {}, False
        tally["failed"] += 1
        tally["attempted"] = max(tally["attempted"], 1)
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
