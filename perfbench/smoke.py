#!/usr/bin/env python3
"""Smoke test of the native benchmark.

    python3 perfbench/smoke.py [--seconds 2]

Runs every workload named in BENCHMARK.json, end to end and traced, for
a short time.  Each run must report "correct": true with zero failed
operations and emit exactly the metrics BENCHMARK.json names for its
mode, with the declared units.  The traced runs must also show the
shipped configuration (bg.wakeups == 0, and run.py's cross-check of
libhoard.so's counters against the traced core's) and cost where the
workloads were designed to put it.  Exits non-zero on the first failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s trace=%d: exit %d\n%s" % (workload, trace, proc.returncode,
                                                proc.stderr[-3000:]))
    return json.loads(lines[-1])


def check(result, declared, label):
    if not result["correct"] or result["failed"] != 0:
        sys.exit("%s: correct=%s failed=%d" % (label, result["correct"],
                                              result["failed"]))
    if result["attempted"] < 1:
        sys.exit("%s: no operations attempted" % label)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        sys.exit("%s: metrics differ from BENCHMARK.json: %s" %
                 (label, sorted(set(want.items()) ^ set(got.items()))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layers = {}
    for w in bench["workloads"]:
        name = w["name"]
        check(run(name, args.seconds, 0), bench["end_to_end"], name + " e2e")
        traced = run(name, args.seconds, 1)
        check(traced, bench["per_layer"], name + " traced")
        layers[name] = {k: v["value"] for k, v in traced["metrics"].items()}
        if layers[name]["bg.wakeups"] != 0:
            sys.exit("%s: background engine ran in the shipped config" % name)
        print("ok %s" % name)
    share = {w: m["os.share"] for w, m in layers.items()}
    if max(share, key=share.get) != "medium_buffers" or share["kv_churn"] > 0.01:
        sys.exit("os.share misplaced: %s" % share)
    if (layers["xthread_handoff"]["heap.remote_free_frac"] < 0.9 or
            layers["kv_churn"]["heap.remote_free_frac"] > 0.01):
        sys.exit("heap.remote_free_frac misplaced")
    print("ok: cost lands where the workloads put it")


if __name__ == "__main__":
    main()
