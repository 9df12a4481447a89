#!/usr/bin/env python3
"""Steadiness test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Runs a shrunk copy (--scale small) of every workload in BENCHMARK.json:
traced twice and untraced once. It fails unless

  * every run is correct with zero failed points;
  * every deterministic count repeats exactly between the two traced
    runs (cycles, flit hops, router counts, proof counts, modelled
    latency / energy / completion, ...);
  * the untraced run prints exactly the end_to_end metric names and
    the traced runs exactly the per_layer names of BENCHMARK.json,
    each with the unit declared there.

Takes about half a minute.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics whose value is a function of the inputs alone.
DETERMINISTIC = [
    "check.proofs", "model.proofs",
    "sim.step_samples", "sim.idle_skip_ratio", "sim.cycles", "sim.flit_hops",
    "sim.avg_latency_cycles", "sim.p99_latency_cycles",
    "router.va_arbs", "router.sa_arbs", "router.buffer_writes",
    "router.mirror_ties",
    "fault.completion", "fault.stranded_packets", "fault.timed_out_points",
    "fault.drain_cycles",
    "svc.replies", "svc.mshr_throttled", "svc.timeouts",
    "svc.high_p99_rtt_cycles",
    "power.energy_nj_per_packet",
]
# Not exp.json_bytes: the sweep JSON carries per-point wall times, so
# its length moves by a digit or two between runs.


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "small"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    def check_names(workload, result, kind):
        want = [m["name"] for m in bench[kind]]
        got = list(result["metrics"])
        expect(got == want, f"{workload}: {kind} names {got} != {want}")
        for name, m in result["metrics"].items():
            expect(m["unit"] == units.get(name),
                   f"{workload}: {name} unit {m['unit']} != {units.get(name)}")

    for w in (w["name"] for w in bench["workloads"]):
        untraced = run(w, seed, 0)
        traced = [run(w, seed, 1), run(w, seed, 1)]
        for r in [untraced] + traced:
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w}: correct={r['correct']} failed={r['failed']} "
                   f"attempted={r['attempted']}")
        check_names(w, untraced, "end_to_end")
        for r in traced:
            check_names(w, r, "per_layer")
        a, b = (r["metrics"] for r in traced)
        for name in DETERMINISTIC:
            expect(name in a and name in b and a[name]["value"] == b[name]["value"],
                   f"{w}: {name} did not repeat: {a.get(name)} vs {b.get(name)}")
        print(f"{w}: {'ok' if not problems else 'FAILED'}", flush=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
