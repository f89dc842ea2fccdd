#!/usr/bin/env python3
"""Small-size self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a few DAGs per client and asserts:
  * --trace 0 prints exactly the end-to-end metrics and --trace 1 exactly
    the per-layer metrics, each with the unit BENCHMARK.json gives it;
  * a deliberately wrong expected checksum makes the output check fail
    (nonzero exit, no result line);
  * the simulated metrics equal what faastcc_sim_cli --json prints for the
    same spec and seed, at the CLI's printed precision.
Exits 1 on the first failed assertion.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

DAGS = 12
SEED = 7


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--dags", str(DAGS), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)


def result_of(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (what, proc.returncode, proc.stderr[-3000:]))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(res)))
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail("%s: %r" % (what, {k: res[k] for k in res if k != "metrics"}))
    return res


def check_names(res, declared, what):
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if sorted(got) != sorted(want):
        fail("%s: missing %s, extra %s" % (
            what, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m["unit"] != want[name]:
            fail("%s: %s unit %r, BENCHMARK.json says %r" % (
                what, name, m["unit"], want[name]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            fail("%s: %s value %r" % (what, name, m["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bin_dir = run.build()
    for w in spec["workloads"]:
        name = w["name"]
        e2e = result_of(bench(name, 0), name + " --trace 0")
        check_names(e2e, spec["end_to_end"], name + " --trace 0")
        layers = result_of(bench(name, 1), name + " --trace 1")
        check_names(layers, spec["per_layer"], name + " --trace 1")

        wrong = bench(name, 0, "--expect-checksum", "1:2:3")
        if wrong.returncode == 0 or wrong.stdout.strip():
            fail(name + ": a wrong expected checksum passed the output check")

        # Same spec and seed through the repo's CLI.
        spec_file = os.path.join(HERE, "workloads", run.WORKLOADS[name][0])
        cli = subprocess.run(
            [os.path.join(bin_dir, "faastcc_sim_cli"), "--spec=" + spec_file,
             "--seed=%d" % SEED, "--dags=%d" % DAGS, "--json"],
            capture_output=True, text=True)
        if cli.returncode != 0:
            fail(name + ": faastcc_sim_cli exited %d" % cli.returncode)
        ref = json.loads(cli.stdout.strip().splitlines()[-1])
        rec = run.run_once(os.path.join(bin_dir, "perfbench"), "run", name,
                           SEED, DAGS)
        m = e2e["metrics"]
        pairs = [
            ("sim_latency_p50_ms", "%.4f" % m["sim_latency_p50_ms"]["value"],
             "%.4f" % ref["latency_med_ms"]),
            ("sim_latency_p99_ms", "%.4f" % m["sim_latency_p99_ms"]["value"],
             "%.4f" % ref["latency_p99_ms"]),
            ("sim_throughput_dags_per_s",
             "%.2f" % m["sim_throughput_dags_per_s"]["value"],
             "%.2f" % ref["throughput"]),
            ("client.failed_share",
             "%.5f" % layers["metrics"]["client.failed_share"]["value"],
             "%.5f" % ref["abort_rate"]),
            ("sim_events", rec["sim_events"], ref["sim_events"]),
            ("committed", rec["committed"], int(ref["committed"])),
        ]
        for what, ours, theirs in pairs:
            if ours != theirs:
                fail("%s: %s = %s, faastcc_sim_cli says %s" % (
                    name, what, ours, theirs))
        print("selftest: %s ok" % name)
    print("selftest: ok")


if __name__ == "__main__":
    main()
