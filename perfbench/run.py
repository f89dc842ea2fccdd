#!/usr/bin/env python3
"""Repository benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from source (CMake, Release) into .bench_build/, then
runs the named workload for about S seconds.  Every repeat runs in a fresh
process (perfbench/perfbench.cc), so peak RSS and set-up time belong to that
repeat alone, and every figure reported is a median over repeats.

--trace 0 prints the end-to-end metrics of untraced runs.  --trace 1 runs
rounds of plain, traced and oracle-attached (or detached) repeats plus one
replay process and prints the per-layer metrics; see perfbench/README.md for
what each one measures and which end-to-end metric it should move.

Output check, on every invocation: all repeats and all variants (plain,
traced, oracle on/off, replay) must produce identical schedule checksums
(sim events, messages, commits) and identical simulated results; every DAG
must commit; the oracle must report no violation.  Any failure exits 1
without printing a result.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
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

# Workload name -> (RunSpec file in workloads/, oracle variant).  The oracle
# variant is the run compared against `plain` for check.hook_s: "checked"
# attaches the oracle to an unchecked workload, "unchecked" detaches it
# from a checked one, None means the system has no oracle.  Why each
# workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "faastcc-paper": ("faastcc-paper.json", "checked"),
    "hydro-paper": ("hydro-paper.json", None),
    "faastcc-scale-checked": ("faastcc-scale-checked.json", "unchecked"),
}

# Repeats that end-to-end medians need even when --seconds is short.
MIN_REPEATS = 3


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench/ into .bench_build/; returns that
    directory.  Raises CalledProcessError when the sources are missing."""
    out = os.path.join(ROOT, ".bench_build")
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out


def run_once(binary, mode, workload, seed, dags, variant="plain"):
    """One repeat in a fresh process; returns its JSON record."""
    cmd = [binary, mode,
           "--spec=" + os.path.join(HERE, "workloads", WORKLOADS[workload][0]),
           "--seed=%d" % seed]
    if mode == "run":
        cmd.append("--variant=" + variant)
    if dags:
        cmd.append("--dags=%d" % dags)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CheckFailed("%s %s exited %d: %s" % (
            mode, variant, proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise CheckFailed("%s %s printed nothing" % (mode, variant))
    rec = json.loads(lines[-1])
    if rec.get("violations", 0):
        raise CheckFailed("oracle violations in %s run:\n%s" % (
            variant, proc.stderr.strip()[-2000:]))
    return rec


CHECKSUM = ("sim_events", "messages", "committed")
# Simulated results: deterministic per seed, so every run must agree.
SIM = ("latency_p50_ms", "latency_p99_ms", "throughput", "dag_attempts",
       "dag_aborts", "bytes", "cache_lookups", "metadata_samples",
       "storage_episodes")


def check_outputs(records, expect=None):
    """Raises CheckFailed unless every record ran the same schedule.

    `expect` is an optional (sim_events, messages, committed) triple that
    the first record must match as well.
    """
    ref = records[0]
    if expect is not None and tuple(ref[k] for k in CHECKSUM) != expect:
        raise CheckFailed("checksum %s != expected %s" % (
            tuple(ref[k] for k in CHECKSUM), expect))
    for rec in records:
        keys = CHECKSUM + (SIM if rec["variant"] != "replay" else ())
        for k in keys:
            if rec[k] != ref[k]:
                raise CheckFailed("%s differs: %s run %r vs %s run %r" % (
                    k, rec["variant"], rec[k], ref["variant"], ref[k]))
        if rec["variant"] != "replay" and rec["committed"] != rec["target_dags"]:
            raise CheckFailed("%d of %d DAGs never committed" % (
                rec["target_dags"] - rec["committed"], rec["target_dags"]))


def failed_share(rec):
    """(aborted attempts incl. watchdog timeouts + DAGs never committed) /
    (attempts + DAGs never committed).  Equals the repo's abort_rate when
    every DAG commits."""
    unfinished = rec["target_dags"] - rec["committed"]
    attempts = rec["dag_attempts"] + unfinished
    return (rec["dag_aborts"] + unfinished) / attempts if attempts else 0.0


def med(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(plain):
    ref = plain[0]
    return {
        "setup_s": (statistics.median(r["ctor_s"] + r["start_s"]
                                      for r in plain), "s"),
        "host_dags_per_s": (statistics.median(r["committed"] / r["run_s"]
                                              for r in plain), "DAG/s"),
        "peak_rss_mb": (med(plain, "peak_rss_mb"), "MiB"),
        "sim_latency_p50_ms": (ref["latency_p50_ms"], "ms"),
        "sim_latency_p99_ms": (ref["latency_p99_ms"], "ms"),
        "sim_throughput_dags_per_s": (ref["throughput"], "DAG/s"),
    }


def per_layer(plain, traced, alt, alt_variant, rp):
    ref = plain[0]
    dags = ref["committed"]
    run_ns = med(plain, "run_s") * 1e9

    def share(cost_ns):
        return cost_ns / run_ns

    checked = plain if ref["checked"] else alt
    hook_s = 0.0
    if alt_variant == "checked":
        hook_s = med(alt, "run_s") - med(plain, "run_s")
    elif alt_variant == "unchecked":
        hook_s = med(plain, "run_s") - med(alt, "run_s")
    net_cost = ((rp["trigger_encode_ns"] + rp["trigger_decode_ns"])
                * rp["calls_trigger"]
                + (rp["read_req_encode_ns"] + rp["read_req_decode_ns"])
                * rp["calls_read_req"])
    cache_cost = (rp["lru_touch_ns"] * rp["calls_lru_touch"]
                  + (rp["depmap_merge_ns"] + rp["depmap_encode_ns"])
                  * rp["calls_depmap"])
    storage_cost = (rp["mvstore_read_at_ns"] * rp["calls_read_at"]
                    + rp["mvstore_install_ns"] * rp["calls_install"])
    return {
        "harness.ctor_s": (med(plain, "ctor_s"), "s"),
        "harness.start_s": (med(plain, "start_s"), "s"),
        "harness.summarize_s": (med(plain, "summarize_s"), "s"),

        "sim.events_per_dag": (ref["sim_events"] / dags, "events/DAG"),
        "sim.ns_per_event": (run_ns / ref["sim_events"], "ns"),
        "sim.loop_ns": (rp["loop_ns"], "ns"),
        "sim.replay_calls": (ref["sim_events"], "count"),
        "sim.est_share": (share(rp["loop_ns"] * ref["sim_events"]), "ratio"),

        "net.messages_per_dag": (ref["messages"] / dags, "msgs/DAG"),
        "net.bytes_per_dag": (ref["bytes"] / dags, "B/DAG"),
        "net.rpc_retries": (ref["rpc_retries"], "count"),
        "net.rpc_timeouts": (ref["rpc_timeouts"], "count"),
        "net.encode_ns.trigger": (rp["trigger_encode_ns"], "ns"),
        "net.decode_ns.trigger": (rp["trigger_decode_ns"], "ns"),
        "net.encode_ns.read_req": (rp["read_req_encode_ns"], "ns"),
        "net.decode_ns.read_req": (rp["read_req_decode_ns"], "ns"),
        "net.replay_calls": (rp["calls_trigger"] + rp["calls_read_req"],
                             "count"),
        "net.est_share": (share(net_cost), "ratio"),

        "workload.next_dag_ns": (rp["next_dag_ns"], "ns"),
        "workload.replay_calls": (rp["calls_next_dag"], "count"),
        "workload.est_share": (
            share(rp["next_dag_ns"] * rp["calls_next_dag"]), "ratio"),

        "faas.queue_ms_p50": (traced[0]["queue_ms_p50"], "ms"),
        "faas.compute_ms_p50": (traced[0]["compute_ms_p50"], "ms"),

        "cache.hit_rate": (ref["hit_rate"], "ratio"),
        "cache.lookups_per_dag": (ref["cache_lookups"] / dags, "count"),
        "cache.entries": (ref["cache_entries"], "count"),
        "cache.bytes": (ref["cache_bytes"], "B"),
        "cache.lru_touch_ns": (rp["lru_touch_ns"], "ns"),
        "cache.depmap_merge_ns": (rp["depmap_merge_ns"], "ns"),
        "cache.depmap_encode_ns": (rp["depmap_encode_ns"], "ns"),
        "cache.replay_calls": (rp["calls_lru_touch"] + rp["calls_depmap"],
                               "count"),
        "cache.est_share": (share(cache_cost), "ratio"),

        "client.metadata_p50_bytes": (ref["metadata_p50"], "B"),
        "client.metadata_p99_bytes": (ref["metadata_p99"], "B"),
        "client.aborts": (ref["dag_aborts"], "count"),
        "client.dag_timeouts": (ref["dag_timeouts"], "count"),
        "client.failed_share": (failed_share(ref), "ratio"),
        "client.interval_narrow_ns": (rp["interval_narrow_ns"], "ns"),
        "client.replay_calls": (rp["calls_narrow"], "count"),
        "client.est_share": (
            share(rp["interval_narrow_ns"] * rp["calls_narrow"]), "ratio"),

        "storage.episodes_per_dag": (ref["storage_episodes"] / dags, "count"),
        "storage.rounds_p99": (ref["rounds_p99"], "count"),
        "storage.read_bytes_p99": (ref["read_bytes_p99"], "B"),
        "storage.ms_p50": (traced[0]["storage_ms_p50"], "ms"),
        "storage.stab_gossip_msgs_per_dag": (
            ref["stab_gossip_msgs"] / dags, "msgs/DAG"),
        "storage.stab_lag_p99_us": (ref["stab_lag_p99_us"], "us"),
        "storage.mvstore_read_at_ns": (rp["mvstore_read_at_ns"], "ns"),
        "storage.mvstore_install_ns": (rp["mvstore_install_ns"], "ns"),
        "storage.replay_calls": (rp["calls_read_at"] + rp["calls_install"],
                                 "count"),
        "storage.est_share": (share(storage_cost), "ratio"),

        "check.installs": (checked[0]["oracle_installs"] if checked else 0,
                           "count"),
        "check.reads": (checked[0]["oracle_reads"] if checked else 0,
                        "count"),
        "check.hook_s": (hook_s, "s"),
        "check.verify_s": (med(checked, "verify_s") if checked else 0.0, "s"),

        "obs.trace_overhead_ratio": (med(traced, "run_s")
                                     / med(plain, "run_s"), "ratio"),
        "obs.spans_recorded": (traced[0]["spans_recorded"], "count"),
        "obs.spans_dropped": (traced[0]["spans_dropped"], "count"),
        "obs.export_s": (med(traced, "export_s"), "s"),
    }


def measure(binary, args):
    """Runs the repeats; returns (records, metrics) or raises CheckFailed."""
    _, alt_variant = WORKLOADS[args.workload]
    expect = args.expect_checksum
    one = lambda mode, variant="plain": run_once(  # noqa: E731
        binary, mode, args.workload, args.seed, args.dags, variant)
    deadline = time.monotonic() + args.seconds
    if args.trace == 0:
        # Tracing stays off in the timed repeats; the traced and oracle
        # variants run after the window, only for the output check.
        plain, walls = [], []
        while len(plain) < MIN_REPEATS or (
                time.monotonic() + statistics.mean(walls) < deadline):
            t0 = time.monotonic()
            plain.append(one("run"))
            walls.append(time.monotonic() - t0)
            check_outputs(plain, expect)
        records = plain + [one("run", "traced")]
        if alt_variant:
            records.append(one("run", alt_variant))
        check_outputs(records, expect)
        return records, end_to_end(plain)

    plain, traced, alt, walls = [], [], [], []
    while not walls or time.monotonic() + statistics.mean(walls) < deadline:
        t0 = time.monotonic()
        plain.append(one("run"))
        traced.append(one("run", "traced"))
        if alt_variant:
            alt.append(one("run", alt_variant))
        walls.append(time.monotonic() - t0)
        check_outputs(plain + traced + alt, expect)
    replay = one("replay")
    records = plain + traced + alt + [replay]
    check_outputs(records, expect)
    return records, per_layer(plain, traced, alt, alt_variant, replay)


def checksum(text):
    parts = text.split(":")
    if len(parts) != len(CHECKSUM) or not all(p.isdigit() for p in parts):
        raise argparse.ArgumentTypeError("expected EVENTS:MESSAGES:COMMITTED")
    return tuple(int(p) for p in parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dags", type=int, default=0,
                    help="override DAGs per client (self-test sizes)")
    ap.add_argument("--expect-checksum", type=checksum, default=None,
                    help="EVENTS:MESSAGES:COMMITTED the run must reproduce")
    args = ap.parse_args()

    try:
        binary = os.path.join(build(), "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1
    try:
        records, metrics = measure(binary, args)
    except CheckFailed as e:
        log("run.py: output check failed: %s" % e)
        return 1

    for name, (value, unit) in metrics.items():
        log("%-34s %16.6g %s" % (name, value, unit))
    attempted = sum(r["target_dags"] for r in records if "target_dags" in r)
    failed = sum(r["target_dags"] - r["committed"]
                 for r in records if "target_dags" in r)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
