#include "harness/configs.h"

#include <algorithm>

namespace faastcc::harness {

namespace {

// Every fault matrix stays inside the protocol's operating envelope
// (coordinators retry past loss; prepare TTLs comfortably exceed the
// retry horizon), so under any non-chaos config a consistency violation
// is always a bug, never tuning noise.
const std::vector<NamedConfig> kConfigs = {
    {"clean", "no faults (oracle sanity baseline)", false,
     [](ClusterParams&) {}},
    {"lossy", "2% loss + 1% duplication", false,
     [](ClusterParams& p) {
       p.faults.loss_prob = 0.02;
       p.faults.dup_prob = 0.01;
     }},
    {"spikes-ttl", "delay spikes + short prepare TTL", false,
     [](ClusterParams& p) {
       p.faults.loss_prob = 0.01;
       p.faults.delay_spike_prob = 0.01;
       p.faults.delay_spike = milliseconds(20);
       p.tcc.prepare_ttl = milliseconds(250);
     }},
    {"tiny-cache", "8-entry caches, hot keys, loss", false,
     [](ClusterParams& p) {
       p.cache_capacity = 8;
       p.workload.zipf = 1.2;
       p.faults.loss_prob = 0.01;
     }},
    {"crashy", "partition + cache crash windows", false,
     [](ClusterParams& p) {
       // Partition 1 (addr 101) blacks out mid-run, then cache 0 (addr
       // 3000); both well inside the measured phase (warmup 250 ms).
       p.faults.crashes.push_back(net::CrashWindow{101, milliseconds(300),
                                                   milliseconds(360)});
       p.faults.crashes.push_back(net::CrashWindow{3000, milliseconds(420),
                                                   milliseconds(470)});
       p.faults.dag_timeout = milliseconds(500);
     }},
    {"kill-leader", "replicated slots; leader killed for good mid-run", false,
     [](ClusterParams& p) {
       // Leader of partition 1 (addr 101) goes dark at 300 ms and never
       // returns: its follower (addr 6004) must win promotion, seal the
       // handoff floor and take over the slot.  Commit-acked writes from
       // before the kill must survive — the oracle's durability check.
       p.replication.factor = 1;
       p.faults.crashes.push_back(
           net::CrashWindow{101, milliseconds(300), seconds(3600)});
       p.faults.dag_timeout = milliseconds(500);
     }},
    {"kill-leader-lossy",
     "leader kill + 2% loss + 1% duplication (replication stream replay)",
     false,
     [](ClusterParams& p) {
       // Two followers per slot: loss exercises demote-and-backfill,
       // duplication exercises the at-most-once frame dedup, and the kill
       // exercises promotion arbitration between the two candidates.
       p.replication.factor = 2;
       p.faults.crashes.push_back(
           net::CrashWindow{101, milliseconds(300), seconds(3600)});
       p.faults.loss_prob = 0.02;
       p.faults.dup_prob = 0.01;
       p.faults.dag_timeout = milliseconds(500);
     }},
    {"elastic", "mid-run scale-out +2 partitions, no faults", false,
     [](ClusterParams& p) {
       p.elastic.add_partitions = 2;
       p.elastic.at = milliseconds(300);
     }},
    {"elastic-lossy", "scale-out under 2% loss + 1% duplication", false,
     [](ClusterParams& p) {
       p.elastic.add_partitions = 2;
       p.elastic.at = milliseconds(300);
       p.faults.loss_prob = 0.02;
       p.faults.dup_prob = 0.01;
     }},
    {"elastic-dup", "scale-out under 3% duplication (handoff replay paths)",
     false,
     [](ClusterParams& p) {
       p.elastic.add_partitions = 2;
       p.elastic.at = milliseconds(300);
       p.faults.dup_prob = 0.03;
     }},
    {"tree-lossy", "tree stabilization under 2% loss + 1% duplication", false,
     [](ClusterParams& p) {
       // Fanout 2 over the fuzzer's small cells gives the tree real depth
       // (interior nodes relaying folds), exercising up/down staleness.
       p.tcc.stab_topology = storage::StabTopology::kTree;
       p.tcc.tree_fanout = 2;
       p.faults.loss_prob = 0.02;
       p.faults.dup_prob = 0.01;
     }},
    {"tree-elastic",
     "tree stabilization, scale-out +2 partitions under 1% loss", false,
     [](ClusterParams& p) {
       // Joiners land below node 1 (fanout 2), turning a leaf interior
       // mid-run: membership-tagged folds must re-arm the barrier.
       p.tcc.stab_topology = storage::StabTopology::kTree;
       p.tcc.tree_fanout = 2;
       p.elastic.add_partitions = 2;
       p.elastic.at = milliseconds(300);
       p.faults.loss_prob = 0.01;
     }},
    {"elastic-in", "mid-run scale-in -2 partitions, no faults", false,
     [](ClusterParams& p) {
       p.elastic.remove_partitions = 2;
       p.elastic.remove_at = milliseconds(300);
     }},
    {"elastic-in-lossy", "scale-in under 2% loss + 1% duplication", false,
     [](ClusterParams& p) {
       p.elastic.remove_partitions = 2;
       p.elastic.remove_at = milliseconds(300);
       p.faults.loss_prob = 0.02;
       p.faults.dup_prob = 0.01;
     }},
    {"autoscale-spike",
     "bursty load; autoscaler rides the spike out and back in", false,
     [](ClusterParams& p) {
       p.workload.pattern = workload::LoadPattern::kBursty;
       p.workload.pattern_period = milliseconds(600);
       // A deep trough (think >> DAG latency) is what lets the window p99
       // fall back under the low-water mark so the scale-in leg fires.
       p.workload.think_time = milliseconds(20);
       p.autoscale.max_partitions = p.partitions + 2;
       p.autoscale.min_partitions = p.partitions > 2 ? p.partitions - 2 : 1;
       p.autoscale.check_period = milliseconds(50);
       p.autoscale.high_p99_ms = 8.0;
       p.autoscale.low_p99_ms = 6.0;
       p.autoscale.breach_checks = 2;
       p.autoscale.cooldown = milliseconds(300);
     }},
    {"chaos-lost-ack", "REGRESSION: commits acked without install", true,
     [](ClusterParams& p) { p.tcc.chaos_drop_install = true; }},
    {"chaos-prewarm", "REGRESSION: prewarm entries open unsubscribed", true,
     [](ClusterParams& p) {
       p.faastcc_cache.chaos_prewarm_open = true;
       p.cache_capacity = 32;
       p.workload.zipf = 1.2;
     }},
};

}  // namespace

const std::vector<NamedConfig>& all_configs() { return kConfigs; }

const NamedConfig* find_config(std::string_view name) {
  for (const NamedConfig& c : kConfigs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

void list_configs(std::FILE* out) {
  for (const NamedConfig& c : kConfigs) {
    std::fprintf(out, "  %-16s %s\n", c.name, c.what);
  }
}

void apply_fuzz_shape(ClusterParams& p, uint64_t seed) {
  switch (seed % 3) {
    case 0:  // short chains, uniform-ish keys
      p.workload.dag_size = 2;
      p.workload.zipf = 0.8;
      break;
    case 1:  // deep chains (long dependency tails)
      p.workload.dag_size = 6;
      break;
    default:  // static transactions on a hot key set
      p.workload.dag_size = 4;
      p.workload.zipf = std::max(p.workload.zipf, 1.1);
      p.workload.static_txns = true;
      break;
  }
}

}  // namespace faastcc::harness
