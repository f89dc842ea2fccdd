// Measurement binary of the repository benchmark (driven by run.py).
//
// One invocation performs one repeat of one workload in a fresh process, so
// peak RSS and set-up time belong to that workload alone.  Every layer is
// measured from outside: wall-clock timers around the public calls a caller
// makes (Cluster construction, start(), run_clients(), summarize(),
// ConsistencyOracle::check(), the trace export) plus the counters the
// program already keeps.  Nothing inside the simulator is instrumented.
//
//   perfbench run    --spec=F --seed=N [--dags=N] [--variant=V]
//       V = plain | traced | checked | unchecked.  `traced` turns tracing
//       on, `checked`/`unchecked` attach/detach the consistency oracle.  All
//       four must produce the same schedule checksums (sim_events,
//       messages, committed); run.py enforces that.
//   perfbench replay --spec=F --seed=N [--dags=N]
//       Drives the same run step by step to sample the event-queue depth,
//       then times single layers' public functions ("replays") on inputs
//       shaped like that run: queue depth, key count, version depth,
//       metadata size, cache occupancy.  Also reports each layer's call
//       count from the run's own counters.
//
// Output: one JSON object on stdout.  Exit code 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache_messages.h"
#include "cache/hydro_types.h"
#include "cache/lru_index.h"
#include "client/snapshot_interval.h"
#include "common/zipf.h"
#include "faas/messages.h"
#include "harness/cluster.h"
#include "harness/flags.h"
#include "harness/json.h"
#include "harness/run_spec.h"
#include "sim/future.h"
#include "sim/task.h"
#include "storage/mv_store.h"
#include "workload/workload.h"

namespace faastcc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using harness::ClusterParams;
using harness::SystemKind;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string mode;
  std::string spec_path;
  std::string variant = "plain";
  uint64_t seed = 1;
  int dags_per_client = 0;  // 0 = the spec's value
};

ClusterParams load_params(const Args& a) {
  std::ifstream in(a.spec_path);
  if (!in) throw harness::SpecError("cannot read spec " + a.spec_path);
  std::stringstream text;
  text << in.rdbuf();
  harness::RunSpec spec = harness::spec_from_text(text.str());
  ClusterParams p = spec.resolve();
  p.seed = a.seed;
  if (a.dags_per_client > 0) p.dags_per_client = a.dags_per_client;
  if (a.variant == "traced") {
    p.trace.enabled = true;
    if (p.trace.sample_every == 0) p.trace.sample_every = 1;
  } else if (a.variant == "checked") {
    p.check_consistency = true;
  } else if (a.variant == "unchecked") {
    p.check_consistency = false;
  } else if (a.variant != "plain") {
    throw harness::SpecError("unknown variant " + a.variant);
  }
  if (p.check_consistency && p.system != SystemKind::kFaasTcc) {
    throw harness::SpecError("the oracle supports only system=faastcc");
  }
  return p;
}

uint64_t counter_or_zero(const Metrics& m, const char* name) {
  const Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

// Counts the run keeps in components rather than in Metrics.
struct ComponentCounts {
  uint64_t cache_requests = 0;
  uint64_t partition_read_keys = 0;
  uint64_t partition_commits = 0;
};

ComponentCounts component_counts(harness::Cluster& c) {
  ComponentCounts out;
  for (const auto& cache : c.faastcc_caches()) {
    out.cache_requests += cache->counters().requests.value();
  }
  for (const auto& cache : c.hydro_caches()) {
    out.cache_requests += cache->counters().requests.value();
  }
  for (const auto& p : c.tcc_partitions()) {
    out.partition_read_keys += p->counters().read_keys.value();
    out.partition_commits += p->counters().commits.value();
  }
  return out;
}

// ---------------------------------------------------------------------------
// run: one timed repeat.

int run_mode(const Args& a) {
  const ClusterParams params = load_params(a);
  const auto t0 = Clock::now();
  harness::Cluster cluster(params);
  const double ctor_s = seconds_since(t0);
  const auto t1 = Clock::now();
  cluster.start();
  const double start_s = seconds_since(t1);
  const auto t2 = Clock::now();
  const harness::RunResult r = cluster.run_clients();
  const double run_s = seconds_since(t2);
  const auto t3 = Clock::now();
  const harness::SummaryStats s = harness::summarize(r);
  const double summarize_s = seconds_since(t3);

  double verify_s = 0;
  size_t violations = 0;
  std::string violation_report;
  check::ConsistencyOracle* oracle = cluster.oracle();
  if (oracle != nullptr) {
    const auto t4 = Clock::now();
    const auto found = oracle->check();
    verify_s = seconds_since(t4);
    violations = found.size();
    if (!found.empty()) violation_report = oracle->report(found);
  }
  double export_s = 0;
  size_t trace_bytes = 0;
  if (params.trace.enabled) {
    const auto t5 = Clock::now();
    std::ostringstream trace;
    cluster.tracer().export_chrome_trace(trace);
    trace_bytes = trace.str().size();
    export_s = seconds_since(t5);
  }
  const double rss_mb = peak_rss_mb();
  const ComponentCounts cc = component_counts(cluster);
  const Metrics& m = r.metrics;

  harness::json::Writer w(/*compact=*/true);
  w.begin_object();
  auto num = [&w](const char* k, double v) {
    w.key(k);
    w.number(v);
  };
  auto u64 = [&w](const char* k, uint64_t v) {
    w.key(k);
    w.u64(v);
  };
  w.key("variant");
  w.string(a.variant);
  u64("seed", params.seed);
  // Host timings.
  num("ctor_s", ctor_s);
  num("start_s", start_s);
  num("run_s", run_s);
  num("summarize_s", summarize_s);
  num("verify_s", verify_s);
  num("export_s", export_s);
  num("peak_rss_mb", rss_mb);
  // Schedule checksums.
  u64("sim_events", r.sim_events);
  u64("messages", cluster.network().messages_sent());
  u64("committed", r.committed);
  // Failure accounting.
  u64("target_dags", static_cast<uint64_t>(params.clients) *
                         static_cast<uint64_t>(params.dags_per_client));
  u64("dag_attempts", m.dag_attempts.value());
  u64("dag_aborts", m.dag_aborts.value());
  u64("dag_timeouts", m.dag_timeouts.value());
  // Simulated results, straight from the repo's summary.
  num("latency_p50_ms", s.latency_med_ms);
  num("latency_p99_ms", s.latency_p99_ms);
  u64("latency_samples", m.dag_latency_ms.count());
  num("throughput", s.throughput);
  num("abort_rate", s.abort_rate);
  // Layer counters.
  u64("bytes", cluster.network().bytes_sent());
  u64("rpc_retries", m.net_rpc_retries);
  u64("rpc_timeouts", m.net_rpc_timeouts);
  num("hit_rate", s.hit_rate);
  u64("cache_lookups", m.cache_lookups.value());
  u64("cache_requests", cc.cache_requests);
  num("cache_entries", s.cache_entries);
  num("cache_bytes", s.cache_bytes);
  num("metadata_p50", s.metadata_med);
  num("metadata_p99", s.metadata_p99);
  u64("metadata_samples", m.metadata_bytes.count());
  u64("storage_episodes", m.storage_episodes.value());
  num("rounds_p99", s.rounds_p99);
  num("read_bytes_p99", s.read_bytes_p99);
  u64("partition_read_keys", cc.partition_read_keys);
  u64("partition_commits", cc.partition_commits);
  u64("stab_gossip_msgs", counter_or_zero(m, "stab.gossip_msgs"));
  num("stab_lag_p99_us", s.stab_lag_p99_us);
  num("queue_ms_p50", s.breakdown_queue_ms);
  num("compute_ms_p50", s.breakdown_compute_ms);
  num("storage_ms_p50", s.breakdown_storage_ms);
  // Oracle and tracer.
  w.key("checked");
  w.boolean(oracle != nullptr);
  u64("violations", violations);
  u64("oracle_installs", oracle != nullptr ? oracle->installs_recorded() : 0);
  u64("oracle_reads", oracle != nullptr ? oracle->reads_recorded() : 0);
  u64("spans_recorded", cluster.tracer().spans_recorded());
  u64("spans_dropped", cluster.tracer().spans_dropped());
  u64("trace_bytes", trace_bytes);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  if (!violation_report.empty()) {
    std::fprintf(stderr, "%s", violation_report.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// replay: per-layer host cost on inputs shaped like the run.

// Mean nanoseconds per call of `fn` over `iters` calls (after a warm-up of
// a tenth as many).  `fn` receives the iteration index; it is a template
// parameter so the timed loop pays no indirect call.
template <typename F>
double ns_per_call(size_t iters, F&& fn) {
  for (size_t i = 0; i < iters / 10; ++i) fn(i);
  const auto t0 = Clock::now();
  for (size_t i = 0; i < iters; ++i) fn(i);
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(iters);
}

// Sink that keeps the optimizer from discarding replayed work.
volatile uint64_t g_sink = 0;

struct Codec {
  double encode_ns = 0;
  double decode_ns = 0;
};

template <typename M>
Codec time_codec(const M& msg, size_t iters) {
  BufferPool pool;
  Codec c;
  c.encode_ns = ns_per_call(iters, [&](size_t) {
    Buffer b = encode_message(msg, pool);
    g_sink = g_sink + b.size();
    pool.release(std::move(b));
  });
  // Receivers decode from a shared message buffer (views alias it).
  const auto wire = std::make_shared<const Buffer>(encode_message(msg));
  c.decode_ns = ns_per_call(iters, [&](size_t) {
    M out = decode_message<M>(wire);
    g_sink = g_sink + 1;
  });
  return c;
}

// One closed-loop ticker: keeps exactly one resumption queued, like a
// simulated component waiting on its next message or timer.
sim::Task<void> ticker(sim::EventLoop& loop, uint64_t seed, const bool& stop) {
  Rng rng(seed);
  while (!stop) {
    co_await sim::sleep_for(loop, Duration(1 + rng.next_below(500)));
  }
}

// schedule + dispatch cost of one event at a steady queue depth.
double replay_event_loop(size_t depth, size_t iters) {
  sim::EventLoop loop;
  bool stop = false;
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    sim::spawn(ticker(loop, i + 1, stop));
  }
  const double ns = ns_per_call(iters, [&](size_t) { loop.run_one(); });
  stop = true;
  loop.run();
  return ns;
}

cache::DepMap make_depmap(size_t entries, const ZipfSampler& keys,
                          uint64_t seed) {
  Rng rng(seed);
  cache::DepMap m;
  for (size_t i = 0; m.size() < entries && i < entries * 8; ++i) {
    m.require(keys.sample(rng), 1 + rng.next_below(1000),
              static_cast<SimTime>(rng.next_below(1000000)),
              static_cast<uint8_t>(rng.next_below(3)));
  }
  m.compact();
  return m;
}

int replay_mode(const Args& a) {
  const ClusterParams params = load_params(a);
  harness::Cluster cluster(params);
  cluster.start();

  // Same client spawn and 100 ms run_until stepping as
  // Cluster::run_clients(), so the schedule (and its checksums) match the
  // timed run; the steps let us sample the queue depth from outside.
  sim::EventLoop& loop = cluster.loop();
  for (auto& c : cluster.clients()) sim::spawn(c->run());
  const SimTime deadline = loop.now() + params.max_sim_time;
  auto all_done = [&] {
    for (const auto& c : cluster.clients()) {
      if (!c->done()) return false;
    }
    return true;
  };
  std::vector<size_t> depths;
  while (!all_done() && loop.now() < deadline) {
    loop.run_until(loop.now() + milliseconds(100));
    depths.push_back(loop.pending());
  }
  uint64_t committed = 0;
  for (const auto& c : cluster.clients()) committed += c->committed();
  std::sort(depths.begin(), depths.end());
  const size_t depth = depths.empty() ? 1 : depths[depths.size() / 2];

  const Metrics& m = cluster.metrics();
  const ComponentCounts cc = component_counts(cluster);
  const bool hydro = params.system == SystemKind::kHydroCache;
  const workload::WorkloadParams& wp = params.workload;
  const ZipfSampler zipf(wp.num_keys, wp.zipf);
  const double metadata_p50 = m.metadata_bytes.median();

  // sim: one schedule + dispatch at the run's median queue depth.
  const double loop_ns = replay_event_loop(depth, 400000);

  // workload: DAG generation with the workload's parameters.
  workload::WorkloadGen gen(wp, Rng(a.seed));
  const double next_dag_ns = ns_per_call(50000, [&](size_t) {
    g_sink = g_sink + gen.next_dag(0).functions.size();
  });

  // net: the function-to-function trigger carrying a context of the run's
  // median metadata size, and the system's cache read request.
  faas::TriggerMsg trigger;
  trigger.txn_id = 1;
  trigger.fn_index = 1;
  trigger.from_fn = 0;
  trigger.client = 5000;
  trigger.spec = gen.next_dag(0);
  trigger.placement.assign(trigger.spec.functions.size(), 4000);
  trigger.context =
      Payload(Buffer(static_cast<size_t>(metadata_p50), uint8_t{7}));
  trigger.parent_result = Buffer(wp.value_size, uint8_t{1});
  const Codec trig = time_codec(trigger, 50000);

  // Hydro contexts: 4-byte count + 26-byte records; FaaSTCC ships none.
  const size_t dep_entries =
      hydro && metadata_p50 > 4
          ? static_cast<size_t>((metadata_p50 - 4) / cache::kDepWireBytes)
          : 0;
  const cache::DepMap ctx_a = make_depmap(dep_entries, zipf, a.seed + 1);
  const cache::DepMap ctx_b = make_depmap(dep_entries, zipf, a.seed + 2);
  std::vector<Key> read_keys;
  {
    Rng rng(a.seed + 3);
    for (int i = 0; i < wp.reads_per_function; ++i) {
      read_keys.push_back(zipf.sample(rng));
    }
  }
  Codec read_req;
  if (hydro) {
    cache::HydroReadReq req;
    req.keys = read_keys;
    req.context = ctx_a;
    read_req = time_codec(req, 20000);
  } else {
    cache::CacheReadReq req;
    req.keys = read_keys;
    read_req = time_codec(req, 50000);
  }

  // cache: LRU touch at the per-node occupancy, Zipf-drawn keys; DepMap
  // merge and encode at the context size (hydro only does these per edge).
  const size_t per_node =
      std::min<size_t>(params.cache_capacity,
                       static_cast<size_t>(wp.num_keys));
  cache::LruIndex lru;
  for (Key k = 0; k < per_node; ++k) lru.touch(k);
  Rng lru_rng(a.seed + 4);
  const double lru_ns = ns_per_call(200000, [&](size_t) {
    lru.touch(zipf.sample(lru_rng));
    if (lru.size() > per_node) lru.erase(*lru.least_recent());
  });
  const double merge_ns = ns_per_call(hydro ? 2000 : 50000, [&](size_t) {
    cache::DepMap c = ctx_a;
    c.merge(ctx_b);
    g_sink = g_sink + c.size();
  });
  BufferPool pool;
  const double depmap_encode_ns =
      ns_per_call(hydro ? 2000 : 50000, [&](size_t) {
        Buffer b = encode_message(ctx_b, pool);
        g_sink = g_sink + b.size();
        pool.release(std::move(b));
      });

  // client: interval narrowing per accepted version (FaaSTCC read path).
  std::vector<std::pair<Timestamp, Timestamp>> versions;
  {
    Rng rng(a.seed + 5);
    for (int i = 0; i < 4096; ++i) {
      const uint64_t ts = 1 + rng.next_below(1u << 30);
      versions.emplace_back(Timestamp(ts),
                            Timestamp(ts + rng.next_below(1u << 20)));
    }
  }
  const double narrow_ns = ns_per_call(400000, [&](size_t i) {
    client::SnapshotInterval si = client::SnapshotInterval::full();
    const auto& v = versions[i % versions.size()];
    if (si.admits(v.first, v.second)) si.narrow(v.first, v.second);
    g_sink = g_sink + si.low.raw();
  });

  // storage: MvStore read_at / install at the run's per-partition key count
  // and version depth (the eventual store of hydro has no MvStore).
  size_t store_keys = 0, store_versions = 0;
  for (const auto& p : cluster.tcc_partitions()) {
    store_keys += p->store().num_keys();
    store_versions += p->store().num_versions();
  }
  const size_t partitions = std::max<size_t>(params.partitions, 1);
  const size_t keys_per_store =
      std::max<size_t>(1, store_keys > 0 ? store_keys / partitions
                                         : wp.num_keys / partitions);
  const size_t depth_per_key =
      store_keys > 0 ? std::max<size_t>(1, (store_versions + store_keys - 1) /
                                               store_keys)
                     : 1;
  const Value value(wp.value_size, 'x');
  auto make_store = [&] {
    storage::MvStore st;
    for (size_t v = 0; v < depth_per_key; ++v) {
      for (size_t k = 0; k < keys_per_store; ++k) {
        st.install(static_cast<Key>(k), value,
                   Timestamp(1000 + v * 1000, 0, static_cast<NodeId>(k)));
      }
    }
    return st;
  };
  const storage::MvStore store = make_store();
  Rng st_rng(a.seed + 6);
  const uint64_t ts_span = 1000 * (depth_per_key + 1);
  const double read_at_ns = ns_per_call(400000, [&](size_t) {
    const auto res = store.read_at(
        static_cast<Key>(st_rng.next_below(keys_per_store)),
        Timestamp(st_rng.next_below(ts_span), 0, 0));
    g_sink = g_sink + (res.version != nullptr ? 1 : 0);
  });
  // Each install gets a fresh timestamp above every preloaded version.
  storage::MvStore install_store = make_store();
  uint64_t next_ts = ts_span + 1000;
  const double install_ns = ns_per_call(keys_per_store, [&](size_t i) {
    install_store.install(static_cast<Key>(i % keys_per_store), value,
                          Timestamp(next_ts++, 0, static_cast<NodeId>(0)));
  });

  harness::json::Writer w(/*compact=*/true);
  w.begin_object();
  auto num = [&w](const char* k, double v) {
    w.key(k);
    w.number(v);
  };
  auto u64 = [&w](const char* k, uint64_t v) {
    w.key(k);
    w.u64(v);
  };
  w.key("variant");
  w.string("replay");
  u64("sim_events", loop.events_processed());
  u64("messages", cluster.network().messages_sent());
  u64("committed", committed);
  u64("queue_depth", depth);
  num("loop_ns", loop_ns);
  num("next_dag_ns", next_dag_ns);
  num("trigger_encode_ns", trig.encode_ns);
  num("trigger_decode_ns", trig.decode_ns);
  num("read_req_encode_ns", read_req.encode_ns);
  num("read_req_decode_ns", read_req.decode_ns);
  num("lru_touch_ns", lru_ns);
  num("depmap_merge_ns", merge_ns);
  num("depmap_encode_ns", depmap_encode_ns);
  u64("depmap_entries", dep_entries);
  num("interval_narrow_ns", narrow_ns);
  num("mvstore_read_at_ns", read_at_ns);
  num("mvstore_install_ns", install_ns);
  u64("store_keys", keys_per_store);
  u64("store_depth", depth_per_key);
  // Call counts of the replayed functions, from the run's own counters.
  // One trigger per DAG edge (one metadata sample each); one read request
  // per cache request; one narrow per key served to a FaaSTCC client; one
  // DepMap merge per hydro edge; one next_dag per DAG.  cache_lookups
  // counts read requests, each of reads_per_function keys.
  const uint64_t keys_read = m.cache_lookups.value() *
                             static_cast<uint64_t>(wp.reads_per_function);
  u64("calls_trigger", m.metadata_bytes.count());
  u64("calls_read_req", cc.cache_requests);
  u64("calls_lru_touch", keys_read);
  u64("calls_depmap", hydro ? m.metadata_bytes.count() : 0);
  u64("calls_narrow", hydro ? 0 : keys_read);
  u64("calls_next_dag", static_cast<uint64_t>(params.clients) *
                            static_cast<uint64_t>(params.dags_per_client));
  u64("calls_read_at", cc.partition_read_keys);
  u64("calls_install", cc.partition_commits);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace faastcc::perfbench

int main(int argc, char** argv) {
  using namespace faastcc;
  perfbench::Args a;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run|replay --spec=F --seed=N\n");
    return 2;
  }
  a.mode = argv[1];
  harness::Flags flags("perfbench", "one benchmark repeat (see run.py)");
  flags.str("spec", "RunSpec JSON file of the workload", &a.spec_path);
  flags.u64("seed", "workload seed", &a.seed);
  flags.integer("dags", "override DAGs per client (0 = spec)",
                &a.dags_per_client);
  flags.str("variant", "plain|traced|checked|unchecked", &a.variant);
  if (!flags.parse(argc - 1, argv + 1) || a.spec_path.empty()) {
    std::fprintf(stderr, "perfbench: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  try {
    if (a.mode == "run") return perfbench::run_mode(a);
    if (a.mode == "replay") return perfbench::replay_mode(a);
  } catch (const harness::SpecError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "perfbench: unknown mode %s\n", a.mode.c_str());
  return 2;
}
