// Comparative integration tests: the paper's qualitative orderings,
// checked on small (fast) clusters.  These are the "shape" claims of §6
// at test scale — tools/figures.py --check gates them at paper scale on
// the figure sweeps (plans/fig_*.json).
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace faastcc::harness {
namespace {

ClusterParams small(SystemKind system, double zipf, bool static_txns,
                    uint64_t seed = 11) {
  ClusterParams p;
  p.system = system;
  p.seed = seed;
  p.partitions = 4;
  p.compute_nodes = 4;
  p.clients = 8;
  p.dags_per_client = 60;
  p.workload.num_keys = 4000;
  p.workload.zipf = zipf;
  p.workload.static_txns = static_txns;
  return p;
}

RunResult run(ClusterParams p) {
  Cluster cluster(std::move(p));
  return cluster.run();
}

TEST(Comparative, FaasTccMetadataConstantHydroMetadataLarge) {
  const RunResult ft = run(small(SystemKind::kFaasTcc, 1.0, false));
  const RunResult hc = run(small(SystemKind::kHydroCache, 1.0, false));
  EXPECT_DOUBLE_EQ(ft.metrics.metadata_bytes.median(), 16.0);
  EXPECT_DOUBLE_EQ(ft.metrics.metadata_bytes.p99(), 16.0);
  EXPECT_GT(hc.metrics.metadata_bytes.median(), 200.0)
      << "HydroCache should carry dependency maps";
}

TEST(Comparative, StaticPruningShrinksHydroMetadata) {
  const RunResult dyn = run(small(SystemKind::kHydroCache, 1.0, false));
  const RunResult sta = run(small(SystemKind::kHydroCache, 1.0, true));
  EXPECT_LT(sta.metrics.metadata_bytes.median(),
            dyn.metrics.metadata_bytes.median() / 2)
      << "declared read sets should prune most metadata (§6.3)";
}

TEST(Comparative, HydroMetadataShrinksWithSkew) {
  const RunResult low = run(small(SystemKind::kHydroCache, 1.0, false));
  const RunResult high = run(small(SystemKind::kHydroCache, 1.5, false));
  EXPECT_GT(low.metrics.metadata_bytes.median(),
            high.metrics.metadata_bytes.median())
      << "lower skew -> more distinct dependencies (Fig. 5)";
}

TEST(Comparative, FaasTccSingleRoundHydroMultiRound) {
  const RunResult ft = run(small(SystemKind::kFaasTcc, 1.25, false));
  const RunResult hc = run(small(SystemKind::kHydroCache, 1.25, false));
  EXPECT_DOUBLE_EQ(ft.metrics.storage_rounds.median(), 1.0);
  EXPECT_DOUBLE_EQ(ft.metrics.storage_rounds.p99(), 1.0);
  EXPECT_GT(hc.metrics.storage_rounds.max(), 1.0)
      << "HydroCache should need retries against stale replicas (Fig. 6)";
}

TEST(Comparative, HydroReadsCarryMoreBytes) {
  const RunResult ft = run(small(SystemKind::kFaasTcc, 1.0, false));
  const RunResult hc = run(small(SystemKind::kHydroCache, 1.0, false));
  ASSERT_GT(ft.metrics.storage_read_bytes.count(), 0u);
  ASSERT_GT(hc.metrics.storage_read_bytes.count(), 0u);
  EXPECT_GT(hc.metrics.storage_read_bytes.p99(),
            ft.metrics.storage_read_bytes.p99())
      << "values with dependency lists dwarf promise refreshes (Fig. 7)";
}

TEST(Comparative, HydroCacheFootprintLarger) {
  const RunResult ft = run(small(SystemKind::kFaasTcc, 1.0, false));
  const RunResult hc = run(small(SystemKind::kHydroCache, 1.0, false));
  EXPECT_GT(hc.cache_bytes, ft.cache_bytes)
      << "dependency metadata and stubs inflate HydroCache (Fig. 8)";
}

TEST(Comparative, FaasTccStaticEqualsDynamic) {
  // §6.3/§6.7: FaaSTCC runs exactly the same algorithm either way; with
  // the same seed the executions are identical.
  const RunResult dyn = run(small(SystemKind::kFaasTcc, 1.0, false));
  const RunResult sta = run(small(SystemKind::kFaasTcc, 1.0, true));
  EXPECT_EQ(dyn.metrics.dag_latency_ms.raw(), sta.metrics.dag_latency_ms.raw());
}

TEST(Comparative, DisabledCacheCostsLatency) {
  ClusterParams with_cache = small(SystemKind::kFaasTcc, 1.0, false);
  ClusterParams no_cache = small(SystemKind::kFaasTcc, 1.0, false);
  no_cache.cache_capacity = 0;
  const RunResult a = run(std::move(with_cache));
  const RunResult b = run(std::move(no_cache));
  EXPECT_LT(a.metrics.dag_latency_ms.median(),
            b.metrics.dag_latency_ms.median())
      << "the caching layer is key to performance (§6.7)";
  EXPECT_EQ(b.cache_entries, 0u);
}

TEST(Comparative, BoundedCacheDegradesGracefully) {
  ClusterParams tiny = small(SystemKind::kFaasTcc, 1.0, false);
  tiny.cache_capacity = 40;  // 1% of keyspace
  ClusterParams half = small(SystemKind::kFaasTcc, 1.0, false);
  half.cache_capacity = 2000;
  const RunResult t = run(std::move(tiny));
  const RunResult h = run(std::move(half));
  // More cache, fewer storage episodes.
  EXPECT_LT(h.metrics.storage_episodes.value(),
            t.metrics.storage_episodes.value());
  // Capacity respected.
  EXPECT_LE(t.cache_entries, 40u * 4u);
}

TEST(Comparative, CloudburstIsTheLatencyFloor) {
  const RunResult cb = run(small(SystemKind::kCloudburst, 1.0, false));
  const RunResult ft = run(small(SystemKind::kFaasTcc, 1.0, false));
  const RunResult hc = run(small(SystemKind::kHydroCache, 1.0, false));
  EXPECT_LE(cb.metrics.dag_latency_ms.median(),
            ft.metrics.dag_latency_ms.median());
  EXPECT_LE(cb.metrics.dag_latency_ms.median(),
            hc.metrics.dag_latency_ms.median());
}

TEST(Comparative, LongerDagsRaiseHydroPerFunctionTime) {
  ClusterParams short_dag = small(SystemKind::kHydroCache, 1.0, false);
  short_dag.workload.dag_size = 3;
  ClusterParams long_dag = small(SystemKind::kHydroCache, 1.0, false);
  long_dag.workload.dag_size = 12;
  const RunResult s = run(std::move(short_dag));
  const RunResult l = run(std::move(long_dag));
  const double per_fn_short = s.metrics.dag_latency_ms.median() / 3.0;
  const double per_fn_long = l.metrics.dag_latency_ms.median() / 12.0;
  EXPECT_GT(per_fn_long, per_fn_short)
      << "metadata accumulates along the chain (Fig. 10b)";
}

TEST(Comparative, SnapshotIsolationAddsConflictAborts) {
  ClusterParams tcc = small(SystemKind::kFaasTcc, 1.5, false, 3);
  tcc.workload.num_keys = 200;  // hot: many write-write races
  ClusterParams si = tcc;
  si.faastcc.snapshot_isolation = true;
  const RunResult a = run(std::move(tcc));
  const RunResult b = run(std::move(si));
  // Plain TCC may abort rarely (GC / retry exhaustion under extreme
  // contention); SI adds write-write conflict aborts on top.
  EXPECT_GT(b.metrics.dag_aborts.value(),
            a.metrics.dag_aborts.value() + 10)
      << "SI must abort conflicting writers under contention";
  // TCC commits everything; SI may drop a few first-committer losers that
  // exhaust their retry budget on the hottest key, but the vast majority
  // commit.
  EXPECT_EQ(a.committed, 8u * 60u);
  EXPECT_GE(b.committed, 8u * 60u * 85 / 100);
}

}  // namespace
}  // namespace faastcc::harness
