// Tests for the experiment harness: cluster assembly, metric summaries,
// table formatting, and the paper-figure sweep plans.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "harness/summary.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace faastcc::harness {
namespace {

TEST(Summary, SummarizeExtractsPercentilesAndRates) {
  RunResult r;
  for (int i = 1; i <= 100; ++i) {
    r.metrics.dag_latency_ms.add(i);
    r.metrics.metadata_bytes.add(16);
  }
  r.metrics.dag_attempts.inc(10);
  r.metrics.dag_aborts.inc(1);
  r.metrics.cache_lookups.inc(4);
  r.metrics.cache_hits.inc(3);
  r.throughput = 123;
  r.committed = 99;
  r.cache_bytes = 1024;
  const SummaryStats s = summarize(r);
  EXPECT_NEAR(s.latency_med_ms, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.metadata_med, 16);
  EXPECT_DOUBLE_EQ(s.throughput, 123);
  EXPECT_DOUBLE_EQ(s.committed, 99);
  EXPECT_NEAR(s.abort_rate, 0.1, 1e-9);
  EXPECT_NEAR(s.hit_rate, 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.cache_bytes, 1024);
}

TEST(Harness, PaperDefaultsMatchSection61) {
  const ClusterParams p;
  EXPECT_EQ(p.partitions, 16u);        // 16 Anna partitions
  EXPECT_EQ(p.compute_nodes, 10u);     // 10 machines of Cloudburst pods
  EXPECT_EQ(p.node.executors, 3);      // 3 executors per pod
  EXPECT_EQ(p.clients, 16u);           // 16 client threads
  EXPECT_EQ(p.workload.num_keys, 100000u);
  EXPECT_EQ(p.workload.value_size, 8u);
  EXPECT_EQ(p.workload.dag_size, 6);
  EXPECT_EQ(p.tcc.push_period, milliseconds(50));  // cache refresh period
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.dags_per_client, 1000);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), {});
}

// Every committed plan (plans/*.json) and perfbench workload spec decodes
// strictly, so a RunSpec field or config that a spec file still names
// cannot be removed unnoticed.  Every paper-figure plan (plans/fig_*.json)
// runs the §6.1 cluster: its base restates ClusterParams{}, so a run
// differs from the defaults only in the fields its axis values set.
TEST(Harness, FigurePlansKeepTheSection61Setup) {
  size_t plans = 0;
  size_t fig_plans = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(FAASTCC_SOURCE_DIR "/plans")) {
    if (entry.path().extension() != ".json") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    ++plans;
    const std::string text = read_file(entry.path());
    const bool fig = name.rfind("fig_", 0) == 0;
    if (fig) {
      ++fig_plans;
      RunSpec base;
      apply_spec_patch(base, *json::parse(text).find("base"));
      EXPECT_EQ(to_json(base), to_json(RunSpec{}));
    }

    SweepPlan plan;
    try {
      plan = SweepPlan::from_text(text);
    } catch (const SpecError& e) {
      ADD_FAILURE() << e.what();
      continue;
    }
    std::set<std::string> ids;
    for (const SweepItem& item : plan.items) {
      SCOPED_TRACE(item.id);
      EXPECT_TRUE(ids.insert(item.id).second) << "duplicate run id";
      const ClusterParams p = item.spec.resolve();
      if (!fig) continue;
      EXPECT_EQ(p.partitions, 16u);
      EXPECT_EQ(p.compute_nodes, 10u);
      EXPECT_EQ(p.clients, 16u);
      EXPECT_EQ(p.workload.num_keys, 100000u);
      EXPECT_EQ(p.workload.value_size, 8u);
      EXPECT_EQ(p.seed, 42u);
      EXPECT_EQ(p.dags_per_client, 1000);
      // The refresh-period ablation is the one axis that moves it.
      if (item.id.rfind("refresh-", 0) != 0) {
        EXPECT_EQ(p.tcc.push_period, milliseconds(50));
      }
    }
  }
  EXPECT_EQ(fig_plans, 4u);
  EXPECT_GT(plans, fig_plans);

  size_t workloads = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           FAASTCC_SOURCE_DIR "/perfbench/workloads")) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++workloads;
    EXPECT_NO_THROW(spec_from_text(read_file(entry.path())).resolve());
  }
  EXPECT_GE(workloads, 3u);
}

TEST(Harness, SystemNames) {
  EXPECT_STREQ(system_name(SystemKind::kFaasTcc), "FaaSTCC");
  EXPECT_STREQ(system_name(SystemKind::kHydroCache), "HydroCache");
  EXPECT_STREQ(system_name(SystemKind::kCloudburst), "Cloudburst");
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(fmt(1.25, 1), "1.2");
  EXPECT_EQ(fmt(1.25, 2), "1.25");
  EXPECT_EQ(fmt(1000.0, 0), "1000");
  EXPECT_EQ(fmt_bytes(100), "100 B");
  EXPECT_EQ(fmt_bytes(2048), "2.0 KiB");
  EXPECT_EQ(fmt_bytes(3.5 * 1024 * 1024), "3.5 MiB");
}

TEST(Cluster, TopologyRoutesKeysToPartitions) {
  ClusterParams p;
  p.partitions = 4;
  p.clients = 0;
  p.workload.num_keys = 10;
  Cluster cluster(p);
  const auto topo = cluster.tcc_topology();
  EXPECT_EQ(topo.num_partitions(), 4u);
  for (Key k = 0; k < 10; ++k) {
    EXPECT_EQ(topo.partition_of(k), k % 4);
    EXPECT_EQ(topo.address_of(k), topo.partitions[k % 4]);
  }
}

TEST(Cluster, PreloadPopulatesEveryPartition) {
  ClusterParams p;
  p.partitions = 4;
  p.clients = 0;
  p.workload.num_keys = 100;
  p.prewarm_caches = false;
  Cluster cluster(p);
  cluster.start();
  size_t total = 0;
  for (auto& part : cluster.tcc_partitions()) {
    EXPECT_EQ(part->store().num_keys(), 25u);
    total += part->store().num_keys();
  }
  EXPECT_EQ(total, 100u);
}

TEST(Cluster, PrewarmFillsCaches) {
  ClusterParams p;
  p.partitions = 2;
  p.compute_nodes = 3;
  p.clients = 0;
  p.workload.num_keys = 50;
  p.prewarm_caches = true;
  Cluster cluster(p);
  cluster.start();
  for (auto& cache : cluster.faastcc_caches()) {
    EXPECT_EQ(cache->entry_count(), 50u);
  }
}

TEST(Cluster, BoundedPrewarmRespectsCapacity) {
  ClusterParams p;
  p.partitions = 2;
  p.compute_nodes = 2;
  p.clients = 0;
  p.workload.num_keys = 50;
  p.cache_capacity = 10;
  p.prewarm_caches = true;
  Cluster cluster(p);
  cluster.start();
  for (auto& cache : cluster.faastcc_caches()) {
    EXPECT_EQ(cache->entry_count(), 10u);
    // Hottest keys first: key 0 is rank 0 of the Zipf distribution.
    EXPECT_TRUE(cache->has(0));
    EXPECT_FALSE(cache->has(49));
  }
}

}  // namespace
}  // namespace faastcc::harness
