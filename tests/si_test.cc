// Tests for the Snapshot Isolation extension (paper §7 future work):
// first-committer-wins write-write conflict detection on top of the TCC
// storage layer.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "sim/when_all.h"
#include "storage/storage_client.h"
#include "storage/tcc_partition.h"

namespace faastcc::storage {
namespace {

std::vector<KeyValue> one_write(Key k, Value v) {
  std::vector<KeyValue> w;
  w.push_back(KeyValue{k, std::move(v)});
  return w;
}

class SiClusterTest : public ::testing::Test {
 protected:
  static constexpr size_t kPartitions = 2;

  SiClusterTest()
      : net_(loop_, net::NetworkParams{}, Rng(7)), client_rpc_(net_, 50) {
    TccTopology topo;
    for (size_t p = 0; p < kPartitions; ++p) {
      topo.partitions.push_back(100 + static_cast<net::Address>(p));
    }
    for (size_t p = 0; p < kPartitions; ++p) {
      TccPartitionParams params;
      params.gossip_period = milliseconds(2);
      partitions_.push_back(std::make_unique<TccPartition>(
          net_, topo.partitions[p], static_cast<PartitionId>(p),
          topo.partitions, params));
    }
    client_ = std::make_unique<TccStorageClient>(client_rpc_, topo);
    for (auto& p : partitions_) p->start();
    loop_.run_until(milliseconds(20));
  }

  template <typename F>
  void run(F&& body) {
    bool done = false;
    sim::spawn([](F f, bool& flag) -> sim::Task<void> {
      co_await f();
      flag = true;
    }(std::forward<F>(body), done));
    const SimTime deadline = loop_.now() + seconds(60);
    while (!done && loop_.now() < deadline) {
      loop_.run_until(loop_.now() + milliseconds(5));
    }
    ASSERT_TRUE(done);
  }

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode client_rpc_;
  std::vector<std::unique_ptr<TccPartition>> partitions_;
  std::unique_ptr<TccStorageClient> client_;
};

TEST_F(SiClusterTest, NonConflictingCommitSucceeds) {
  run([&]() -> sim::Task<void> {
    auto cts = co_await client_->commit(1, one_write(5, "v1"),
                                        Timestamp::min(), Timestamp::max());
    EXPECT_TRUE(cts.has_value());
  });
}

TEST_F(SiClusterTest, WriteAfterSnapshotConflicts) {
  run([&]() -> sim::Task<void> {
    // T1 commits a version of key 5.
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    // T2's snapshot predates t1, so its write to key 5 must abort.
    auto cts = co_await client_->commit(2, one_write(5, "v2"),
                                        Timestamp::min(), t1.prev());
    EXPECT_FALSE(cts.has_value());
    // The version in the store is still T1's.
    const auto r = partitions_[5 % kPartitions]->store().read_at(
        5, Timestamp::max());
    EXPECT_EQ(r.version->value, "v1");
  });
}

TEST_F(SiClusterTest, WriteBeforeSnapshotDoesNotConflict) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    auto cts =
        co_await client_->commit(2, one_write(5, "v2"), t1, t1);
    EXPECT_TRUE(cts.has_value());
  });
}

TEST_F(SiClusterTest, ConcurrentPreparersFirstCommitterWins) {
  run([&]() -> sim::Task<void> {
    // Two transactions with the same snapshot race to write key 5.  The
    // prepare lock makes exactly one win, even though neither version is
    // installed when the other prepares.
    const Timestamp snapshot = partitions_[0]->stable_time();
    auto t1 = client_->commit(10, one_write(5, "a"), Timestamp::min(),
                              snapshot);
    auto t2 = client_->commit(11, one_write(5, "b"), Timestamp::min(),
                              snapshot);
    std::vector<sim::Task<std::optional<Timestamp>>> both;
    both.push_back(std::move(t1));
    both.push_back(std::move(t2));
    auto results = co_await sim::when_all(loop_, std::move(both));
    const int committed = static_cast<int>(results[0].has_value()) +
                          static_cast<int>(results[1].has_value());
    EXPECT_EQ(committed, 1) << "exactly one of two conflicting writers";
  });
}

TEST_F(SiClusterTest, DisjointWriteSetsBothCommit) {
  run([&]() -> sim::Task<void> {
    const Timestamp snapshot = partitions_[0]->stable_time();
    auto t1 = client_->commit(10, one_write(4, "a"), Timestamp::min(),
                              snapshot);
    auto t2 = client_->commit(11, one_write(5, "b"), Timestamp::min(),
                              snapshot);
    std::vector<sim::Task<std::optional<Timestamp>>> both;
    both.push_back(std::move(t1));
    both.push_back(std::move(t2));
    auto results = co_await sim::when_all(loop_, std::move(both));
    EXPECT_TRUE(results[0].has_value());
    EXPECT_TRUE(results[1].has_value());
  });
}

TEST_F(SiClusterTest, AbortReleasesLocksForLaterTxn) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    // Conflicting attempt aborts...
    auto bad = co_await client_->commit(2, one_write(5, "v2"),
                                        Timestamp::min(), t1.prev());
    EXPECT_FALSE(bad.has_value());
    // ... and a later transaction with a fresh snapshot succeeds (the
    // conflicting prepare must not have leaked a lock or a pending slot).
    auto good =
        co_await client_->commit(3, one_write(5, "v3"), t1, t1);
    EXPECT_TRUE(good.has_value());
  });
}

TEST_F(SiClusterTest, AbortDoesNotWedgeStableTime) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    auto bad = co_await client_->commit(2, one_write(5, "v2"),
                                        Timestamp::min(), t1.prev());
    EXPECT_FALSE(bad.has_value());
    const Timestamp before = partitions_[0]->stable_time();
    co_await sim::sleep_for(loop_, milliseconds(50));
    EXPECT_GT(partitions_[0]->stable_time(), before)
        << "aborted prepare pinned the stable time";
  });
}

TEST_F(SiClusterTest, MultiPartitionConflictAbortsEverywhere) {
  run([&]() -> sim::Task<void> {
    // Keys 4 and 5 live on different partitions.  A conflict on key 5
    // must also roll back the prepare on key 4's partition.
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    std::vector<KeyValue> writes;
    writes.push_back(KeyValue{4, "a"});
    writes.push_back(KeyValue{5, "b"});
    auto cts = co_await client_->commit(2, std::move(writes),
                                        Timestamp::min(), t1.prev());
    EXPECT_FALSE(cts.has_value());
    EXPECT_EQ(partitions_[4 % kPartitions]
                  ->store()
                  .read_at(4, Timestamp::max())
                  .version,
              nullptr)
        << "half of an aborted SI transaction was installed";
    co_await sim::sleep_for(loop_, milliseconds(50));
    const Timestamp before = partitions_[0]->stable_time();
    co_await sim::sleep_for(loop_, milliseconds(50));
    EXPECT_GT(partitions_[0]->stable_time(), before);
  });
}

// ---------------------------------------------------------------------------
// End to end: SI mode on the full FaaS stack prevents lost updates.
// ---------------------------------------------------------------------------

TEST(SiEndToEnd, ConcurrentIncrementsNeverLoseUpdates) {
  harness::ClusterParams params;
  params.system = harness::SystemKind::kFaasTcc;
  params.faastcc.snapshot_isolation = true;
  params.partitions = 2;
  params.compute_nodes = 4;
  params.clients = 0;
  params.workload.num_keys = 16;
  params.prewarm_caches = false;  // counter reads must hit storage fresh
  harness::Cluster cluster(params);

  constexpr Key kCounter = 3;
  cluster.registry().register_function(
      "increment", [kCounter](faas::ExecEnv& env) -> sim::Task<Buffer> {
        auto vals = co_await env.txn.read(std::vector<Key>(1, kCounter));
        if (!vals.has_value()) {
          env.abort_requested = true;
          co_return Buffer{};
        }
        const Value& v = (*vals)[0];
        int count = 0;
        if (!v.empty() && v[0] >= '0' && v[0] <= '9') {
          count = std::stoi(std::string(v.view()));
        }
        env.txn.write(kCounter, std::to_string(count + 1));
        co_return Buffer{};
      });

  cluster.start();
  net::RpcNode driver(cluster.network(), 900);
  int committed = 0;
  int aborted = 0;
  driver.handle_oneway(faas::kDagDone, [&](Buffer b, net::Address) {
    auto done = decode_message<faas::DagDoneMsg>(b);
    if (done.committed) {
      ++committed;
    } else {
      ++aborted;
    }
  });
  auto submit = [&](TxnId id) {
    faas::StartDagMsg start;
    start.txn_id = id;
    start.client = 900;
    faas::FunctionSpec f;
    f.name = "increment";
    start.spec = faas::DagSpec::chain({f});
    driver.send(cluster.scheduler_address(), faas::kStartDag, start);
  };

  // Launch batches of racing increments; retry aborted ones until 30
  // increments have committed.
  TxnId next = 1;
  int in_flight = 0;
  const int target = 30;
  while (committed < target && cluster.loop().now() < seconds(120)) {
    while (in_flight + committed < target) {
      submit(next++);
      ++in_flight;
    }
    const int before = committed + aborted;
    cluster.loop().run_until(cluster.loop().now() + milliseconds(5));
    in_flight -= (committed + aborted) - before;
  }
  ASSERT_EQ(committed, target);
  EXPECT_GT(aborted, 0) << "racing increments should conflict sometimes";

  // The counter equals the number of committed increments: no lost
  // updates, which plain TCC cannot guarantee.
  cluster.loop().run_until(cluster.loop().now() + milliseconds(50));
  const auto& partition =
      cluster.tcc_partitions()[kCounter % params.partitions];
  const auto r = partition->store().read_at(kCounter, Timestamp::max());
  ASSERT_NE(r.version, nullptr);
  EXPECT_EQ(r.version->value, std::to_string(target));
}

}  // namespace
}  // namespace faastcc::storage
