// Integration tests for per-slot replica chains: the commit path streams
// installs to followers and withholds the client ack until the quorum has
// them, duplicated or re-sent frames apply at most once, a killed leader's
// follower wins promotion with the handoff floor sealed, and a promotion
// landing mid-scale-out still delivers the joiners' parcels.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace faastcc::harness {
namespace {

ClusterParams repl_params(uint64_t seed, size_t factor) {
  ClusterParams p;
  p.system = SystemKind::kFaasTcc;
  p.seed = seed;
  p.partitions = 3;
  p.compute_nodes = 2;
  p.clients = 4;
  p.dags_per_client = 80;
  p.workload.num_keys = 500;
  p.workload.dag_size = 3;
  p.check_consistency = true;
  p.replication.factor = factor;
  return p;
}

void expect_oracle_clean(Cluster& cluster) {
  check::ConsistencyOracle* oracle = cluster.oracle();
  ASSERT_NE(oracle, nullptr);
  const auto vs = oracle->check();
  EXPECT_TRUE(vs.empty()) << oracle->report(vs);
}

// A follower blackout punches a hole in the replication stream the
// leader's bounded retry cannot close (demote -> backfill once it
// returns), while duplication replays frames — including stream frames
// that overlap the backfill that just repaired the hole.  The seq window
// must absorb both: dup frames are counted and dropped, never re-applied,
// and the oracle stays clean (a re-applied install would surface as a
// duplicate-install or atomic-visibility violation).
TEST(Replication, DuplicatedAndLossyStreamAppliesAtMostOnce) {
  ClusterParams p = repl_params(17, 2);
  p.dags_per_client = 200;
  p.faults.loss_prob = 0.02;
  p.faults.dup_prob = 0.03;
  // Partition 0's first follower (6000 + p*4 + r) goes dark for 1.6 s —
  // past the full commit retry chain (12 attempts, 25 ms timeouts, capped
  // backoff), so the leader demotes it out of the seal quorum and
  // re-syncs it by backfill after it returns.
  p.faults.crashes.push_back(
      net::CrashWindow{6000, milliseconds(400), milliseconds(2000)});
  p.faults.dag_timeout = milliseconds(500);
  // A generous lease keeps a loss-delayed seal beat from reading as a dead
  // leader: this test isolates the frame dedup/backfill machinery, so no
  // follower should promote.  (kill-leader-lossy in the fuzzer covers the
  // tight-lease interaction.)
  p.replication.lease_timeout = milliseconds(250);
  Cluster cluster(p);
  const RunResult r = cluster.run();
  EXPECT_GT(r.committed, 0u);
  expect_oracle_clean(cluster);

  uint64_t installs = 0;
  uint64_t dups = 0;
  uint64_t backfills = 0;
  for (auto& f : cluster.tcc_followers()) {
    EXPECT_TRUE(f->is_follower());
    installs += f->counters().repl_installs.value();
    dups += f->counters().repl_dup_frames.value();
    backfills += f->counters().repl_backfills.value();
  }
  EXPECT_GT(installs, 0u);
  // The dup knob is high enough that some frames demonstrably arrived
  // twice — the at-most-once claim is exercised, not vacuous.
  EXPECT_GT(dups, 0u);
  // Loss at 2% over thousands of frames demotes at least one follower,
  // so the backfill repair path ran too.
  EXPECT_GT(backfills, 0u);
  EXPECT_EQ(cluster.metrics().counter("repl.promotions").value(), 0u);
}

// Kill the leader of partition 1 for good mid-run.  A commit the dead
// leader acked must have reached its follower first (the ack is withheld
// until f+1 hold the installs), so after promotion the oracle's
// durability check — every acked write survives on the promoted chain —
// stays clean, and promises issued from the dead leader's published safe
// times stay sound (handoff floor >= sealed safe).  Snapshot Isolation
// commits always prepare, so every commit of that mode crosses the
// failover as a prepare/commit pair; both modes must hold.
TEST(Replication, LeaderKillPromotesFollowerWithAckedWritesDurable) {
  for (const bool si : {false, true}) {
    for (uint64_t seed : {3u, 11u}) {
      SCOPED_TRACE(testing::Message() << "si=" << si << " seed=" << seed);
      ClusterParams p = repl_params(seed, 1);
      p.faastcc.snapshot_isolation = si;
      p.faults.crashes.push_back(
          net::CrashWindow{101, milliseconds(300), seconds(3600)});
      p.faults.dag_timeout = milliseconds(500);
      Cluster cluster(p);
      const RunResult r = cluster.run();
      EXPECT_GT(r.committed, 0u);
      expect_oracle_clean(cluster);

      EXPECT_GE(cluster.metrics().counter("repl.promotions").value(), 1u);
      // Exactly the killed slot's follower promoted; the survivors' did not.
      auto& followers = cluster.tcc_followers();
      ASSERT_EQ(followers.size(), 3u);
      EXPECT_FALSE(followers[1]->is_follower());
      EXPECT_TRUE(followers[1]->serving());
      EXPECT_EQ(followers[1]->counters().promotions.value(), 1u);
      EXPECT_TRUE(followers[0]->is_follower());
      EXPECT_TRUE(followers[2]->is_follower());
      // The promotion republished the table under a bumped epoch.
      ASSERT_NE(followers[1]->routing_table(), nullptr);
      EXPECT_EQ(followers[1]->routing_table()->partitions[1],
                followers[1]->address());
    }
  }
}

// Promotion racing the elastic handoff: the leader of partition 1 dies
// just after the scale-out bump, while its migrate-out parcels are still
// being shepherded.  The shepherd must follow the promotion (re-resolving
// the table each round) so the joiners still receive every parcel and end
// the run serving — under the promoted leader's bumped epoch.
TEST(Replication, PromotionDuringMigrationOutStillDeliversParcels) {
  ClusterParams p = repl_params(29, 1);
  p.elastic.add_partitions = 2;
  p.elastic.at = milliseconds(300);
  p.faults.crashes.push_back(
      net::CrashWindow{101, milliseconds(310), seconds(3600)});
  p.faults.dag_timeout = milliseconds(500);
  Cluster cluster(p);
  const RunResult r = cluster.run();
  EXPECT_GT(r.committed, 0u);
  expect_oracle_clean(cluster);

  EXPECT_GE(cluster.metrics().counter("repl.promotions").value(), 1u);
  EXPECT_GE(cluster.metrics().counter("routing.epoch_bumps").value(), 1u);
  auto& parts = cluster.tcc_partitions();
  ASSERT_EQ(parts.size(), 5u);
  uint64_t migrated_in = 0;
  for (auto& part : parts) {
    if (part->id() == 1) continue;  // dead incumbent leader (crashed)
    EXPECT_TRUE(part->serving()) << "partition " << part->id();
    migrated_in += part->counters().keys_migrated_in.value();
  }
  // Both joiners completed their joins — including the parcel from the
  // slot whose leader died mid-handoff.
  EXPECT_GT(migrated_in, 0u);
  for (PartitionId j : {PartitionId{3}, PartitionId{4}}) {
    EXPECT_TRUE(parts[j]->serving()) << "joiner " << j;
    EXPECT_GT(parts[j]->counters().keys_migrated_in.value(), 0u)
        << "joiner " << j;
  }
}

}  // namespace
}  // namespace faastcc::harness
