// Unit tests for the client libraries: snapshot-interval algebra (Eq. 1-3),
// FaaSTCC context/session handling, HydroCache context handling, and the
// eventual baseline.
#include <gtest/gtest.h>

#include "client/eventual_client.h"
#include "client/faastcc_client.h"
#include "client/hydro_client.h"
#include "client/snapshot_interval.h"
#include "common/rng.h"

namespace faastcc::client {
namespace {

Timestamp ts(uint64_t us) { return Timestamp(us, 0, 0); }

// ---------------------------------------------------------------------------
// SnapshotInterval — the paper's Eq. 1/2/3 and the §4.5 case analysis.
// ---------------------------------------------------------------------------

TEST(SnapshotInterval, FullAdmitsEverything) {
  const auto si = SnapshotInterval::full();
  EXPECT_TRUE(si.admits(ts(1), ts(1)));
  EXPECT_TRUE(si.admits(Timestamp::max().prev(), Timestamp::max()));
  EXPECT_FALSE(si.empty());
}

TEST(SnapshotInterval, Section45Case1_StalePromiseRejected) {
  // Interval [80, 120]; cached <k', 50, 60>: promise 60 < 80 -> must
  // refresh from storage.
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_FALSE(si.admits(ts(50), ts(60)));
}

TEST(SnapshotInterval, Section45Case2_PromiseCoversLow) {
  // Cached <k', 50, 90>: consistent with [80, 120].
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_TRUE(si.admits(ts(50), ts(90)));
  si.narrow(ts(50), ts(90));
  EXPECT_EQ(si.low, ts(80));
  EXPECT_EQ(si.high, ts(90));
}

TEST(SnapshotInterval, Section45Case3_NewerVersionWithinPromise) {
  // Cached <k', 90, 130>: consistent with [80, 120].
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_TRUE(si.admits(ts(90), ts(130)));
  si.narrow(ts(90), ts(130));
  EXPECT_EQ(si.low, ts(90));
  EXPECT_EQ(si.high, ts(120));
}

TEST(SnapshotInterval, Section45Case4_TooNewRejected) {
  // Cached <k', 130, 140>: version beyond the promise horizon of k.
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_FALSE(si.admits(ts(130), ts(140)));
}

TEST(SnapshotInterval, NarrowingIsMonotone) {
  SnapshotInterval si = SnapshotInterval::full();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const SnapshotInterval before = si;
    const Timestamp v(rng.next_below(1000) + 1, 0, 0);
    const Timestamp p(v.physical_us() + rng.next_below(1000), 1, 0);
    if (!si.admits(v, p)) continue;
    si.narrow(v, p);
    EXPECT_GE(si.low, before.low);
    EXPECT_LE(si.high, before.high);
    EXPECT_FALSE(si.empty());
  }
}

TEST(SnapshotInterval, MergeIsIntersection) {
  const SnapshotInterval a{ts(10), ts(100)};
  const SnapshotInterval b{ts(50), ts(200)};
  std::vector<SnapshotInterval> parents{a, b};
  const auto m = SnapshotInterval::merge(parents);
  EXPECT_EQ(m.low, ts(50));
  EXPECT_EQ(m.high, ts(100));
}

TEST(SnapshotInterval, MergeDisjointIsEmpty) {
  const SnapshotInterval a{ts(10), ts(20)};
  const SnapshotInterval b{ts(30), ts(40)};
  std::vector<SnapshotInterval> parents{a, b};
  EXPECT_TRUE(SnapshotInterval::merge(parents).empty());
}

TEST(SnapshotInterval, MergeSingleIsIdentity) {
  const SnapshotInterval a{ts(10), ts(20)};
  std::vector<SnapshotInterval> parents{a};
  EXPECT_EQ(SnapshotInterval::merge(parents), a);
}

TEST(SnapshotInterval, EncodesToSixteenBytes) {
  // The paper's headline metadata claim (Fig. 5): two timestamps.
  const SnapshotInterval si{ts(1), ts(2)};
  EXPECT_EQ(encoded_size(si), 16u);
}

TEST(SnapshotInterval, RoundTripsThroughCodec) {
  const SnapshotInterval si{ts(123), ts(456)};
  const Buffer b = encode_message(si);
  EXPECT_EQ(decode_message<SnapshotInterval>(b), si);
}

TEST(SnapshotInterval, FixedIntervalAdmitsOnlyCoveringVersions) {
  const auto si = SnapshotInterval::fixed(ts(100));
  EXPECT_TRUE(si.admits(ts(100), ts(100)));
  EXPECT_TRUE(si.admits(ts(50), ts(150)));
  EXPECT_FALSE(si.admits(ts(101), ts(200)));  // version too new
  EXPECT_FALSE(si.admits(ts(50), ts(99)));    // promise too old
}

// ---------------------------------------------------------------------------
// FaaSTCC context & merge (Alg. 1 lines 2-12).
// ---------------------------------------------------------------------------

TEST(FaasTccContext, RoundTripsThroughCodec) {
  FaasTccContext c;
  c.interval = SnapshotInterval{ts(5), ts(10)};
  c.dep_ts = ts(3);
  c.snapshot_fixed = true;
  c.write_set[7] = "seven";
  c.write_set[9] = "nine";
  const auto d = decode_message<FaasTccContext>(encode_message(c));
  EXPECT_EQ(d.interval, c.interval);
  EXPECT_EQ(d.dep_ts, c.dep_ts);
  EXPECT_TRUE(d.snapshot_fixed);
  EXPECT_EQ(d.write_set.at(7), "seven");
  EXPECT_EQ(d.write_set.size(), 2u);
}

TEST(FaasTccContext, RejectsUnknownWireVersion) {
  FaasTccContext c;
  c.write_set[7] = "seven";
  Buffer b = encode_message(c);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b[0], FaasTccContext::kWireVersion);
  b[0] = FaasTccContext::kWireVersion + 1;
  EXPECT_THROW(decode_message<FaasTccContext>(b), CodecError);
}

TEST(HydroContext, RejectsUnknownWireVersion) {
  HydroContext c;
  c.write_set[7] = "seven";
  Buffer b = encode_message(c);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b[0], HydroContext::kWireVersion);
  b[0] = HydroContext::kWireVersion + 1;
  EXPECT_THROW(decode_message<HydroContext>(b), CodecError);
}

TEST(FaasTccSession, EmptyDecodesToMin) {
  EXPECT_EQ(decode_faastcc_session(Buffer{}), Timestamp::min());
}

TEST(FaasTccSession, RoundTrips) {
  const Buffer b = encode_faastcc_session(ts(77));
  EXPECT_EQ(decode_faastcc_session(b), ts(77));
}

// The adapter needs live network plumbing only for reads/commits; open()
// and merge logic are testable with a dummy RPC endpoint.
class FaasTccOpenTest : public ::testing::Test {
 protected:
  FaasTccOpenTest()
      : net_(loop_, net::NetworkParams{}, Rng(1)),
        rpc_(net_, 1),
        adapter_(rpc_, 2, storage::TccTopology{{100}}, FaasTccConfig{},
                 nullptr) {}

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode rpc_;
  FaasTccAdapter adapter_;
  TxnInfo info_;
};

TEST_F(FaasTccOpenTest, RootStartsWithFullInterval) {
  auto txn = adapter_.open(info_, {}, Buffer{});
  ASSERT_NE(txn, nullptr);
  auto* t = static_cast<FaasTccTxn*>(txn.get());
  EXPECT_EQ(t->interval(), SnapshotInterval::full());
}

TEST_F(FaasTccOpenTest, RootTakesSessionDependency) {
  auto txn = adapter_.open(info_, {}, encode_faastcc_session(ts(55)));
  ASSERT_NE(txn, nullptr);
  // Session dep surfaces in the exported context.
  const auto ctx =
      decode_message<FaasTccContext>(txn->export_context().bytes);
  EXPECT_EQ(ctx.dep_ts, ts(55));
}

TEST_F(FaasTccOpenTest, MergeIntersectsParentIntervals) {
  FaasTccContext a;
  a.interval = SnapshotInterval{ts(10), ts(100)};
  FaasTccContext b;
  b.interval = SnapshotInterval{ts(40), ts(80)};
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  auto* t = static_cast<FaasTccTxn*>(txn.get());
  EXPECT_EQ(t->interval(), (SnapshotInterval{ts(40), ts(80)}));
}

TEST_F(FaasTccOpenTest, IncompatibleParentsAbort) {
  FaasTccContext a;
  a.interval = SnapshotInterval{ts(10), ts(20)};
  FaasTccContext b;
  b.interval = SnapshotInterval{ts(30), ts(40)};
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  EXPECT_EQ(txn, nullptr);
}

TEST_F(FaasTccOpenTest, MergeUnionsWriteSets) {
  FaasTccContext a;
  a.write_set[1] = "one";
  FaasTccContext b;
  b.write_set[2] = "two";
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<FaasTccContext>(txn->export_context().bytes);
  EXPECT_EQ(ctx.write_set.size(), 2u);
}

TEST_F(FaasTccOpenTest, MetadataIsSixteenBytes) {
  auto txn = adapter_.open(info_, {}, Buffer{});
  EXPECT_EQ(txn->export_context().metadata_bytes, 16u);
}

TEST_F(FaasTccOpenTest, WritesReadBackWithinTxn) {
  auto txn = adapter_.open(info_, {}, Buffer{});
  txn->write(5, "mine");
  bool done = false;
  sim::spawn([](FunctionTxn& t, bool& flag) -> sim::Task<void> {
    auto vals = co_await t.read(std::vector<Key>(1, Key{5}));
    EXPECT_TRUE(vals.has_value());
    EXPECT_EQ((*vals)[0], "mine");  // served from the write set, no RPC
    flag = true;
  }(*txn, done));
  loop_.run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// Hydro context / session.
// ---------------------------------------------------------------------------

class HydroOpenTest : public ::testing::Test {
 protected:
  HydroOpenTest()
      : net_(loop_, net::NetworkParams{}, Rng(1)),
        rpc_(net_, 1),
        adapter_(rpc_, 2, storage::EvTopology{{{100}}}, Rng(3), HydroConfig{},
                 nullptr) {}

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode rpc_;
  HydroAdapter adapter_;
  TxnInfo info_;
};

TEST_F(HydroOpenTest, RootInheritsSessionCausalPast) {
  HydroSession s;
  s.lamport = 42;
  s.deps.require(7, 9, 100, 2);
  auto txn = adapter_.open(info_, {}, encode_message(s));
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<HydroContext>(txn->export_context().bytes);
  EXPECT_EQ(ctx.lamport, 42u);
  ASSERT_NE(ctx.deps.find(7), nullptr);
  EXPECT_EQ(ctx.deps.find(7)->counter, 9u);
}

TEST_F(HydroOpenTest, ParentsMergeDependencies) {
  HydroContext a;
  a.deps.mark_read(1, 5, 100);
  a.lamport = 10;
  HydroContext b;
  b.deps.require(2, 7, 100, 1);
  b.lamport = 20;
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<HydroContext>(txn->export_context().bytes);
  EXPECT_EQ(ctx.lamport, 20u);
  EXPECT_NE(ctx.deps.find(1), nullptr);
  EXPECT_NE(ctx.deps.find(2), nullptr);
}

TEST_F(HydroOpenTest, ConflictingParentReadsAbort) {
  HydroContext a;
  a.deps.mark_read(1, 5, 100);
  HydroContext b;
  b.deps.mark_read(1, 7, 120);  // same key, different version read
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  EXPECT_EQ(txn, nullptr);
}

TEST_F(HydroOpenTest, AgreeingParentReadsMerge) {
  HydroContext a;
  a.deps.mark_read(1, 5, 100);
  HydroContext b;
  b.deps.mark_read(1, 5, 100);
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  EXPECT_NE(txn, nullptr);
}

TEST_F(HydroOpenTest, StaticRestrictionPrunesMetadata) {
  info_.is_static = true;
  info_.declared_read_set = {1, 2};
  info_.declared_write_set = {3};
  HydroContext parent;
  for (Key k = 0; k < 100; ++k) parent.deps.require(k, 1, 100, 1);
  auto txn = adapter_.open(info_, {encode_message(parent)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  // Only keys 1, 2, 3 remain relevant.
  EXPECT_LE(txn->export_context().metadata_bytes, 4 + 3 * cache::kDepWireBytes);
}

TEST_F(HydroOpenTest, DynamicShipsFullMetadata) {
  HydroContext parent;
  for (Key k = 0; k < 100; ++k) {
    parent.deps.require(k, 1, milliseconds(1000), 1);
  }
  auto txn = adapter_.open(info_, {encode_message(parent)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  EXPECT_GE(txn->export_context().metadata_bytes, 100 * cache::kDepWireBytes);
}

TEST_F(HydroOpenTest, MetadataBytesMeasureTheShippedMap) {
  // Entries written 0..990 ms; once now() is 15.5 s the GC horizon
  // (now - dep_gc_window) sits at 500 ms, inside that range.
  HydroContext parent;
  parent.global_cut = seconds(100);
  for (Key k = 0; k < 100; ++k) {
    parent.deps.require(k, 1, milliseconds(10 * static_cast<int64_t>(k)), 1);
  }
  loop_.schedule_at(HydroConfig{}.dep_gc_window + milliseconds(500), [] {});
  loop_.run();
  auto txn = adapter_.open(info_, {encode_message(parent)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  const ExportedContext out = txn->export_context();
  const auto shipped = decode_message<HydroContext>(out.bytes);
  EXPECT_GT(shipped.deps.size(), 0u);
  EXPECT_LT(shipped.deps.size(), 100u);
  EXPECT_EQ(out.metadata_bytes, shipped.deps.wire_bytes());
}

TEST(HydroSessionCodec, RoundTrips) {
  HydroSession s;
  s.lamport = 5;
  s.global_cut = 123;
  s.deps.require(1, 2, 3, 1);
  const auto d = decode_message<HydroSession>(encode_message(s));
  EXPECT_EQ(d.lamport, 5u);
  EXPECT_EQ(d.global_cut, 123);
  EXPECT_EQ(d.deps.size(), 1u);
}

// ---------------------------------------------------------------------------
// Eventual baseline.
// ---------------------------------------------------------------------------

TEST(EventualClient, ContextCarriesOnlyWrites) {
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(1));
  net::RpcNode rpc(net, 1);
  EventualAdapter adapter(rpc, 2, storage::EvTopology{{{100}}}, Rng(3),
                          nullptr);
  TxnInfo info;
  auto txn = adapter.open(info, {}, Buffer{});
  txn->write(9, "w");
  EXPECT_EQ(txn->export_context().metadata_bytes, 0u);
  const auto ctx = decode_message<EventualContext>(txn->export_context().bytes);
  EXPECT_EQ(ctx.write_set.at(9), "w");

  // A child inherits the parent's writes (read-your-writes downstream).
  auto child = adapter.open(info, {txn->export_context().bytes}, Buffer{});
  bool done = false;
  sim::spawn([](FunctionTxn& t, bool& flag) -> sim::Task<void> {
    auto vals = co_await t.read(std::vector<Key>(1, Key{9}));
    EXPECT_EQ((*vals)[0], "w");
    flag = true;
  }(*child, done));
  loop.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace faastcc::client
