// Golden wire bytes: the exact encoding of one populated instance of every
// wire type (tests/wire_cases.h), pinned as length + FNV-1a-64 digest.
// Round-trip and size tests cannot see two same-width fields trading
// places; this test can.  A change here moves simulated byte counts and
// network delays, so it must be deliberate.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>

#include "net/rpc.h"
#include "sim/event_loop.h"
#include "sim/task.h"
#include "storage/tcc_partition.h"
#include "wire_cases.h"

namespace faastcc {
namespace {

uint64_t fnv1a64(const Buffer& b) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(const Buffer& b) {
  std::string s;
  char tmp[3];
  for (uint8_t c : b) {
    std::snprintf(tmp, sizeof(tmp), "%02x", c);
    s += tmp;
  }
  return s;
}

struct Golden {
  size_t size;
  uint64_t fnv;
};

const std::map<std::string, Golden>& goldens() {
  static const std::map<std::string, Golden> kGoldens = {
      {"VersionedValue", {31, 0xd6e811192fbed8b8ull}},
      {"KeyValue", {14, 0xd34848cf6de9a628ull}},
      {"TccReadReq", {60, 0x101b51ed113bcac8ull}},
      {"TccReadResp", {91, 0x9f5b719758d22f8aull}},
      {"TccPrepareReq", {45, 0xee190d40faf79753ull}},
      {"TccPrepareResp", {9, 0x20af5f2d85b155c9ull}},
      {"TccAbortReq", {8, 0x215a64ab25887ecbull}},
      {"TccCommitReq", {55, 0xfd8f11d4c6fe3262ull}},
      {"SubscribeReq", {28, 0x12f990af40514038ull}},
      {"GossipMsg", {12, 0x7739ac0c5b80ec02ull}},
      {"PushMsg", {67, 0x30f2a468a47d39b6ull}},
      {"SafeUpMsg", {16, 0x2f96a46fb45f6615ull}},
      {"StableDownMsg", {12, 0xe2dc7b866b06b75cull}},
      {"TccMigrateOutReq", {56, 0xf98998d6c93e3da5ull}},
      {"TccMigrateOutResp", {121, 0x1af58d4f3d3c77f9ull}},
      {"TccMigrateInReq", {80, 0xd8fe9f90855a6785ull}},
      {"TccMigrateInResp", {1, 0xaf63bd4c8601b7dfull}},
      {"TccReplInstallReq", {41, 0xdbe76183db19c0ffull}},
      {"TccReplInstallResp", {1, 0xaf63bd4c8601b7dfull}},
      {"TccReplSealReq", {16, 0x12cbd3a63d0ddce4ull}},
      {"TccReplSealResp", {9, 0x5de8b4cb1b8a3c5full}},
      {"ResolvedTxn", {16, 0xa4c6d3921e93b040ull}},
      {"TccBackfillReq/no-epoch", {84, 0xe5f5b869c2ff53fbull}},
      {"TccBackfillReq/epoch", {88, 0x159783eca6a0af78ull}},
      {"TccBackfillResp", {1, 0xaf63bd4c8601b7dfull}},
      {"EvVersion", {16, 0x29677f9cf90434c4ull}},
      {"EvItem", {43, 0xbd878eaac7b2aa28ull}},
      {"EvGetReq", {28, 0xa8342604e661ca23ull}},
      {"EvGetResp", {55, 0xb05e0373a4cf0d6cull}},
      {"EvPutReq", {90, 0xadce3a415d104d99ull}},
      {"EvPutResp", {28, 0xd21ee7e5cad33c4dull}},
      {"EvGossipMsg", {55, 0x82f3319e56fa7240ull}},
      {"EvStableCutMsg", {16, 0x8a2ad202e6fddb44ull}},
      {"CacheReadReq", {37, 0xc52cc5869b0bbb74ull}},
      {"CacheReadResp", {86, 0x515dc98c29288706ull}},
      {"HydroReadReq", {102, 0x5e1c37cb09bf64e5ull}},
      {"HydroReadEntry", {84, 0x40f43bcbbe8cd912ull}},
      {"HydroReadResp", {102, 0x1d94b9a9c42f357aull}},
      {"PlainReadReq", {20, 0x12d894e7d9915376ull}},
      {"PlainReadResp", {19, 0x67393fbcc7c95a7full}},
      {"StoredDep", {25, 0x1a786cc5481d4e03ull}},
      {"HydroStored", {39, 0xc7abcdb5ffdbc4a7ull}},
      {"DepMap", {82, 0xde28eae712ec8d16ull}},
      {"FunctionSpec", {26, 0x3145f2d596d6820dull}},
      {"DagSpec", {84, 0xaeb8e52742d16ae0ull}},
      {"StartDagMsg", {103, 0xaeb5ef88af4932bull}},
      {"TriggerMsg", {135, 0xcefb6f55dbe8ed57ull}},
      {"DagDoneMsg", {20, 0x7fc2a48d1ae7a996ull}},
      {"AbortNoticeMsg", {8, 0xa56f4886f9cb5647ull}},
      {"StepArgs", {20, 0x4acdc5072a311190ull}},
      {"SinkArgs", {28, 0xc4780917b3b7741cull}},
      {"SnapshotInterval", {16, 0x9571032e374be820ull}},
      {"FaasTccContext/v1", {59, 0xfb5f0f0318fdef59ull}},
      {"FaasTccContext/v2", {63, 0x370a51a8e7d8b124ull}},
      {"HydroContext", {116, 0x32c58c1f3c63d815ull}},
      {"HydroSession", {98, 0xa1901ff990eb952full}},
      {"EventualContext", {31, 0x6fbc1dea4015e788ull}},
      {"FaasTccSession", {8, 0xa1746db257f52bb5ull}},
      {"RoutingTable/plain", {52, 0xd03fc09a40ac4136ull}},
      {"RoutingTable/replicated", {92, 0x32c655f78c1d60ffull}},
      {"TopoPromoteReq", {12, 0x73ef6c09500e3febull}},
  };
  return kGoldens;
}

TEST(WireGolden, EveryTypeEncodesToPinnedBytes) {
  const auto cases = wire_cases::all();
  EXPECT_EQ(cases.size(), goldens().size());
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto it = goldens().find(c.name);
    if (it == goldens().end()) {
      ADD_FAILURE() << "no golden; measured {\"" << c.name << "\", {"
                    << c.bytes.size() << ", 0x" << std::hex
                    << fnv1a64(c.bytes) << "ull}},";
      continue;
    }
    EXPECT_EQ(c.bytes.size(), it->second.size) << hex(c.bytes);
    EXPECT_EQ(fnv1a64(c.bytes), it->second.fnv) << hex(c.bytes);
  }
}

TEST(WireGolden, GoldenFramesDecode) {
  for (const auto& c : wire_cases::all()) {
    SCOPED_TRACE(c.name);
    EXPECT_NO_THROW(c.decode(std::make_shared<const Buffer>(c.bytes)));
  }
}

// The commit response frame is assembled by the partition: `ok`, then the
// commit timestamp.  Pin the bytes of a real fast-path commit reply.
TEST(WireGolden, CommitResponseFrameFromPartition) {
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(7));
  net::RpcNode rpc(net, 50);
  storage::TccPartition part(net, 100, 0, {100},
                             storage::TccPartitionParams{});
  part.start();
  Buffer raw;
  bool done = false;
  sim::spawn([](net::RpcNode& rpc, Buffer& raw, bool& done)
                 -> sim::Task<void> {
    storage::TccCommitReq commit;
    commit.txn = 9;
    commit.commit_ts = Timestamp::min();
    commit.dep_ts = Timestamp::min();
    commit.writes.push_back(storage::KeyValue{1, "v"});
    raw = co_await rpc.call_raw(100, storage::kTccCommit, rpc.encode(commit));
    done = true;
  }(rpc, raw, done));
  while (!done && loop.now() < seconds(10)) {
    loop.run_until(loop.now() + milliseconds(2));
  }
  ASSERT_TRUE(done);
  ASSERT_EQ(raw.size(), 9u) << hex(raw);
  EXPECT_EQ(raw[0], 1u);
  uint64_t commit_ts = 0;
  std::memcpy(&commit_ts, raw.data() + 1, 8);
  EXPECT_NE(commit_ts, 0u);
  EXPECT_EQ(fnv1a64(raw), 0xd2456a7afb99d2ceull) << hex(raw);
}

}  // namespace
}  // namespace faastcc
