// One populated instance of every wire type, encoded, together with a
// decoder for its bytes.  Shared by the golden wire-byte test (which pins
// the exact bytes) and the codec mutation test (which feeds truncated and
// corrupted copies of the same bytes back through the decoders).
//
// Field values are chosen pairwise distinct, so swapping two fields of the
// same width changes the bytes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_messages.h"
#include "client/eventual_client.h"
#include "client/faastcc_client.h"
#include "client/hydro_client.h"
#include "faas/messages.h"
#include "routing/routing_table.h"
#include "routing/topology_service.h"
#include "storage/messages.h"
#include "workload/workload.h"

namespace faastcc::wire_cases {

struct WireCase {
  std::string name;
  Buffer bytes;
  // Decodes a (possibly corrupted) frame through the shared-ownership
  // reader; throws CodecError on a malformed one.
  std::function<void(std::shared_ptr<const Buffer>)> decode;
};

template <typename M>
WireCase make_case(std::string name, const M& m) {
  return WireCase{std::move(name), encode_message(m),
                  [](std::shared_ptr<const Buffer> b) {
                    (void)decode_message<M>(std::move(b));
                  }};
}

inline Timestamp ts(uint64_t physical_us, uint32_t logical, uint32_t node) {
  return Timestamp(physical_us, logical, node);
}

inline storage::VersionedValue versioned(Key k, const char* v, uint64_t t) {
  storage::VersionedValue vv;
  vv.key = k;
  vv.value = v;
  vv.ts = ts(t, 1, 2);
  vv.promise = ts(t + 50, 3, 4);
  return vv;
}

inline storage::MigratedChain chain(Key k, uint64_t t) {
  storage::MigratedChain c;
  c.key = k;
  c.versions = {storage::MigratedVersion{"old", ts(t, 0, 1)},
                storage::MigratedVersion{"newer", ts(t + 9, 2, 1)}};
  return c;
}

inline routing::RoutingTable table(bool replicated) {
  routing::RoutingTable t =
      routing::RoutingTable::initial({100, 101, 102}, 2);
  t = t.with_partitions_added({103});
  if (replicated) {
    t.replicas = {{200, 201}, {}, {202}, {203, 204}};
  }
  return t;
}

inline cache::DepMap dep_map() {
  cache::DepMap m;
  m.mark_read(11, 3, 1000);
  m.require(7, 5, 2000, 1);
  m.require(42, 9, 3000, 2);
  return m;
}

inline faas::DagSpec dag_spec() {
  faas::DagSpec d;
  d.functions = {faas::FunctionSpec{"wl_step", {1, 2, 3}, {1}},
                 faas::FunctionSpec{"wl_sink", {4, 5}, {}}};
  d.is_static = true;
  d.declared_read_set = {31, 32};
  d.declared_write_set = {33};
  return d;
}

inline std::vector<WireCase> all() {
  using namespace storage;
  std::vector<WireCase> out;

  // --- TCC storage -------------------------------------------------------
  out.push_back(make_case("VersionedValue", versioned(5, "val", 100)));
  out.push_back(make_case("KeyValue", KeyValue{6, "kv"}));
  {
    TccReadReq q;
    q.snapshot = ts(900, 7, 3);
    q.keys = {21, 22, 23};
    q.cached_ts = {Timestamp::min(), ts(500, 1, 1), ts(600, 2, 2)};
    out.push_back(make_case("TccReadReq", q));
  }
  {
    TccReadResp resp;
    resp.stable_time = ts(800, 4, 5);
    TccReadResp::Entry e;
    e.key = 1;
    e.status = TccReadResp::Status::kValue;
    e.value = "fresh";
    e.ts = ts(700, 1, 0);
    e.promise = ts(790, 2, 0);
    e.open = true;
    resp.entries.push_back(e);
    e.key = 2;
    e.status = TccReadResp::Status::kUnchanged;
    e.value = Value();
    e.ts = ts(710, 3, 0);
    e.promise = ts(780, 4, 0);
    e.open = false;
    resp.entries.push_back(e);
    TccReadResp::Entry miss;
    miss.key = 3;
    miss.status = TccReadResp::Status::kMiss;
    resp.entries.push_back(miss);
    TccReadResp::Entry moved;
    moved.key = 4;
    moved.status = TccReadResp::Status::kWrongOwner;
    resp.entries.push_back(moved);
    out.push_back(make_case("TccReadResp", resp));
  }
  {
    TccPrepareReq q;
    q.txn = 77;
    q.dep_ts = ts(300, 1, 1);
    q.si_mode = true;
    q.snapshot_ts = ts(350, 2, 2);
    q.write_keys = {8, 9};
    out.push_back(make_case("TccPrepareReq", q));
  }
  out.push_back(
      make_case("TccPrepareResp", TccPrepareResp{ts(400, 5, 6), false}));
  out.push_back(make_case("TccAbortReq", TccAbortReq{78}));
  {
    TccCommitReq q;
    q.txn = 79;
    q.commit_ts = ts(410, 1, 2);
    q.dep_ts = ts(405, 3, 4);
    q.writes = {KeyValue{10, "a"}, KeyValue{11, "bb"}};
    out.push_back(make_case("TccCommitReq", q));
  }
  {
    SubscribeReq q;
    q.keys = {12, 13};
    q.seq = 14;
    out.push_back(make_case("SubscribeReq", q));
  }
  out.push_back(make_case("GossipMsg", GossipMsg{3, ts(420, 6, 3)}));
  {
    PushMsg p;
    p.partition = 5;
    p.seq = 18;
    p.stable_time = ts(440, 2, 5);
    p.updates = {PushUpdate{19, "u", ts(220, 0, 5)},
                 PushUpdate{20, "uu", ts(230, 1, 5)}};
    out.push_back(make_case("PushMsg", p));
  }
  out.push_back(make_case("SafeUpMsg", SafeUpMsg{6, 4, ts(450, 3, 6)}));
  out.push_back(make_case("StableDownMsg", StableDownMsg{7, ts(460, 4, 7)}));
  {
    TccMigrateOutReq q;
    q.table = table(false);
    q.target = 3;
    out.push_back(make_case("TccMigrateOutReq", q));
  }
  {
    TccMigrateOutResp resp;
    resp.ok = true;
    resp.safe_time = ts(470, 1, 1);
    resp.last_heard = {ts(471, 0, 0), ts(472, 0, 1)};
    resp.chains = {chain(23, 100), chain(24, 110)};
    out.push_back(make_case("TccMigrateOutResp", resp));
  }
  {
    TccMigrateInReq q;
    q.epoch = 2;
    q.source = 1;
    q.expected_sources = 3;
    q.source_safe = ts(480, 2, 1);
    q.last_heard = {ts(481, 0, 0)};
    q.chains = {chain(25, 120)};
    out.push_back(make_case("TccMigrateInReq", q));
  }
  out.push_back(make_case("TccMigrateInResp", TccMigrateInResp{false}));
  {
    TccReplInstallReq q;
    q.txn = 80;
    q.commit_ts = ts(490, 3, 3);
    q.seq = 81;
    q.writes = {KeyValue{26, "r"}};
    out.push_back(make_case("TccReplInstallReq", q));
  }
  out.push_back(make_case("TccReplInstallResp", TccReplInstallResp{false}));
  out.push_back(make_case("TccReplSealReq", TccReplSealReq{ts(500, 1, 4), 82}));
  out.push_back(make_case("TccReplSealResp", TccReplSealResp{true, 83}));
  out.push_back(make_case("ResolvedTxn", ResolvedTxn{84, ts(510, 2, 4)}));
  {
    TccBackfillReq q;
    q.safe = ts(520, 3, 4);
    q.seq_high = 85;
    q.resolved = {ResolvedTxn{86, ts(515, 0, 4)}};
    q.chains = {chain(27, 130)};
    out.push_back(make_case("TccBackfillReq/no-epoch", q));
    q.epoch = 3;
    out.push_back(make_case("TccBackfillReq/epoch", q));
  }
  out.push_back(make_case("TccBackfillResp", TccBackfillResp{false}));

  // --- Eventual store ----------------------------------------------------
  out.push_back(make_case("EvVersion", EvVersion{28, 29}));
  const EvItem item{30, EvVersion{31, 32}, 33, "payload"};
  out.push_back(make_case("EvItem", item));
  out.push_back(make_case("EvGetReq", EvGetReq{{34, 35, 36}}));
  out.push_back(make_case("EvGetResp", EvGetResp{{item}, 37}));
  out.push_back(make_case("EvPutReq", EvPutReq{{item, item}}));
  out.push_back(
      make_case("EvPutResp", EvPutResp{{EvVersion{38, 39}}, 40}));
  out.push_back(make_case("EvGossipMsg", EvGossipMsg{41, {item}}));
  out.push_back(make_case("EvStableCutMsg", EvStableCutMsg{42, 43}));

  // --- Caches ------------------------------------------------------------
  {
    cache::CacheReadReq q;
    q.interval = client::SnapshotInterval{ts(600, 1, 0), ts(650, 2, 0)};
    q.use_promises = false;
    q.keys = {44, 45};
    out.push_back(make_case("CacheReadReq", q));
  }
  {
    cache::CacheReadResp resp;
    resp.abort = false;
    resp.interval = client::SnapshotInterval{ts(610, 3, 0), ts(640, 4, 0)};
    resp.entries = {versioned(46, "c", 300), versioned(47, "cc", 310)};
    resp.from_cache = {true, false};
    out.push_back(make_case("CacheReadResp", resp));
  }
  {
    cache::HydroReadReq q;
    q.keys = {48, 49};
    q.context = dep_map();
    out.push_back(make_case("HydroReadReq", q));
  }
  const cache::StoredDep dep{50, 51, 52, 1};
  cache::HydroReadEntry entry;
  entry.key = 53;
  entry.value = "hv";
  entry.counter = 54;
  entry.written_at = 55;
  entry.deps = cache::DepList({dep, cache::StoredDep{56, 57, 58, 0}});
  out.push_back(make_case("HydroReadEntry", entry));
  {
    cache::HydroReadResp resp;
    resp.abort = true;
    resp.entries = {entry};
    resp.from_cache = {false};
    resp.global_cut = 59;
    out.push_back(make_case("HydroReadResp", resp));
  }
  out.push_back(make_case("PlainReadReq", cache::PlainReadReq{{60, 61}}));
  out.push_back(make_case(
      "PlainReadResp", cache::PlainReadResp{true, {KeyValue{62, "pv"}}}));
  out.push_back(make_case("StoredDep", dep));
  {
    cache::HydroStored stored;
    stored.value = "stored";
    stored.deps = cache::DepList({dep});
    out.push_back(make_case("HydroStored", stored));
  }
  out.push_back(make_case("DepMap", dep_map()));

  // --- FaaS runtime ------------------------------------------------------
  out.push_back(make_case("FunctionSpec", dag_spec().functions[0]));
  out.push_back(make_case("DagSpec", dag_spec()));
  {
    faas::StartDagMsg m;
    m.txn_id = 63;
    m.client = 5000;
    m.session = {9, 8, 7};
    m.spec = dag_spec();
    out.push_back(make_case("StartDagMsg", m));
  }
  {
    faas::TriggerMsg m;
    m.txn_id = 64;
    m.fn_index = 1;
    m.from_fn = 0;
    m.client = 5001;
    m.spec = dag_spec();
    m.placement = {4000, 4001};
    m.session = Payload(Buffer{1, 1});
    m.context = Payload(Buffer{2, 3, 4});
    m.parent_result = {5, 6};
    out.push_back(make_case("TriggerMsg", m));
  }
  {
    faas::DagDoneMsg m;
    m.txn_id = 65;
    m.committed = true;
    m.session = {7, 7};
    m.result = {8};
    out.push_back(make_case("DagDoneMsg", m));
  }
  out.push_back(make_case("AbortNoticeMsg", faas::AbortNoticeMsg{66}));
  out.push_back(make_case("StepArgs", workload::StepArgs{{67, 68}}));
  out.push_back(make_case("SinkArgs", workload::SinkArgs{{69}, 70, "sink"}));

  // --- Client contexts and sessions --------------------------------------
  out.push_back(make_case(
      "SnapshotInterval",
      client::SnapshotInterval{ts(700, 5, 1), ts(720, 6, 1)}));
  {
    client::FaasTccContext c;
    c.interval = client::SnapshotInterval{ts(730, 1, 2), ts(760, 2, 2)};
    c.dep_ts = ts(725, 3, 2);
    c.snapshot_fixed = true;
    c.write_set = {{71, "w1"}, {72, "w22"}};
    out.push_back(make_case("FaasTccContext/v1", c));
    c.routing_epoch = 4;
    out.push_back(make_case("FaasTccContext/v2", c));
  }
  {
    client::HydroContext c;
    c.deps = dep_map();
    c.lamport = 73;
    c.global_cut = 74;
    c.write_set = {{75, "h"}};
    out.push_back(make_case("HydroContext", c));
  }
  {
    client::HydroSession s;
    s.lamport = 76;
    s.global_cut = 77;
    s.deps = dep_map();
    out.push_back(make_case("HydroSession", s));
  }
  out.push_back(make_case("EventualContext",
                          client::EventualContext{{{78, "e"}, {79, "ee"}}}));
  out.push_back(WireCase{"FaasTccSession",
                         client::encode_faastcc_session(ts(740, 7, 3)),
                         [](std::shared_ptr<const Buffer> b) {
                           (void)client::decode_faastcc_session(*b);
                         }});

  // --- Routing -----------------------------------------------------------
  out.push_back(make_case("RoutingTable/plain", table(false)));
  out.push_back(make_case("RoutingTable/replicated", table(true)));
  out.push_back(make_case("TopoPromoteReq",
                          routing::TopoPromoteReq{2, 201, 5}));
  return out;
}

}  // namespace faastcc::wire_cases
