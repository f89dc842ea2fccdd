// HydroCache client library (baseline).
//
// The DAG context carries the dependency map — every version read plus the
// (level-bounded) dependencies of those versions — and the write set.  For
// static transactions the map is pruned to the declared read/write set
// before shipping downstream, which is the metadata optimization that
// makes HydroCache-Static competitive (§6.3); dynamic transactions must
// ship everything, since "it is impossible to guess which dependencies are
// going to be needed downstream".
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "cache/cache_messages.h"
#include "client/txn.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::client {

struct HydroConfig {
  // Apply the declared-read-set metadata pruning for static transactions.
  bool static_metadata_optimization = true;
  // Dependencies older than max(global stable cut, now - window) are
  // globally visible and pruned from shipped metadata.
  Duration dep_gc_window = seconds(15);
  // Upper bound on the dependency list stored with a value.
  size_t stored_dep_cap = 512;
};

// Versioned like FaasTccContext: a leading version byte; decode throws
// CodecError on mismatch.
struct HydroContext {
  static constexpr uint8_t kWireVersion = 1;

  cache::DepMap deps;
  uint64_t lamport = 0;  // max version counter observed
  SimTime global_cut = 0;
  std::map<Key, Value> write_set;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    uint8_t version = kWireVersion;
    f(version);
    if (version != kWireVersion) {
      throw CodecError("HydroContext: unsupported wire version " +
                       std::to_string(version));
    }
    f(s.deps, s.lamport, s.global_cut, s.write_set);
  }
};

class HydroAdapter final : public SystemAdapter {
 public:
  HydroAdapter(net::RpcNode& rpc, net::Address cache_address,
               storage::EvTopology topology, Rng rng, HydroConfig config,
               Metrics* metrics, obs::Tracer* tracer = nullptr);

  std::unique_ptr<FunctionTxn> open(const TxnInfo& info,
                                    std::vector<Payload> parent_contexts,
                                    Payload session) override;

 private:
  friend class HydroTxn;
  net::RpcNode& rpc_;
  net::Address cache_address_;
  storage::EvStorageClient storage_;
  HydroConfig config_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
};

class HydroTxn final : public FunctionTxn {
 public:
  HydroTxn(HydroAdapter& adapter, TxnInfo info, HydroContext context)
      : adapter_(adapter), info_(std::move(info)), ctx_(std::move(context)) {}

  sim::Task<std::optional<std::vector<Value>>> read(
      std::vector<Key> keys) override;
  void write(Key k, Value v) override;
  ExportedContext export_context() const override;
  sim::Task<std::optional<Buffer>> commit() override;

 private:
  // The dependency map as it would be shipped downstream: GC'd against the
  // stable cut and, for static transactions, restricted to the declared
  // read/write set.
  cache::DepMap shipped_deps() const;
  cache::DepMap session_past(SimTime horizon) const;

  HydroAdapter& adapter_;
  TxnInfo info_;
  HydroContext ctx_;
  std::unordered_map<Key, Value> read_set_;
};

// Session blob: the client's full accumulated causal past (COPS-style —
// "clients keep track of all versions in their causal past"), bounded only
// by the stable-cut GC.  Read markers are downgraded to validation-only
// requirements (level 2) so one client's history never re-enters stored
// dependency lists wholesale; the client's own writes stay at level 1.
// This asymmetry is what makes function-to-function metadata large
// (Fig. 5) while stored dependency lists stay bounded (Fig. 7).
struct HydroSession {
  uint64_t lamport = 0;
  SimTime global_cut = 0;
  cache::DepMap deps;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.lamport, s.global_cut, s.deps); }
};

}  // namespace faastcc::client
