// System-independent transaction interface used by function bodies.
//
// Each of the three systems (FaaSTCC, HydroCache, eventually consistent
// Cloudburst) implements a FunctionTxn — the per-function view of the
// enclosing DAG transaction — and a SystemAdapter that creates them on a
// compute node from the contexts handed down by upstream functions.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "obs/trace.h"
#include "sim/task.h"

namespace faastcc::client {

// Thrown by function bodies to abort the enclosing DAG transaction from
// application logic; the runtime converts it into the abort path.
struct TxnAbort {};

// Static description of the enclosing DAG transaction, as known to the
// platform when a function is invoked.
struct TxnInfo {
  TxnId txn_id = 0;
  // Static transactions declare their full read/write set up front; the
  // HydroCache baseline exploits this to prune metadata (§6.3).  FaaSTCC
  // ignores it: its algorithm is identical for both (§6.3, §6.7).
  bool is_static = false;
  std::vector<Key> declared_read_set;
  std::vector<Key> declared_write_set;
  // Trace context of the enclosing function execution; read/commit spans
  // opened by the client library parent here.
  obs::TraceContext trace;
};

// A context as exported, with its metadata size measured on the bytes
// actually shipped (what HydroCache ships depends on the time of export).
struct ExportedContext {
  Buffer bytes;
  // Size of the pure coordination metadata inside `bytes` — the quantity
  // Fig. 5 reports (16 bytes for FaaSTCC; the dependency map for
  // HydroCache).  Excludes the write set, which both systems carry alike.
  size_t metadata_bytes = 0;
};

class FunctionTxn {
 public:
  virtual ~FunctionTxn() = default;

  // Reads `keys` within the transaction.  Returns std::nullopt when the
  // transaction must abort (no consistent version obtainable).  Values
  // come back in key order; a key never written reads as an empty Value.
  virtual sim::Task<std::optional<std::vector<Value>>> read(
      std::vector<Key> keys) = 0;

  // Buffers a write; durable only if the sink commits.
  virtual void write(Key k, Value v) = 0;

  // Serialized context handed to downstream functions (snapshot interval +
  // write set, dependency map + write set, ...).
  virtual ExportedContext export_context() const = 0;

  // Sink only: makes the write set durable and atomically visible.
  // Returns the session blob to thread into the client's next DAG, or
  // std::nullopt on abort.
  virtual sim::Task<std::optional<Buffer>> commit() = 0;
};

class SystemAdapter {
 public:
  virtual ~SystemAdapter() = default;

  // Creates the transaction state for one function execution.
  //   * root functions: `parent_contexts` empty, `session` from the
  //     client's previous commit (empty on the first request);
  //   * interior functions: one context per parent (merged per Eq. 3 /
  //     dependency union).
  // Returns nullptr when the parent contexts are mutually inconsistent
  // and the DAG must abort.
  // Both blobs are taken by value: adapters that can represent the decoded
  // context as a view of the wire bytes (see HydroAdapter) assume
  // ownership of the buffers instead of copying out of them.
  virtual std::unique_ptr<FunctionTxn> open(const TxnInfo& info,
                                            std::vector<Payload> parent_contexts,
                                            Payload session) = 0;
};

}  // namespace faastcc::client
