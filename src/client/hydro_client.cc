#include "client/hydro_client.h"

#include <algorithm>
#include <cassert>

namespace faastcc::client {

HydroAdapter::HydroAdapter(net::RpcNode& rpc, net::Address cache_address,
                           storage::EvTopology topology, Rng rng,
                           HydroConfig config, Metrics* metrics,
                           obs::Tracer* tracer)
    : rpc_(rpc),
      cache_address_(cache_address),
      storage_(rpc, std::move(topology), rng, tracer),
      config_(config),
      metrics_(metrics),
      tracer_(tracer) {}

std::unique_ptr<FunctionTxn> HydroAdapter::open(
    const TxnInfo& info, std::vector<Payload> parent_contexts,
    Payload session) {
  HydroContext ctx;
  if (parent_contexts.empty()) {
    if (!session.empty()) {
      // Shared-ownership decode: the dependency map aliases the records
      // inside the session blob instead of copying them out.
      HydroSession s = decode_message<HydroSession>(session);
      ctx.lamport = s.lamport;
      ctx.global_cut = s.global_cut;
      ctx.deps = std::move(s.deps);
    }
  } else {
    for (const Payload& b : parent_contexts) {
      HydroContext p = decode_message<HydroContext>(b);
      // Parallel branches that read *different* versions of the same key
      // cannot be reconciled: the values were already consumed.  Against an
      // empty accumulator the check is vacuous — skipping it keeps the first
      // parent's decoded map in raw wire form for the merge below.
      if (!ctx.deps.empty()) {
        bool conflict = false;
        p.deps.for_each([&](Key k, const cache::Dep& d) {
          if (conflict || !d.read) return;
          cache::Dep mine;
          if (ctx.deps.lookup(k, mine) && mine.read &&
              mine.counter != d.counter) {
            conflict = true;
          }
        });
        if (conflict) return nullptr;
      }
      ctx.deps.merge(p.deps);
      ctx.lamport = std::max(ctx.lamport, p.lamport);
      ctx.global_cut = std::max(ctx.global_cut, p.global_cut);
      for (auto& [k, v] : p.write_set) ctx.write_set[k] = std::move(v);
    }
  }
  return std::make_unique<HydroTxn>(*this, info, std::move(ctx));
}

sim::Task<std::optional<std::vector<Value>>> HydroTxn::read(
    std::vector<Key> keys) {
  std::vector<Value> out(keys.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Key k = keys[i];
    if (auto it = ctx_.write_set.find(k); it != ctx_.write_set.end()) {
      out[i] = it->second;
    } else if (auto it2 = read_set_.find(k); it2 != read_set_.end()) {
      out[i] = it2->second;
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) co_return out;

  cache::HydroReadReq req;
  req.keys.reserve(missing.size());
  for (size_t idx : missing) req.keys.push_back(keys[idx]);
  ctx_.deps.compact();  // so the attached copy shares the node wholesale
  req.context = ctx_.deps;

  obs::Tracer* tracer = adapter_.tracer_;
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  const SimTime t0 = adapter_.rpc_.now();
  if (tracer != nullptr) {
    span = tracer->begin(info_.trace, "read", "client_lib",
                         adapter_.rpc_.address(), t0);
    tracer->annotate(span, "keys", static_cast<uint64_t>(missing.size()));
    span_ctx = tracer->context_of(span);
  }
  auto resp = co_await adapter_.rpc_.call<cache::HydroReadResp>(
      adapter_.cache_address_, cache::kHydroRead, std::move(req), span_ctx);
  if (tracer != nullptr) {
    tracer->annotate(span, "abort", resp.abort ? 1 : 0);
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  if (resp.abort) co_return std::nullopt;

  ctx_.global_cut = std::max(ctx_.global_cut, resp.global_cut);
  for (size_t j = 0; j < missing.size(); ++j) {
    const size_t idx = missing[j];
    const auto& e = resp.entries[j];
    out[idx] = e.value;
    read_set_.emplace(keys[idx], e.value);
    ctx_.deps.mark_read(e.key, e.counter, e.written_at);
    ctx_.lamport = std::max(ctx_.lamport, e.counter);
    for (const auto& d : e.deps) {
      ctx_.deps.require(d.key, d.counter, d.written_at,
                        static_cast<uint8_t>(std::min<int>(d.level + 1, 2)));
      ctx_.lamport = std::max(ctx_.lamport, d.counter);
    }
  }
  co_return out;
}

void HydroTxn::write(Key k, Value v) { ctx_.write_set[k] = std::move(v); }

cache::DepMap HydroTxn::shipped_deps() const {
  ctx_.deps.compact();  // fold pending once, in place, before the copy
  cache::DepMap shipped = ctx_.deps;
  const SimTime horizon =
      std::min(ctx_.global_cut,
               adapter_.rpc_.now() - adapter_.config_.dep_gc_window);
  if (info_.is_static && adapter_.config_.static_metadata_optimization) {
    // One pass for GC + declared-set pruning; read markers are exempt from
    // both (they drive conflict aborts while the transaction runs).
    std::unordered_set<Key> relevant(info_.declared_read_set.begin(),
                                     info_.declared_read_set.end());
    relevant.insert(info_.declared_write_set.begin(),
                    info_.declared_write_set.end());
    shipped.retain([&](Key k, const cache::Dep& d) {
      return d.read || (d.written_at >= horizon && relevant.count(k) != 0);
    });
  } else {
    shipped.gc_before(horizon);
  }
  return shipped;
}

ExportedContext HydroTxn::export_context() const {
  HydroContext out;
  out.deps = shipped_deps();
  out.lamport = ctx_.lamport;
  out.global_cut = ctx_.global_cut;
  out.write_set = ctx_.write_set;
  const size_t metadata = out.deps.wire_bytes();
  return {encode_message(out), metadata};
}

// The context as carried into the client's next transaction: everything
// becomes validation-only history (level 2, no read markers), pruned
// against the stable cut.
cache::DepMap HydroTxn::session_past(SimTime horizon) const {
  // Entries stream out of the sorted context in ascending key order, so
  // the session map is assembled directly in canonical wire form — the
  // per-entry search/insert machinery would be pure overhead here.
  cache::DepMap::RawBuilder past(ctx_.deps.size());
  ctx_.deps.for_each([&](Key k, const cache::Dep& d) {
    if (d.written_at < horizon) return;
    past.append(k, d.counter, d.written_at, false, 2);
  });
  return std::move(past).finish();
}

sim::Task<std::optional<Buffer>> HydroTxn::commit() {
  const SimTime gc_horizon =
      std::min(ctx_.global_cut,
               adapter_.rpc_.now() - adapter_.config_.dep_gc_window);
  if (ctx_.write_set.empty()) {
    HydroSession s;
    s.lamport = ctx_.lamport;
    s.global_cut = ctx_.global_cut;
    s.deps = session_past(gc_horizon);
    co_return encode_message(s);
  }

  // Build the stored dependency list: versions this transaction read
  // (level 0) and their direct dependencies (level 1).  Level-2 entries
  // exist in the context for validation but are not re-stored — this is
  // what keeps stored metadata bounded.
  std::vector<cache::StoredDep> deps;
  ctx_.deps.for_each([&](Key k, const cache::Dep& d) {
    if (ctx_.write_set.count(k) != 0) return;  // superseded by our write
    if (d.read) {
      deps.push_back(cache::StoredDep{k, d.counter, d.written_at, 0});
    } else if (d.level <= 1) {
      deps.push_back(cache::StoredDep{k, d.counter, d.written_at, 1});
    }
  });
  if (deps.size() > adapter_.config_.stored_dep_cap) {
    // Keep the most constraining entries: level 0 first, then recency,
    // with the key as a total-order tiebreak so the kept subset is
    // canonical (independent of the context's iteration order).
    std::sort(deps.begin(), deps.end(),
              [](const cache::StoredDep& a, const cache::StoredDep& b) {
                if (a.level != b.level) return a.level < b.level;
                if (a.written_at != b.written_at) {
                  return a.written_at > b.written_at;
                }
                return a.key < b.key;
              });
    deps.resize(adapter_.config_.stored_dep_cap);
  }

  const uint64_t counter = ctx_.lamport + 1;
  const SimTime now = adapter_.rpc_.now();

  // Co-written siblings: every key written by this transaction depends on
  // the others, which is how readers detect torn visibility.
  std::vector<cache::StoredDep> siblings;
  siblings.reserve(ctx_.write_set.size());
  for (const auto& [k, v] : ctx_.write_set) {
    siblings.push_back(cache::StoredDep{k, counter, now, 0});
  }

  std::vector<storage::EvItem> items;
  items.reserve(ctx_.write_set.size());
  for (const auto& [k, v] : ctx_.write_set) {
    cache::HydroStored stored;
    stored.value = v;
    std::vector<cache::StoredDep> list = deps;
    for (const auto& s : siblings) {
      if (s.key != k) list.push_back(s);
    }
    stored.deps = cache::DepList(std::move(list));
    storage::EvItem item;
    item.key = k;
    item.version = storage::EvVersion{counter, info_.txn_id};
    const Buffer payload = encode_message(stored);
    item.payload = Value(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
    items.push_back(std::move(item));
  }
  obs::Tracer* tracer = adapter_.tracer_;
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  const SimTime t0 = adapter_.rpc_.now();
  if (tracer != nullptr) {
    span = tracer->begin(info_.trace, "commit", "client_lib",
                         adapter_.rpc_.address(), t0);
    tracer->annotate(span, "writes",
                     static_cast<uint64_t>(ctx_.write_set.size()));
    span_ctx = tracer->context_of(span);
  }
  auto versions = co_await adapter_.storage_.put(std::move(items), span_ctx);
  if (tracer != nullptr) {
    tracer->annotate(span, "committed", versions.has_value() ? 1 : 0);
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  // Unreachable replica through the retry budget: abort the DAG.
  if (!versions.has_value()) co_return std::nullopt;

  HydroSession session;
  session.lamport = counter;
  session.global_cut = ctx_.global_cut;
  session.deps = session_past(gc_horizon);
  size_t i = 0;
  for (const auto& [k, v] : ctx_.write_set) {
    session.lamport = std::max(session.lamport, (*versions)[i].counter);
    // The client's own writes stay at level 1: they are the nearest
    // dependencies of whatever it does next.
    session.deps.require(k, (*versions)[i].counter, now, 1);
    ++i;
  }
  co_return encode_message(session);
}

}  // namespace faastcc::client
