// Wire messages of the storage layer (TCC partitions and the eventually
// consistent store).  Encoded sizes are exact and feed the paper's byte
// metrics (Fig. 5, Fig. 7).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/hlc.h"
#include "common/serialize.h"
#include "common/types.h"
#include "routing/routing_table.h"

namespace faastcc::storage {

// ---------------------------------------------------------------------------
// Method ids.
// ---------------------------------------------------------------------------

enum TccMethod : uint16_t {
  kTccRead = 1,
  kTccPrepare = 2,
  kTccCommit = 3,
  kTccSubscribe = 4,
  kTccUnsubscribe = 5,
  kTccGossip = 6,   // one-way: stabilization
  kTccPush = 7,     // one-way: pub/sub update batch
  kTccAbort = 8,    // releases prepares after an SI conflict
  // Elastic scale-out handoff (coordinator-driven, idempotent).
  kTccMigrateOut = 9,  // source: seal moved slots, extract their chains
  kTccMigrateIn = 10,  // target: install chains + stabilization seed
  // Tree-topology stabilization (stabilization_topology=tree): safe-time
  // minima travel up a k-ary aggregation tree over partition ids and the
  // root's fold travels back down, O(P) messages per round instead of the
  // mesh's O(P²) broadcast.
  kTccSafeUp = 11,      // one-way: child -> parent subtree minimum
  kTccStableDown = 12,  // one-way: parent -> child root fold
  // Per-slot replication (leader -> follower, replication_factor > 0).
  kTccReplInstall = 14,  // stream one committed txn's installs
  kTccReplSeal = 15,     // seal a safe time at the follower (lease beat)
  kTccBackfill = 16,     // full chain-snapshot re-sync for a lagging follower
};

enum EvMethod : uint16_t {
  kEvGet = 20,
  kEvPut = 21,
  kEvGossipDigest = 22,  // one-way: anti-entropy between replicas
  kEvStableCut = 23,     // one-way: gossiped GC horizon for dependencies
  kEvSubscribe = 24,     // caches subscribe to update notifications
  kEvUnsubscribe = 25,
  kEvPush = 26,          // one-way: update batch to subscribed caches
};

// ---------------------------------------------------------------------------
// TCC storage messages.
// ---------------------------------------------------------------------------

// One versioned value as served by the TCC store: the paper's tuple
// <k, v, t_v, promise_v>.
struct VersionedValue {
  Key key = 0;
  Value value;
  Timestamp ts;
  Timestamp promise;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.key, s.value, s.ts, s.promise); }
};

// TCC_ReadTX request.  `snapshot` is the upper bound (the client's s_high;
// Timestamp::max() on the first read of a DAG).  For each key the client may
// supply the timestamp of the version it already caches; when the store
// would serve exactly that version it answers "unchanged" with a refreshed
// promise and no value bytes (the small responses of Fig. 7).
struct TccReadReq {
  Timestamp snapshot;
  std::vector<Key> keys;
  std::vector<Timestamp> cached_ts;  // parallel to keys; min() == none

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.snapshot);
    f.zipped(s.keys, s.cached_ts);
  }
};

struct TccReadResp {
  enum class Status : uint8_t {
    kValue = 0,      // full version attached
    kUnchanged = 1,  // client's cached version still current; promise updated
    kMiss = 2,       // no version <= snapshot survives (GC'd or never written)
    // The request matched this partition's epoch when admitted, but the
    // key's chain was handed to another partition while the handler slept
    // (elastic scale-out).  No version data: the client must re-route
    // through a fresh routing table.
    kWrongOwner = 3,
  };
  // Largest status on the wire; the reader rejects anything above it.
  friend constexpr Status wire_max(Status) { return Status::kWrongOwner; }

  struct Entry {
    Key key = 0;
    Status status = Status::kMiss;
    Value value;        // only for kValue
    Timestamp ts;       // kValue / kUnchanged
    Timestamp promise;  // kValue / kUnchanged
    // True when the served version has no successor yet: its promise is
    // the stable time and may later be extended; a version with a known
    // successor has a final promise.
    bool open = false;

    template <class Self, class F>
    static void fields(Self& s, F&& f) {
      f(s.key, s.status);
      if (s.status == Status::kValue || s.status == Status::kUnchanged) {
        f(s.ts, s.promise, s.open);
      }
      if (s.status == Status::kValue) f(s.value);
    }
  };
  std::vector<Entry> entries;
  // The partition's current stable time; the cache folds it into its
  // stable-time estimate, which clamps later read snapshots.
  Timestamp stable_time;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.stable_time, s.entries); }
};

struct KeyValue {
  Key key = 0;
  Value value;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.key, s.value); }
};

// Prepare phase of a multi-partition commit: reserves a slot so that the
// participant's safe time (and hence the global stable time) cannot advance
// past the eventual commit timestamp before the writes are installed.
//
// In Snapshot Isolation mode (the extension of §7 of the paper) the
// prepare additionally performs first-committer-wins write-write conflict
// detection: it fails if any written key has a version newer than the
// transaction's read snapshot, or is currently prepared by another
// transaction.
struct TccPrepareReq {
  TxnId txn = 0;
  Timestamp dep_ts;  // causal lower bound (client's reads + session order)
  bool si_mode = false;
  Timestamp snapshot_ts;     // SI: the transaction's read snapshot (s_high)
  std::vector<Key> write_keys;  // SI: written keys owned by this partition

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.txn, s.dep_ts, s.si_mode, s.snapshot_ts, s.write_keys);
  }
};

struct TccPrepareResp {
  Timestamp prepare_ts;
  bool ok = true;  // false: SI write-write conflict, transaction must abort

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.prepare_ts, s.ok); }
};

// Releases a prepare without installing anything (SI conflict abort).
struct TccAbortReq {
  TxnId txn = 0;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.txn); }
};

// Commit phase.  In the general (multi-partition) case `commit_ts` was
// computed by the coordinator from the prepare responses; in the
// single-partition fast path it is Timestamp::min() and the partition
// assigns a timestamp itself, above `dep_ts`.
struct TccCommitReq {
  TxnId txn = 0;
  Timestamp commit_ts;
  Timestamp dep_ts;
  std::vector<KeyValue> writes;  // only the keys owned by this partition

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.txn, s.commit_ts, s.dep_ts, s.writes);
  }
};

struct TccCommitResp {
  bool ok = true;
  // The timestamp the commit was applied at (assigned by the partition on
  // the single-partition fast path).  A refusal echoes the request's.
  Timestamp commit_ts;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.ok, s.commit_ts); }
};

struct SubscribeReq {
  std::vector<Key> keys;
  // Per-subscriber control-channel sequence number; a partition drops
  // (un)subscribe requests older than the newest it has processed, so a
  // duplicated/delayed retry cannot resurrect a cancelled subscription.
  // 0 = unsequenced (the eventual store's caches don't need the ordering).
  uint64_t seq = 0;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.keys, s.seq); }
};

// One-way stabilization gossip: partition `partition` will never again
// commit a transaction with timestamp <= `safe_time`.
struct GossipMsg {
  PartitionId partition = 0;
  Timestamp safe_time;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.partition, s.safe_time); }
};

// One update inside a push frame.  Its promise is not shipped: a pushed
// promise is always max(version ts, stable at push) (§4.2), and the frame
// header carries the stable time once, so the receiver derives it.
struct PushUpdate {
  Key key = 0;
  Value value;
  Timestamp ts;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.key, s.value, s.ts); }
};

// One-way pub/sub push: fresh versions of subscribed keys plus the stable
// time at push, one frame per subscriber per push period.
//
// Pushes are sent every refresh period even when no subscribed key
// changed: the dirty set is complete for subscribed keys, so a subscriber
// may extend the promise of any *open* cached version of this partition
// not listed in `updates` to `stable_time`.
struct PushMsg {
  PartitionId partition = 0;
  // Per-subscriber channel sequence (first push is 1).  Pushes are one-way
  // and best-effort; a gap tells the subscriber it may have missed the
  // announcement of a successor version, so it must close open entries of
  // this partition until a re-announce arrives.  0 = unsequenced.
  uint64_t seq = 0;
  Timestamp stable_time;
  std::vector<PushUpdate> updates;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.partition, s.seq, s.stable_time, s.updates);
  }
};

// ---------------------------------------------------------------------------
// Tree-topology stabilization.
// ---------------------------------------------------------------------------

// One-way child -> parent: min of the sender's safe time and every subtree
// minimum its own children reported.  `membership` is the partition count
// the fold covered; the receiver drops smaller-tagged reports (they omit
// joiners' floors) and adopts larger tags — see Stabilizer.
struct SafeUpMsg {
  PartitionId partition = 0;  // sender (a direct child of the receiver)
  uint32_t membership = 0;
  Timestamp subtree_min;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.partition, s.membership, s.subtree_min);
  }
};

// One-way parent -> child: the root's global fold, relayed one level per
// gossip round.  Tagged like SafeUpMsg and for the same reason.
struct StableDownMsg {
  uint32_t membership = 0;
  Timestamp stable;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.membership, s.stable); }
};

// ---------------------------------------------------------------------------
// Elastic scale-out handoff.
// ---------------------------------------------------------------------------

// One committed version inside a migrated chain (the promise is not
// shipped: promises are a serving-side construct re-derived at the target
// from its own stable view).
struct MigratedVersion {
  Value value;
  Timestamp ts;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.value, s.ts); }
};

// A whole per-key version chain leaving its old owner.
struct MigratedChain {
  Key key = 0;
  std::vector<MigratedVersion> versions;  // ascending ts

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.key, s.versions); }
};

// Coordinator -> source partition: adopt `table` (sealing the slots it no
// longer owns) and extract the chains of every slot that moved from this
// partition to `target`.  Carrying the full table makes the request
// self-contained: a source that missed the epoch broadcast still seals
// correctly.  Idempotent — the source caches its response per
// (epoch, target) and replays it for duplicates/retries.
struct TccMigrateOutReq {
  routing::RoutingTable table;
  PartitionId target = 0;

  // The table goes last: its replica section is a trailing optional block
  // detected by remaining(), so nothing may follow it on the wire.
  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.target, s.table); }
};

struct TccMigrateOutResp {
  bool ok = true;
  // The source's safe time taken AFTER sealing: every promise the source
  // ever issued for the migrated keys is <= this, so it seeds the target's
  // clock (the target never commits at or below it).
  Timestamp safe_time;
  // The source's stabilizer snapshot (last-heard safe time per old
  // partition) — genuinely observed values, safe for the target to merge.
  std::vector<Timestamp> last_heard;
  std::vector<MigratedChain> chains;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.ok, s.safe_time, s.last_heard, s.chains);
  }
};

// Coordinator -> target partition: one source's handoff parcel.  The
// target activates (starts serving) once parcels from all
// `expected_sources` distinct sources have been applied.  Idempotent per
// (epoch, source).
struct TccMigrateInReq {
  uint32_t epoch = 0;
  PartitionId source = 0;
  uint32_t expected_sources = 0;
  Timestamp source_safe;
  std::vector<Timestamp> last_heard;
  std::vector<MigratedChain> chains;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.epoch, s.source, s.expected_sources, s.source_safe, s.last_heard,
      s.chains);
  }
};

struct TccMigrateInResp {
  bool ok = true;
  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.ok); }
};

// ---------------------------------------------------------------------------
// Per-slot replication (leader + k followers).
// ---------------------------------------------------------------------------

// Leader -> follower, on the commit path: one committed transaction's
// installs.  `seq` is the leader's per-follower stream sequence number —
// contiguous at the follower means no frame was dropped; a hole that the
// leader's bounded retry could not close is repaired by kTccBackfill, not
// by re-streaming.  Applying is idempotent (installs dedup on (key, ts),
// the resolved record on txn), so duplicated or re-sent frames are
// at-most-once by construction.
struct TccReplInstallReq {
  TxnId txn = 0;
  Timestamp commit_ts;
  uint64_t seq = 0;
  std::vector<KeyValue> writes;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.txn, s.commit_ts, s.seq, s.writes); }
};

struct TccReplInstallResp {
  bool ok = true;
  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.ok); }
};

// Leader -> follower, every gossip beat: seal `safe` at the follower and
// renew the leader lease.  The leader only gossips a safe time into the
// stabilizer once every caught-up follower acked its seal, so any promise
// derived from it survives a promotion (the handoff floor is at least the
// sealed value).  `seq_high` is the leader's newest assigned stream seq;
// a follower whose contiguous high-water trails it knows it is lagging.
struct TccReplSealReq {
  Timestamp safe;
  uint64_t seq_high = 0;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.safe, s.seq_high); }
};

struct TccReplSealResp {
  bool ok = true;
  uint64_t applied_seq = 0;  // follower's contiguous stream high-water

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.ok, s.applied_seq); }
};

// A (txn, commit_ts) pair from the leader's resolved-transaction window,
// shipped with a backfill so a promoted follower can dedup coordinator
// commit retries exactly as the dead leader would have.
struct ResolvedTxn {
  TxnId txn = 0;
  Timestamp ts;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.txn, s.ts); }
};

// Leader -> lagging/fresh follower: a full re-sync from the chain head
// (RethinkDB's broadcaster/listener backfill, collapsed to one frame at
// simulation scale).  Reuses the elastic handoff's chain shapes; applying
// is idempotent so a duplicated backfill is harmless.  `safe` doubles as
// a seal and `seq_high` fast-forwards the follower's stream high-water
// past any holes the backfill just filled.
struct TccBackfillReq {
  Timestamp safe;
  uint64_t seq_high = 0;
  std::vector<ResolvedTxn> resolved;
  std::vector<MigratedChain> chains;
  // Routing epoch the leader assembled this parcel under.  Trailing
  // optional (encoded only when nonzero) so pre-elastic parcels keep their
  // bytes; a follower refuses parcels older than its own table — a
  // pre-shrink leader's backfill must not resurrect drained chains at a
  // follower that already moved on.
  uint32_t epoch = 0;

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.safe, s.seq_high, s.resolved, s.chains);
    f.trailing(s.epoch);
  }
};

struct TccBackfillResp {
  bool ok = true;
  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.ok); }
};

// ---------------------------------------------------------------------------
// Eventually consistent store (Anna stand-in) messages.
// ---------------------------------------------------------------------------

// Per-key version for the eventual store: a counter plus writer id,
// last-writer-wins.  HydroCache dependencies refer to these.
struct EvVersion {
  uint64_t counter = 0;
  uint64_t writer = 0;

  friend auto operator<=>(const EvVersion&, const EvVersion&) = default;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.counter, s.writer); }
};

struct EvItem {
  Key key = 0;
  EvVersion version;
  SimTime written_at = 0;  // assigned by the accepting replica; drives dep GC
  Value payload;  // opaque: HydroCache stores value + dependency metadata

  template <class Self, class F>
  static void fields(Self& s, F&& f) {
    f(s.key, s.version, s.written_at, s.payload);
  }
};

struct EvGetReq {
  std::vector<Key> keys;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.keys); }
};

struct EvGetResp {
  std::vector<EvItem> found;  // keys absent from the replica are omitted
  SimTime global_cut = 0;     // piggybacked dependency-GC watermark

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.global_cut, s.found); }
};

struct EvPutReq {
  std::vector<EvItem> items;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.items); }
};

struct EvPutResp {
  std::vector<EvVersion> versions;  // assigned versions, parallel to items
  SimTime global_cut = 0;           // piggybacked dependency-GC watermark

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.global_cut, s.versions); }
};

// Anti-entropy batch between replicas of the same eventual partition.
// `sent_at` asserts: every write the sender accepted before this time has
// been included in this or an earlier batch to this peer.
struct EvGossipMsg {
  SimTime sent_at = 0;
  std::vector<EvItem> items;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.sent_at, s.items); }
};

// Gossiped dependency-GC horizon: the sending replica has applied every
// write accepted anywhere before `cut` (a wall-clock watermark derived from
// completed anti-entropy rounds).  The minimum across replicas bounds which
// dependencies are globally visible and may be pruned from metadata.
struct EvStableCutMsg {
  uint64_t replica = 0;
  SimTime cut = 0;

  template <class Self, class F>
  static void fields(Self& s, F&& f) { f(s.replica, s.cut); }
};

}  // namespace faastcc::storage
