// Deterministic discrete-event loop.
//
// The entire FaaSTCC cluster — storage partitions, compute nodes, caches,
// clients and the network between them — runs on one of these.  Events are
// totally ordered by (timestamp, insertion sequence), so a given seed always
// produces the same execution, which the property tests rely on.
//
// An event is a compact 40-byte record (time, seq, two function pointers, a
// context word): `run(ctx)` fires it, `drop(ctx)` discards it unrun when the
// loop is destroyed first.  The loop allocates nothing on the
// steady-state path:
//   * coroutine resumptions (schedule_resume*) store the handle itself;
//   * network deliveries (schedule_event_at) store a pointer to the
//     in-flight message record the network allocated;
//   * std::function closures (schedule_at/after) are boxed once — the rare
//     path: harness drivers, RPC timeouts, the DAG watchdog.
//
// Two queues hold the records.  Events for a later time go into a 4-ary
// heap; events scheduled at now() — a future fulfilled, a yield — go into
// the same-time lane, a FIFO vector, and skip the heap entirely.  now()
// never passes a queued event, so every lane entry is at now() and the
// lane is sorted by seq.  run_one() takes the heap top only when it
// precedes the lane front in (time, seq).  Merging two sorted queues that
// way is exactly the (time, seq) order, so schedules are bit-identical to
// a single heap.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace faastcc::sim {

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute simulated time `t` (clamped to now).
  void schedule_at(SimTime t, std::function<void()> fn);

  // Schedules `fn` to run `d` microseconds from now.
  void schedule_after(Duration d, std::function<void()> fn) {
    schedule_at(now_ + (d > 0 ? d : 0), std::move(fn));
  }

  // Fast path: schedules a coroutine resumption without boxing a closure.
  // The handle is owned by its coroutine frame; a loop torn down with
  // resumptions still queued simply drops them (matching the previous
  // behaviour of dropping unrun closures).
  void schedule_resume_at(SimTime t, std::coroutine_handle<> h) {
    push(t, &EventLoop::run_handle, nullptr, h.address());
  }
  void schedule_resume_after(Duration d, std::coroutine_handle<> h) {
    schedule_resume_at(now_ + (d > 0 ? d : 0), h);
  }
  void schedule_resume(std::coroutine_handle<> h) {
    schedule_resume_at(now_, h);
  }

  // Schedules a raw event at `t` (clamped to now): exactly one of
  // `run(ctx)` (when it fires) or `drop(ctx)` (when the loop is destroyed
  // first; nullptr = nothing to release) is called, so `ctx` may own
  // resources.  The network queues message deliveries this way.
  void schedule_event_at(SimTime t, void (*run)(void*), void (*drop)(void*),
                         void* ctx) {
    push(t, run, drop, ctx);
  }

  // Runs events until the queue drains or stop() is called.
  void run();

  // Runs events with time <= t, then leaves now() == t unless stop() was
  // called first (now() never passes an event still queued).
  void run_until(SimTime t);

  // Executes the single next event; returns false if the queue is empty.
  bool run_one();

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  size_t pending() const { return heap_.size() + lane_.size() - lane_head_; }
  uint64_t events_processed() const { return processed_; }

  // Message-buffer free list shared by everything running on this loop
  // (network, RPC endpoints); see BufferPool in common/serialize.h.
  BufferPool& buffer_pool() { return pool_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    void (*run)(void*);
    void (*drop)(void*);
    void* ctx;
  };

  static void run_handle(void* ctx) {
    std::coroutine_handle<>::from_address(ctx).resume();
  }
  static void run_closure(void* ctx);
  static void drop_closure(void* ctx);

  void push(SimTime t, void (*run)(void*), void (*drop)(void*), void* ctx);
  // The next event in (time, seq) order, or nullptr when both queues are
  // empty.  Points into the lane or at the heap top.
  const Event* peek() const;
  Event pop_min();
  Event pop_lane();

  // (time, seq) lexicographic order — identical to the old comparator.
  static bool before(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static constexpr size_t kArity = 4;

  std::vector<Event> heap_;
  // Same-time lane: lane_[lane_head_..] is pending, all at now(), in seq
  // order.  Emptied (and lane_head_ reset) whenever the last entry is taken.
  std::vector<Event> lane_;
  size_t lane_head_ = 0;
  BufferPool pool_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace faastcc::sim
