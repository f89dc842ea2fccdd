#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace faastcc::sim {

EventLoop::~EventLoop() {
  for (Event& e : heap_) {
    if (e.drop != nullptr) e.drop(e.ctx);
  }
  for (size_t i = lane_head_; i < lane_.size(); ++i) {
    if (lane_[i].drop != nullptr) lane_[i].drop(lane_[i].ctx);
  }
}

void EventLoop::run_closure(void* ctx) {
  auto* fn = static_cast<std::function<void()>*>(ctx);
  (*fn)();
  delete fn;
}

void EventLoop::drop_closure(void* ctx) {
  delete static_cast<std::function<void()>*>(ctx);
}

void EventLoop::schedule_at(SimTime t, std::function<void()> fn) {
  push(t, &EventLoop::run_closure, &EventLoop::drop_closure,
       new std::function<void()>(std::move(fn)));
}

void EventLoop::push(SimTime t, void (*run)(void*), void (*drop)(void*),
                     void* ctx) {
  if (t <= now_) {
    // No queued event is earlier than now(), so every lane entry has
    // time == now() and the lane is sorted by seq alone.
    lane_.push_back(Event{now_, next_seq_++, run, drop, ctx});
    return;
  }
  Event e{t, next_seq_++, run, drop, ctx};
  // Sift up in the 4-ary heap.
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

const EventLoop::Event* EventLoop::peek() const {
  if (!lane_.empty() &&
      (heap_.empty() || !before(heap_.front(), lane_[lane_head_]))) {
    return &lane_[lane_head_];
  }
  return heap_.empty() ? nullptr : &heap_.front();
}

EventLoop::Event EventLoop::pop_lane() {
  const Event e = lane_[lane_head_++];
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  } else if (lane_head_ >= 4096 && 2 * lane_head_ >= lane_.size()) {
    // An instant that keeps re-filling the lane never empties it; drop the
    // consumed prefix so the vector tracks the pending entries.
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  return e;
}

EventLoop::Event EventLoop::pop_min() {
  Event top = heap_.front();
  Event last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the former last element down from the root.
    size_t i = 0;
    const size_t n = heap_.size();
    for (;;) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

bool EventLoop::run_one() {
  const Event* next = peek();
  if (next == nullptr) return false;
  const Event e = heap_.empty() || next != &heap_.front() ? pop_lane()
                                                          : pop_min();
  now_ = e.time;
  ++processed_;
  e.run(e.ctx);
  return true;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_ && run_one()) {
  }
}

void EventLoop::run_until(SimTime t) {
  stopped_ = false;
  for (const Event* next = peek(); !stopped_ && next != nullptr &&
                                   next->time <= t;
       next = peek()) {
    run_one();
  }
  // Only once no event at or before `t` is left: moving now() past queued
  // events would let them fire in the past.
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace faastcc::sim
