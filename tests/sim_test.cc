// Unit tests for the simulation core: event loop, tasks, futures, sleep,
// queues, when_all.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/async_queue.h"
#include "sim/event_loop.h"
#include "sim/future.h"
#include "sim/task.h"
#include "sim/when_all.h"

namespace faastcc::sim {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeRunsInInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// The events of the order property test below fire through this callback.
using FireFn = std::function<void(uint64_t id, int depth)>;

Task<void> fire_after_sleep(EventLoop& loop, Duration d, const FireFn& fire,
                            uint64_t id, int depth) {
  co_await sleep_for(loop, d);
  fire(id, depth);
}

Task<void> fire_on_fulfil(Future<int> f, const FireFn& fire, uint64_t id,
                          int depth) {
  co_await std::move(f);
  fire(id, depth);
}

Buffer id_payload(uint64_t id, int depth) {
  Buffer b(2 * sizeof(uint64_t));
  const auto d = static_cast<uint64_t>(depth);
  std::memcpy(b.data(), &id, sizeof id);
  std::memcpy(b.data() + sizeof id, &d, sizeof d);
  return b;
}

// A network whose deliveries take exactly `latency` (0: the same-time lane).
net::NetworkParams fixed_latency(Duration latency) {
  net::NetworkParams p;
  p.base_latency = latency;
  p.jitter = 0;
  p.bandwidth_bytes_per_us = 1e12;  // no serialization delay
  return p;
}

// Property test for the event order: events fire in (time, insertion)
// order whichever queue holds them, the 4-ary heap (later times) or the
// same-time lane (now()).  The events mix every kind the loop carries:
// closures, coroutine resumptions from sleep_for (0 included) and from a
// fulfilled Promise, and network deliveries, zero-delay (lane) or one
// tick later (heap).  Each event may schedule children at or shortly
// after its own time, so same-time events are scheduled from inside
// same-time events.  The loop is driven by run() and run_until() steps,
// and events call stop() at random, often in the middle of a lane.  Every
// event gets an id right before the one call that schedules it, so the
// fired (time, id) pairs must ascend, and pending() must always equal
// scheduled minus fired.
TEST(EventLoop, EqualTimestampsFireInInsertionOrderUnderRandomLoad) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    EventLoop loop;
    net::Network lane_net(loop, fixed_latency(0), Rng(1));
    net::Network heap_net(loop, fixed_latency(1), Rng(2));
    struct Fired {
      SimTime time;
      uint64_t id;
    };
    std::vector<Fired> fired;
    uint64_t next_id = 0;
    std::function<void(int, SimTime)> schedule;
    const FireFn fire = [&](uint64_t id, int depth) {
      fired.push_back(Fired{loop.now(), id});
      EXPECT_EQ(loop.pending(), next_id - fired.size());
      if (rng.next_below(16) == 0) loop.stop();
      if (depth > 0) {
        const size_t children = rng.next_below(3);
        for (size_t c = 0; c < children; ++c) schedule(depth - 1, 3);
      }
    };
    for (net::Network* n : {&lane_net, &heap_net}) {
      n->register_endpoint(1, [&fire](net::Message m) {
        BufReader r(m.payload);
        const uint64_t id = r.get_u64();
        fire(id, static_cast<int>(r.get_u64()));
      });
    }
    auto send = [](net::Network& n, uint64_t id, int depth) {
      net::Message m;
      m.from = 2;
      m.to = 1;
      m.payload = id_payload(id, depth);
      n.send(std::move(m));
    };
    // Schedules one event at now() + [0, spread) (network kinds: + 0 or 1).
    schedule = [&](int depth, SimTime spread) {
      const uint64_t id = next_id++;
      const auto d =
          static_cast<Duration>(rng.next_below(static_cast<uint64_t>(spread)));
      switch (rng.next_below(5)) {
        case 0:
          loop.schedule_after(d, [&fire, id, depth] { fire(id, depth); });
          break;
        case 1:
          spawn(fire_after_sleep(loop, d, fire, id, depth));
          break;
        case 2: {
          // The waiter suspends without an event; set_value schedules one.
          Promise<int> p(loop);
          spawn(fire_on_fulfil(p.get_future(), fire, id, depth));
          p.set_value(0);
          break;
        }
        case 3:
          send(lane_net, id, depth);
          break;
        default:
          send(heap_net, id, depth);
          break;
      }
    };
    for (int i = 0; i < 64; ++i) schedule(4, 8);
    while (loop.pending() > 0) {
      if (rng.next_below(2) == 0) {
        loop.run();
      } else {
        loop.run_until(loop.now() +
                       static_cast<SimTime>(rng.next_below(3)));
      }
    }
    ASSERT_EQ(fired.size(), next_id);
    for (size_t i = 1; i < fired.size(); ++i) {
      ASSERT_LE(fired[i - 1].time, fired[i].time) << "round " << round;
      if (fired[i - 1].time == fired[i].time) {
        ASSERT_LT(fired[i - 1].id, fired[i].id)
            << "round " << round << ": equal-time events fired out of "
            << "insertion order";
      }
    }
  }
}

// A loop destroyed with deliveries and closures still queued in both
// queues releases what they own (LeakSanitizer sees any record left
// behind).  The network the deliveries target is destroyed first, so a
// drop that touched it would be a use-after-free under AddressSanitizer.
TEST(EventLoop, TeardownDropsQueuedDeliveries) {
  auto loop = std::make_unique<EventLoop>();
  int delivered = 0;
  {
    net::Network lane_net(*loop, fixed_latency(0), Rng(1));
    net::Network heap_net(*loop, fixed_latency(5), Rng(2));
    for (net::Network* n : {&lane_net, &heap_net}) {
      n->register_endpoint(1, [&delivered](net::Message) { ++delivered; });
    }
    auto queue_some = [&] {
      for (uint64_t i = 0; i < 50; ++i) {
        for (net::Network* n : {&lane_net, &heap_net}) {
          net::Message m;
          m.from = 2;
          m.to = 1;
          m.payload = Buffer(1024, static_cast<uint8_t>(i));
          n->send(std::move(m));
        }
        loop->schedule_after(static_cast<Duration>(i % 3), [] {});
      }
    };
    queue_some();
    loop->run_until(0);  // drains the lane
    EXPECT_EQ(delivered, 50);
    queue_some();
  }
  // First batch: 50 deliveries at t=5 and the 33 closures at t=1..2 are
  // left; second batch: all 150.
  EXPECT_EQ(loop->pending(), 50u + 33u + 150u);
  loop.reset();
  EXPECT_EQ(delivered, 50);
}

TEST(EventLoop, ScheduleAfterIsRelative) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  SimTime fired_at = -1;
  loop.schedule_after(50, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  SimTime fired_at = -1;
  loop.schedule_at(10, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventLoop, NestedSchedulingWorks) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.schedule_after(1, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), 99);
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  loop.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 15);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StopHaltsProcessing) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1, [&] {
    ++fired;
    loop.stop();
  });
  loop.schedule_at(2, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, CountsProcessedEvents) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.schedule_at(i, [] {});
  loop.run();
  EXPECT_EQ(loop.events_processed(), 5u);
}

// ---------------------------------------------------------------------------
// Task
// ---------------------------------------------------------------------------

Task<int> make_value(int v) { co_return v; }

Task<int> add_tasks() {
  const int a = co_await make_value(20);
  const int b = co_await make_value(22);
  co_return a + b;
}

TEST(Task, ReturnsValueThroughAwaitChain) {
  int result = 0;
  spawn([](int& out) -> Task<void> { out = co_await add_tasks(); }(result));
  EXPECT_EQ(result, 42);  // no suspension points: completes synchronously
}

TEST(Task, DeepAwaitChainUsesConstantStack) {
  // 100k chained awaits would overflow the stack without symmetric
  // transfer.
  struct Chain {
    static Task<int> down(int n) {
      if (n == 0) co_return 0;
      co_return 1 + co_await down(n - 1);
    }
  };
  int result = 0;
  spawn([](int& out) -> Task<void> {
    out = co_await Chain::down(100000);
  }(result));
  EXPECT_EQ(result, 100000);
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  struct Thrower {
    static Task<int> boom() {
      throw std::runtime_error("boom");
      co_return 0;
    }
  };
  bool caught = false;
  spawn([](bool& c) -> Task<void> {
    try {
      co_await Thrower::boom();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(caught));
  EXPECT_TRUE(caught);
}

TEST(Task, MoveOnlyResultsWork) {
  struct Maker {
    static Task<std::unique_ptr<int>> make() {
      co_return std::make_unique<int>(9);
    }
  };
  int result = 0;
  spawn([](int& out) -> Task<void> {
    auto p = co_await Maker::make();
    out = *p;
  }(result));
  EXPECT_EQ(result, 9);
}

// ---------------------------------------------------------------------------
// Future / sleep
// ---------------------------------------------------------------------------

TEST(Future, AwaiterResumesOnFulfil) {
  EventLoop loop;
  Promise<int> p(loop);
  int got = 0;
  spawn([](Future<int> f, int& out) -> Task<void> {
    out = co_await std::move(f);
  }(p.get_future(), got));
  EXPECT_EQ(got, 0);
  p.set_value(5);
  loop.run();
  EXPECT_EQ(got, 5);
}

TEST(Future, FulfilBeforeAwaitIsImmediate) {
  EventLoop loop;
  Promise<int> p(loop);
  p.set_value(7);
  int got = 0;
  spawn([](Future<int> f, int& out) -> Task<void> {
    out = co_await std::move(f);
  }(p.get_future(), got));
  EXPECT_EQ(got, 7);
}

TEST(Sleep, ResumesAtRequestedTime) {
  EventLoop loop;
  SimTime woke = -1;
  spawn([](EventLoop& l, SimTime& out) -> Task<void> {
    co_await sleep_for(l, 250);
    out = l.now();
  }(loop, woke));
  loop.run();
  EXPECT_EQ(woke, 250);
}

TEST(Sleep, SequentialSleepsAccumulate) {
  EventLoop loop;
  SimTime woke = -1;
  spawn([](EventLoop& l, SimTime& out) -> Task<void> {
    co_await sleep_for(l, 100);
    co_await sleep_for(l, 100);
    co_await sleep_for(l, 100);
    out = l.now();
  }(loop, woke));
  loop.run();
  EXPECT_EQ(woke, 300);
}

TEST(Sleep, ConcurrentSleepersInterleave) {
  EventLoop loop;
  std::vector<int> order;
  auto sleeper = [](EventLoop& l, std::vector<int>& o, Duration d,
                    int id) -> Task<void> {
    co_await sleep_for(l, d);
    o.push_back(id);
  };
  spawn(sleeper(loop, order, 30, 3));
  spawn(sleeper(loop, order, 10, 1));
  spawn(sleeper(loop, order, 20, 2));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// when_all
// ---------------------------------------------------------------------------

TEST(WhenAll, GathersResultsInInputOrder) {
  EventLoop loop;
  auto delayed = [](EventLoop& l, Duration d, int v) -> Task<int> {
    co_await sleep_for(l, d);
    co_return v;
  };
  std::vector<int> results;
  spawn([](EventLoop& l, std::vector<int>& out,
           decltype(delayed)& mk) -> Task<void> {
    std::vector<Task<int>> tasks;
    tasks.push_back(mk(l, 30, 1));  // finishes last
    tasks.push_back(mk(l, 10, 2));
    tasks.push_back(mk(l, 20, 3));
    out = co_await when_all(l, std::move(tasks));
  }(loop, results, delayed));
  loop.run();
  EXPECT_EQ(results, (std::vector<int>{1, 2, 3}));
}

TEST(WhenAll, RunsConcurrentlyNotSequentially) {
  EventLoop loop;
  SimTime finished = -1;
  auto delayed = [](EventLoop& l, Duration d) -> Task<int> {
    co_await sleep_for(l, d);
    co_return 0;
  };
  spawn([](EventLoop& l, SimTime& out, decltype(delayed)& mk) -> Task<void> {
    std::vector<Task<int>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back(mk(l, 100));
    co_await when_all(l, std::move(tasks));
    out = l.now();
  }(loop, finished, delayed));
  loop.run();
  EXPECT_EQ(finished, 100);  // parallel, not 1000
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  EventLoop loop;
  bool done = false;
  spawn([](EventLoop& l, bool& out) -> Task<void> {
    auto r = co_await when_all(l, std::vector<Task<int>>{});
    out = r.empty();
  }(loop, done));
  loop.run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// AsyncQueue
// ---------------------------------------------------------------------------

TEST(AsyncQueue, PopWaitsForPush) {
  EventLoop loop;
  AsyncQueue<int> q(loop);
  int got = 0;
  spawn([](AsyncQueue<int>& queue, int& out) -> Task<void> {
    out = co_await queue.pop();
  }(q, got));
  EXPECT_EQ(got, 0);
  q.push(11);
  loop.run();
  EXPECT_EQ(got, 11);
}

TEST(AsyncQueue, BuffersWhenNoConsumer) {
  EventLoop loop;
  AsyncQueue<int> q(loop);
  q.push(1);
  q.push(2);
  std::vector<int> got;
  spawn([](AsyncQueue<int>& queue, std::vector<int>& out) -> Task<void> {
    out.push_back(co_await queue.pop());
    out.push_back(co_await queue.pop());
  }(q, got));
  loop.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(AsyncQueue, MultipleConsumersServedFifo) {
  EventLoop loop;
  AsyncQueue<int> q(loop);
  std::vector<int> got;
  auto consumer = [](AsyncQueue<int>& queue,
                     std::vector<int>& out) -> Task<void> {
    out.push_back(co_await queue.pop());
  };
  spawn(consumer(q, got));
  spawn(consumer(q, got));
  q.push(1);
  q.push(2);
  loop.run();
  EXPECT_EQ(got.size(), 2u);
}

}  // namespace
}  // namespace faastcc::sim
