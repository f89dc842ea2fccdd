// Allocation regression test for the simulator core.
//
// This binary replaces the global operator new/delete with counting
// versions, so it stays separate from the other test binaries.  It pins
// how many heap allocations the steady state of the event loop, network
// and RPC layer makes: after a warm-up, an echo round trip between two
// RpcNodes allocates one in-flight record per message and nothing else
// (coroutine frames and future states come from the thread's SmallPool,
// payload buffers from the loop's BufferPool, the pending-call table and
// the event queues keep their capacity).
//
// It also pins the allocations and lifetimes of the refcounted payload
// handles, Value and cache::DepList: one block per non-empty payload,
// none per copy, and the block freed with its last holder.  Those tests
// (`*Handle.*`) start no service loop, so they also run leak-checked
// under ASan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "cache/hydro_types.h"
#include "common/serialize.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace {

uint64_t g_news = 0;
int64_t g_live = 0;

void* counted_new(size_t n) {
  ++g_news;
  ++g_live;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, like the library's operator delete: inlined, its free()
// lets GCC's -Wuse-after-free misread the refcount tests below (it cannot
// see that a block is freed only on its last release).
[[gnu::noinline]] void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  --g_live;
  std::free(p);
}

// Heap allocations made by `fn`.
template <typename F>
uint64_t news_during(F&& fn) {
  const uint64_t before = g_news;
  fn();
  return g_news - before;
}

// Heap blocks still live after `fn`, relative to before it.
template <typename F>
int64_t live_after(F&& fn) {
  const int64_t before = g_live;
  fn();
  return g_live - before;
}

}  // namespace

void* operator new(size_t n) { return counted_new(n); }
void* operator new[](size_t n) { return counted_new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, size_t) noexcept { counted_delete(p); }

namespace faastcc::net {
namespace {

constexpr MethodId kEcho = 7;
constexpr MethodId kNote = 8;

// Two nodes on a jitter-free network: `a` calls, `b` echoes the request
// payload back (the buffer itself moves through, so no payload bytes are
// allocated) and counts one-way notes.
struct EchoPair {
  sim::EventLoop loop;
  Network net{loop, NetworkParams{}, Rng(1)};
  RpcNode a{net, 1};
  RpcNode b{net, 2};
  uint64_t notes = 0;

  EchoPair() {
    b.handle(kEcho, [](Buffer req, Address) -> sim::Task<Buffer> {
      co_return req;
    });
    b.handle_oneway(kNote, [this](Buffer msg, Address) {
      ++notes;
      b.recycle(std::move(msg));
    });
  }

  sim::Task<void> round_trips(int n) {
    for (int i = 0; i < n; ++i) {
      Buffer req = loop.buffer_pool().acquire();
      req.resize(64, static_cast<uint8_t>(i));
      Buffer resp = co_await a.call_raw(2, kEcho, std::move(req));
      a.recycle(std::move(resp));
    }
  }

  void notes_burst(int n) {
    for (int i = 0; i < n; ++i) {
      Buffer msg = loop.buffer_pool().acquire();
      msg.resize(64, static_cast<uint8_t>(i));
      a.send_raw(2, kNote, std::move(msg));
    }
    loop.run();
  }
};

TEST(Allocations, EchoRoundTripAllocatesOnlyItsTwoInFlightRecords) {
  EchoPair p;
  // Warm-up: fills the frame and future-state free lists, the buffer pool,
  // the pending table and the event queues.
  sim::spawn(p.round_trips(200));
  p.loop.run();
  constexpr int kTrips = 1000;
  const uint64_t news = news_during([&] {
    sim::spawn(p.round_trips(kTrips));
    p.loop.run();
  });
  // 11 per round trip before the allocation-light core.
  EXPECT_LE(news, 2u * kTrips) << static_cast<double>(news) / kTrips
                               << " allocations per round trip";
  EXPECT_EQ(p.a.pending_calls(), 0u);
}

TEST(Allocations, OneWaySendAllocatesOnlyItsInFlightRecord) {
  EchoPair p;
  constexpr int kSends = 1000;
  p.notes_burst(kSends);  // warm-up: the whole burst is in flight at once
  const uint64_t news = news_during([&] { p.notes_burst(kSends); });
  // 2 per send before the allocation-light core.
  EXPECT_LE(news, 1u * kSends) << static_cast<double>(news) / kSends
                               << " allocations per one-way send";
  EXPECT_EQ(p.notes, 2u * kSends);
}

// A loop destroyed with deliveries still queued (both in the heap and in
// the same-time lane) frees their records and payloads: the live count is
// back where it started once loop and network are gone.
TEST(Allocations, LoopTeardownFreesQueuedDeliveries) {
  const int64_t live_before = g_live;
  {
    auto loop = std::make_unique<sim::EventLoop>();
    {
      NetworkParams instant;
      instant.base_latency = 0;
      instant.jitter = 0;
      Network lane_net(*loop, instant, Rng(1));
      Network heap_net(*loop, NetworkParams{}, Rng(2));
      lane_net.register_endpoint(1, [](Message) {});
      heap_net.register_endpoint(1, [](Message) {});
      for (int i = 0; i < 100; ++i) {
        for (Network* n : {&lane_net, &heap_net}) {
          Message m;
          m.from = 2;
          m.to = 1;
          m.payload = Buffer(512, static_cast<uint8_t>(i));
          n->send(std::move(m));
        }
      }
      ASSERT_EQ(loop->pending(), 200u);
    }
  }
  EXPECT_EQ(g_live, live_before);
}

}  // namespace
}  // namespace faastcc::net

namespace faastcc {
namespace {

TEST(ValueHandle, NonEmptyConstructAllocatesOnce) {
  const std::string bytes(8, 'v');
  EXPECT_EQ(news_during([&] { Value v(bytes); }), 1u);
  EXPECT_EQ(news_during([] { Value v("payload"); }), 1u);
  EXPECT_EQ(news_during([] { Value v(64, 'x'); }), 1u);
}

TEST(ValueHandle, DecodeAllocatesOnce) {
  BufWriter w;
  w(Value("12345678"));
  const Buffer wire = w.take();
  Value v;
  EXPECT_EQ(news_during([&] {
              BufReader r(wire);
              v = r.get<Value>();
            }),
            1u);
  EXPECT_EQ(v, "12345678");
}

TEST(ValueHandle, CopyMoveAndAssignAllocateNothing) {
  const Value a("payload");
  Value other("other");
  EXPECT_EQ(news_during([&] {
              Value b = a;
              Value c = std::move(b);
              c = a;
              other = c;
              Value d;
              d = std::move(c);
            }),
            0u);
  EXPECT_EQ(other, a);
}

TEST(ValueHandle, EmptyValueAllocatesNothing) {
  BufWriter w;
  w(Value());
  const Buffer wire = w.take();
  EXPECT_EQ(news_during([&] {
              Value a;
              Value b("");
              Value c(std::string_view{});
              Value d(0, 'x');
              BufReader r(wire);
              Value e = r.get<Value>();
            }),
            0u);
}

TEST(ValueHandle, BlockIsFreedWithItsLastHolder) {
  EXPECT_EQ(live_after([] {
              Value survivor;
              EXPECT_EQ(live_after([&] {
                          Value a("payload");
                          Value b = a;
                          survivor = b;
                        }),
                        1);  // still held by `survivor`
              EXPECT_EQ(survivor, "payload");
            }),
            0);
  EXPECT_EQ(live_after([] {
              Value a("x");
              Value b("y");
              a = b;  // a's old block goes now
              b = Value();
              const Value& alias = a;
              a = alias;
              a = std::move(a);
            }),
            0);
}

std::vector<cache::StoredDep> some_deps() {
  return {cache::StoredDep{1, 2, 3, 0}, cache::StoredDep{4, 5, 6, 1},
          cache::StoredDep{7, 8, 9, 1}};
}

TEST(DepListHandle, NonEmptyConstructAllocatesOnce) {
  const std::vector<cache::StoredDep> deps = some_deps();
  EXPECT_EQ(news_during([&] { cache::DepList l(deps); }), 1u);
}

TEST(DepListHandle, DecodeAllocatesOnce) {
  BufWriter w;
  w(cache::DepList(some_deps()));
  const Buffer wire = w.take();
  cache::DepList l;
  EXPECT_EQ(news_during([&] {
              BufReader r(wire);
              l = r.get<cache::DepList>();
            }),
            1u);
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[2].key, 7u);
  EXPECT_EQ(l[2].level, 1);
}

TEST(DepListHandle, CopyMoveAndAssignAllocateNothing) {
  const cache::DepList a(some_deps());
  cache::DepList other(std::vector<cache::StoredDep>{cache::StoredDep{}});
  EXPECT_EQ(news_during([&] {
              cache::DepList b = a;
              cache::DepList c = std::move(b);
              c = a;
              other = c;
              cache::DepList d;
              d = std::move(c);
            }),
            0u);
  EXPECT_EQ(other.size(), 3u);
}

TEST(DepListHandle, EmptyListAllocatesNothing) {
  BufWriter w;
  w(cache::DepList());
  const Buffer wire = w.take();
  const std::vector<cache::StoredDep> none;
  EXPECT_EQ(news_during([&] {
              cache::DepList a;
              cache::DepList b(none);
              BufReader r(wire);
              cache::DepList c = r.get<cache::DepList>();
            }),
            0u);
}

TEST(DepListHandle, BlockIsFreedWithItsLastHolder) {
  const std::vector<cache::StoredDep> deps = some_deps();
  EXPECT_EQ(live_after([&] {
              cache::DepList survivor;
              EXPECT_EQ(live_after([&] {
                          cache::DepList a(deps);
                          cache::DepList b = a;
                          survivor = b;
                        }),
                        1);
              EXPECT_EQ(survivor.size(), 3u);
            }),
            0);
}

// A decode that fails part-way through the entries frees the block it
// was filling.
TEST(DepListHandle, FailedDecodeFreesItsBlock) {
  BufWriter w;
  w(cache::DepList(some_deps()));
  Buffer wire = w.take();
  wire.resize(wire.size() - 1);
  EXPECT_EQ(live_after([&] {
              BufReader r(wire);
              EXPECT_THROW(r.get<cache::DepList>(), CodecError);
            }),
            0);
}

}  // namespace
}  // namespace faastcc
