// Heap-allocation accounting for the simulation hot path. This suite
// lives in its own binary because it replaces the global operator new /
// delete with counting wrappers; the counters let tests assert that the
// scheduler's schedule -> fire cycle, Body's small-buffer payloads, a
// Network message round trip and Lamport's request queue perform no heap
// traffic at steady state, and that checking a full trace costs a few
// table growths rather than an allocation per event.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mutex/l2.hpp"
#include "mutex/lamport_engine.hpp"
#include "net/agent.hpp"
#include "net/body.hpp"
#include "net/network.hpp"
#include "obs/checkers.hpp"
#include "obs/events.hpp"
#include "sim/scheduler.hpp"

namespace {

// Atomic: the sharded-run test allocates from two shard threads at once.
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

// Over-aligned types (the scheduler's cache-line small slots) come
// through the aligned forms; count them too.
namespace {

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_news;
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace mobidist::test {
namespace {

/// Allocations performed while running `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_news;
  fn();
  return g_news - before;
}

TEST(AllocCounting, HookSeesPlainNew) {
  const auto count = allocations_during([] {
    delete new int(7);  // NOLINT: exercising the counting hook itself
  });
  EXPECT_GE(count, 1u);
}

TEST(AllocCounting, HookSeesAlignedNew) {
  struct alignas(64) Line {
    unsigned char bytes[64];
  };
  const auto count = allocations_during([] {
    delete new Line{};  // NOLINT: exercising the counting hook itself
  });
  EXPECT_GE(count, 1u);
}

// Once the slot blocks and heap array have grown to the working set
// (one warm-up round), scheduling and firing events whose captures fit
// a slot's inline buffer is allocation-free.
TEST(SchedulerHotPath, ScheduleAndFireDoNotAllocateAfterWarmup) {
  sim::Scheduler sched;
  constexpr int kBatch = 64;
  constexpr int kRounds = 100;
  std::uint64_t fired = 0;

  auto one_round = [&](sim::Duration base) {
    for (int i = 0; i < kBatch; ++i) {
      sched.schedule(base + i, [&fired] { ++fired; });
    }
    sched.run_until(sched.now() + base + kBatch);
  };

  one_round(1);  // warm-up: grows the slot blocks and heap_ to the working set
  const auto count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) one_round(1);
  });

  EXPECT_EQ(count, 0u) << "schedule/fire hot path allocated";
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch) * (kRounds + 1));
}

// Cancelling must not allocate either (it only destroys the callback
// in place and flips the slot's tombstone).
TEST(SchedulerHotPath, CancelDoesNotAllocateAfterWarmup) {
  sim::Scheduler sched;
  // Warm-up must cover a full corpse-accumulation + compaction cycle so
  // the heap array reaches its steady-state capacity.
  for (int i = 0; i < 256; ++i) {
    auto h = sched.schedule(1000, [] {});
    ASSERT_TRUE(sched.cancel(h));
  }

  const auto count = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      auto h = sched.schedule(1000, [] {});
      sched.cancel(h);
    }
  });
  EXPECT_EQ(count, 0u) << "schedule/cancel churn allocated";
}

// The same claim across both levels of the queue: each round's delays
// (0, 255, 256, 10 000) put events in the ring and in the heap, and the
// half cancelled is the half scheduled last, so the first firing finds
// corpses outnumbering live events and compacts the ring and the heap.
// Overflow then migrates into the ring as time advances, and every round
// starts at a new offset, so buckets wrap around the ring.
TEST(SchedulerHotPath, RingAndOverflowMixDoesNotAllocateAfterWarmup) {
  sim::Scheduler sched;
  constexpr sim::Duration kDelays[] = {0, 255, 256, 10'000};
  constexpr int kBatch = 256;
  constexpr int kRounds = 100;
  std::vector<sim::EventHandle> handles;
  handles.reserve(kBatch);
  std::uint64_t fired = 0;

  auto one_round = [&] {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      handles.push_back(sched.schedule(kDelays[i % 4], [&fired] { ++fired; }));
    }
    for (int i = kBatch / 2; i < kBatch; ++i) ASSERT_TRUE(sched.cancel(handles[i]));
    sched.run_until(sched.now() + 10'001);
  };

  one_round();  // warm-up: grows the slot blocks and heap_ to the working set
  const auto count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) one_round();
  });

  EXPECT_EQ(count, 0u) << "ring/overflow schedule, cancel and fire allocated";
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch / 2) * (kRounds + 1));
  EXPECT_EQ(sched.pending(), 0u);
}

// The two slot classes share the ring, the heap and compaction, and
// each keeps its own blocks and free list: once both have grown to a
// round's working set, rounds that mix small timers with 200-byte
// closures (the size of a frame landing), in the ring and on the heap,
// with half of them cancelled, allocate nothing.
TEST(SchedulerHotPath, SmallAndWideSlotMixDoesNotAllocateAfterWarmup) {
  sim::Scheduler sched;
  constexpr sim::Duration kDelays[] = {0, 3, 255, 256, 10'000};
  constexpr int kBatch = 320;
  constexpr int kRounds = 100;
  struct Pad {
    std::uint64_t words[25];
  };
  std::vector<sim::EventHandle> handles;
  handles.reserve(kBatch);
  std::uint64_t fired = 0;

  auto one_round = [&] {
    handles.clear();
    for (int i = 0; i < kBatch; ++i) {
      const sim::Duration delay = kDelays[i % 5];
      if (i % 2 == 0) {
        handles.push_back(sched.schedule(delay, [&fired] { ++fired; }));
      } else {
        auto wide = [&fired, pad = Pad{{1}}] { fired += pad.words[0]; };
        static_assert(!sim::Scheduler::takes_small_slot<decltype(wide)>());
        handles.push_back(sched.schedule(delay, std::move(wide)));
      }
    }
    for (int i = 0; i < kBatch; i += 4) ASSERT_TRUE(sched.cancel(handles[i]));
    for (int i = 3; i < kBatch; i += 4) ASSERT_TRUE(sched.cancel(handles[i]));
    sched.run_until(sched.now() + 10'001);
  };

  one_round();  // warm-up: grows both classes' blocks and the heap
  const auto count = allocations_during([&] {
    for (int round = 0; round < kRounds; ++round) one_round();
  });

  EXPECT_EQ(count, 0u) << "mixed small/wide schedule, cancel and fire allocated";
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch / 2) * (kRounds + 1));
  EXPECT_EQ(sched.pending(), 0u);
}

// Regression test for the tombstone memory-growth bug: before the 4-ary
// heap rewrite, cancelled events stayed queued until their firing time,
// so schedule-then-cancel churn of far-future timers grew the queue
// without bound. Compaction must keep the heap proportional to the
// *live* count no matter how many corpses accumulate.
TEST(SchedulerCancel, FarFutureTombstonesKeepQueueBounded) {
  sim::Scheduler sched;
  constexpr sim::SimTime kFarFuture = 1'000'000'000;
  constexpr int kChurn = 100'000;
  constexpr std::size_t kLiveFloor = 8;

  // A handful of genuinely live timers so compaction has survivors.
  for (std::size_t i = 0; i < kLiveFloor; ++i) {
    sched.schedule_at(kFarFuture + static_cast<sim::Duration>(i), [] {});
  }

  std::size_t max_depth = 0;
  for (int i = 0; i < kChurn; ++i) {
    auto h = sched.schedule_at(kFarFuture / 2, [] {});
    ASSERT_TRUE(sched.cancel(h));
    max_depth = std::max(max_depth, sched.queue_depth());
  }

  EXPECT_EQ(sched.pending(), kLiveFloor);
  // queue_depth() <= 2 * pending() + compaction floor (64), with a
  // little slack for the transient right after a compaction pass.
  EXPECT_LE(max_depth, 2 * kLiveFloor + 128)
      << "cancelled far-future timers accumulated in the queue";
}

// The twin of the test above with every cancelled event inside the
// near-future ring: compaction must unlink ring corpses too.
TEST(SchedulerCancel, NearFutureTombstonesKeepQueueBounded) {
  sim::Scheduler sched;
  constexpr int kChurn = 100'000;
  constexpr std::size_t kLiveFloor = 8;

  for (std::size_t i = 0; i < kLiveFloor; ++i) {
    sched.schedule(200 + static_cast<sim::Duration>(i), [] {});
  }

  std::size_t max_depth = 0;
  for (int i = 0; i < kChurn; ++i) {
    auto h = sched.schedule(static_cast<sim::Duration>(i % 100), [] {});
    ASSERT_TRUE(sched.cancel(h));
    max_depth = std::max(max_depth, sched.queue_depth());
  }

  EXPECT_EQ(sched.pending(), kLiveFloor);
  EXPECT_LE(max_depth, 2 * kLiveFloor + 128)
      << "cancelled near-future events accumulated in the ring";
  EXPECT_EQ(sched.run(), kLiveFloor);
}

// Body's small-buffer payloads: wrap + copy + read of anything within
// kInlineCapacity is heap-free (the substrate copies envelopes on the
// retransmission path, so this is hot).
TEST(BodyAlloc, InlinePayloadsDoNotAllocate) {
  struct Payload {
    std::uint64_t a = 1;
    std::uint64_t b = 2;
    std::uint64_t c = 3;
  };
  static_assert(sizeof(Payload) <= net::Body::kInlineCapacity);

  const auto count = allocations_during([] {
    for (int i = 0; i < 1000; ++i) {
      net::Body body(Payload{static_cast<std::uint64_t>(i), 0, 0});
      net::Body copy = body;  // envelope copy on the retry path
      const auto* read = copy.get<Payload>();
      ASSERT_NE(read, nullptr);
      ASSERT_EQ(read->a, static_cast<std::uint64_t>(i));
    }
  });
  EXPECT_EQ(count, 0u) << "inline Body payloads allocated";
}

// The binary-telemetry claim: with tracing ON (the binlog ring is the
// stream's storage), steady-state emission is allocation-free. Steady
// state = the interner has seen every distinct detail tag once and the
// per-entity counter vectors have grown to the entity working set;
// after that, emit() is a hash lookup, a stack Event, and a 64-byte
// ring store — including across ring wrap, whose eviction is a plain
// overwrite.
TEST(EventStreamAlloc, SteadyStateEmitDoesNotAllocateWithTracingOn) {
  obs::EventStream stream(256);  // small ring: the gate spans many wraps

  constexpr std::string_view kTags[] = {"R2'", "broadcast", "L1", ""};
  auto emit_round = [&](sim::SimTime base) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      obs::EventStream::Emit spec;
      spec.kind = i % 2 == 0 ? obs::EventKind::kSend : obs::EventKind::kRecv;
      spec.entity = obs::Entity::mss(i % 8);
      spec.peer = obs::Entity::mh(i % 16);
      spec.channel = i % 4;
      spec.arg = i;
      spec.detail = kTags[i % 4];
      spec.cause = stream.emitted();  // chain to the previous event
      stream.emit(base + i, spec);
    }
  };

  emit_round(0);  // warm-up: interns the tags, grows the counter vectors
  const auto count = allocations_during([&] {
    for (int round = 1; round <= 100; ++round) emit_round(round * 64);
  });

  EXPECT_EQ(count, 0u) << "steady-state emit allocated with tracing on";
  EXPECT_GT(stream.dropped(), 0u) << "gate must cover ring wrap";
  EXPECT_EQ(stream.emitted(), 101u * 64u);
}

// The sharded-engine claim: telemetry is shard-local (one ring, one
// interner, one counter set per shard slice, merged only at snapshot),
// so steady-state emission stays allocation-free on EVERY shard's
// stream simultaneously — there is no shared sink, lock, or queue whose
// growth could reintroduce heap traffic as shards are added.
TEST(EventStreamAlloc, PerShardSteadyStateEmitDoesNotAllocate) {
  constexpr std::uint32_t kShards = 4;
  std::vector<obs::EventStream> streams;
  streams.reserve(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) streams.emplace_back(256);

  auto emit_round = [&](sim::SimTime base) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      // Lane -> shard exactly as the network maps them: lane % kShards.
      auto& stream = streams[i % kShards];
      obs::EventStream::Emit spec;
      spec.kind = i % 2 == 0 ? obs::EventKind::kSend : obs::EventKind::kRecv;
      spec.entity = obs::Entity::mss(i % 8);
      spec.peer = obs::Entity::mh(i % 16);
      spec.channel = i % 4;
      spec.detail = "shard";
      stream.emit(base + i, spec);
    }
  };

  emit_round(0);  // warm-up: per-shard interners and counter vectors
  const auto count = allocations_during([&] {
    for (int round = 1; round <= 100; ++round) emit_round(round * 64);
  });
  EXPECT_EQ(count, 0u) << "per-shard steady-state emit allocated";
  for (const auto& stream : streams) {
    EXPECT_EQ(stream.emitted(), 101u * 16u);
    EXPECT_GT(stream.dropped(), 0u) << "gate must cover ring wrap on every shard";
  }
}

// The combined simulation hot loop: scheduler fire -> event emission,
// the path every simulated message takes. Both halves warm, the whole
// cycle must stay heap-free.
TEST(EventStreamAlloc, SchedulerDrivenEmitDoesNotAllocateAfterWarmup) {
  sim::Scheduler sched;
  obs::EventStream stream(256);

  auto one_round = [&](sim::Duration base) {
    for (int i = 0; i < 64; ++i) {
      sched.schedule(base + i, [&stream, i] {
        obs::EventStream::Emit spec;
        spec.kind = obs::EventKind::kSend;
        spec.entity = obs::Entity::mss(static_cast<std::uint32_t>(i % 4));
        spec.detail = "hot";
        stream.emit(0, spec);
      });
    }
    sched.run_until(sched.now() + base + 64);
  };

  one_round(1);  // warm-up for scheduler slots, interner, counters
  const auto count = allocations_during([&] {
    for (int round = 0; round < 100; ++round) one_round(1);
  });
  EXPECT_EQ(count, 0u) << "scheduler-driven emit hot path allocated";
  EXPECT_EQ(stream.emitted(), 101u * 64u);
}

// The flat request-queue claim: once each origin's queue has grown to a
// burst's depth, Lamport's request / reply / release traffic allocates
// nothing. A node-based queue would allocate per request at every
// participant.
TEST(LamportEngineAlloc, SteadyStateBurstsDoNotAllocate) {
  constexpr std::uint32_t kN = 4;
  constexpr std::uint64_t kPerParticipant = 8;
  struct InFlight {
    std::uint32_t from;
    std::uint32_t to;
    mutex::LamportMsg msg;
  };
  std::vector<InFlight> delivering;
  std::vector<InFlight> sent;
  delivering.reserve(1024);
  sent.reserve(1024);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> grants;  // (owner, req_id)
  grants.reserve(kN * kPerParticipant);

  std::vector<std::unique_ptr<mutex::LamportEngine>> engines;
  for (std::uint32_t i = 0; i < kN; ++i) {
    engines.push_back(std::make_unique<mutex::LamportEngine>(i, kN));
    engines[i]->set_send([&sent, i](std::uint32_t peer, const mutex::LamportMsg& msg) {
      sent.push_back({i, peer, msg});
    });
    engines[i]->set_on_acquired(
        [&grants, i](std::uint64_t req_id, std::uint64_t) { grants.emplace_back(i, req_id); });
  }

  auto deliver_all = [&] {
    while (!sent.empty()) {
      delivering.swap(sent);  // swapping keeps both capacities
      for (const auto& m : delivering) engines[m.to]->on_message(m.from, m.msg);
      delivering.clear();
    }
  };
  std::uint64_t next_req_id = 1;
  auto burst = [&] {
    grants.clear();
    for (std::uint32_t i = 0; i < kN; ++i) {
      for (std::uint64_t k = 0; k < kPerParticipant; ++k) engines[i]->submit(next_req_id++);
    }
    deliver_all();
    // Each release hands the lock on, which appends the next grant.
    for (std::size_t g = 0; g < grants.size(); ++g) {
      const auto [owner, req_id] = grants[g];
      engines[owner]->release(req_id);
      deliver_all();
    }
  };

  burst();  // warm-up: grows each origin queue to the burst's depth
  const auto count = allocations_during([&] {
    for (int round = 0; round < 50; ++round) burst();
  });
  EXPECT_EQ(count, 0u) << "steady-state Lamport traffic allocated";
  EXPECT_EQ(grants.size(), kN * kPerParticipant);
  for (const auto& engine : engines) EXPECT_EQ(engine->queue_size(), 0u);
}

/// Station half of the Network-level echo: answers every ping from a
/// local MH over the downlink.
class EchoStation : public net::MssAgent {
 public:
  void on_message(const net::Envelope& env) override {
    if (const auto* value = net::body_as<std::uint64_t>(env)) send_local(env.src.mh(), *value);
  }
};

/// Host half: pings its MSS over the uplink and counts the echoes.
class EchoHost : public net::MhAgent {
 public:
  void on_message(const net::Envelope&) override { ++echoes; }
  void ping() { send_uplink(std::uint64_t{7}); }
  std::uint64_t echoes = 0;
};

// The dense per-host state claim: once every MH's cell record and
// ledger slot exist (one warm-up round), an echo round trip through the
// Network — uplink, MSS dispatch, downlink, ledger charge — allocates
// nothing.
TEST(NetworkAlloc, EchoRoundTripDoesNotAllocateAfterWarmup) {
  net::NetConfig cfg;
  cfg.num_mss = 4;
  cfg.num_mh = 64;
  net::Network net(cfg);
  std::vector<EchoStation> stations(cfg.num_mss);
  for (std::uint32_t s = 0; s < cfg.num_mss; ++s) {
    net.mss(static_cast<net::MssId>(s))
        .register_agent(net::protocol::kUserBase, &stations[s]);
  }
  std::vector<EchoHost> hosts(cfg.num_mh);
  for (std::uint32_t h = 0; h < cfg.num_mh; ++h) {
    net.mh(static_cast<net::MhId>(h)).register_agent(net::protocol::kUserBase, &hosts[h]);
  }
  auto one_round = [&] {
    for (auto& host : hosts) host.ping();
    net.run();
  };

  net.start();
  one_round();  // warm-up: ledger slots, scheduler slots, event counters
  const auto count = allocations_during([&] {
    for (int round = 0; round < 100; ++round) one_round();
  });
  EXPECT_EQ(count, 0u) << "Network echo round trip allocated";
  for (const auto& host : hosts) EXPECT_EQ(host.echoes, 101u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 2u * 64u * 101u);
}

// One owner per agent and one table per protocol: building an algorithm
// allocates its agent vectors and its protocol's host tables once each,
// whatever the host count. An owner holding a shared_ptr per agent, and
// a host holding a map node per agent, made at least two allocations
// per host.
TEST(AgentTableAlloc, BuildingL2AllocatesTheSameAtAnyHostCount) {
  const auto build = [](std::uint32_t num_mh) {
    net::NetConfig cfg;
    cfg.num_mss = 8;
    cfg.num_mh = num_mh;
    net::Network net(cfg);
    mutex::CsMonitor monitor;
    return allocations_during([&] { mutex::L2Mutex l2(net, monitor); });
  };
  const auto small = build(1'000);
  EXPECT_EQ(build(10'000), small);
  EXPECT_LT(small, 1'000u) << "fewer allocations than hosts";
}

// Hosts are rows of one array built in place, and their first cell
// records come from 1 024-record blocks, so constructing a Network costs
// one allocation per block, not one per host (a heap block per
// MobileHost made at least 10 000).
TEST(HostRowAlloc, ConstructingTenThousandHostsMakesFewerThanAHundredAllocations) {
  net::NetConfig cfg;
  cfg.num_mss = 8;
  cfg.num_mh = 10'000;
  EXPECT_LT(allocations_during([&] { net::Network net(cfg); }), 100u);
}

// The single-pass checker claim: what it remembers per event lives in
// id-indexed vectors and per-channel / per-entity slot tables, so
// checking a full 2^18-record ring costs a few dozen table growths, not a
// hash node per event (the map-based checkers made 412 973 allocations
// on l2_64x1k's full stream).
TEST(TraceCheckerAlloc, FullRingChecksInFewAllocations) {
  constexpr std::uint32_t kMss = 64;
  constexpr std::uint32_t kMh = 1024;
  obs::EventStream stream;
  // L2-shaped traffic: wired messages over 4 096 MSS pairs, each batched
  // into a one-message packet, and a critical section per step.
  constexpr std::uint64_t kEmits = obs::EventStream::kDefaultCapacity * 5 / 4;
  for (std::uint64_t step = 0; stream.emitted() < kEmits; ++step) {
    const auto from = obs::Entity::mss(static_cast<std::uint32_t>(step % kMss));
    const auto to = obs::Entity::mss(static_cast<std::uint32_t>(step / kMss % kMss));
    const std::uint64_t channel = 1 + from.idx * kMss + to.idx;
    const auto mh = obs::Entity::mh(static_cast<std::uint32_t>(step % kMh));
    const sim::SimTime t = 4 * step;
    const auto send = stream.emit(t, {.kind = obs::EventKind::kSend, .entity = from,
                                      .peer = to, .channel = channel, .detail = "L2"});
    const auto packet = stream.emit(t, {.kind = obs::EventKind::kPacketSend,
                                        .entity = from,
                                        .peer = to,
                                        .channel = channel,
                                        .arg = 1});
    stream.emit(t + 1, {.kind = obs::EventKind::kPacketFlush, .entity = to, .peer = from,
                        .cause = packet, .channel = channel, .arg = 1});
    stream.emit(t + 1, {.kind = obs::EventKind::kRecv, .entity = to, .peer = from,
                        .cause = send, .channel = channel, .detail = "L2"});
    stream.emit(t + 2, {.kind = obs::EventKind::kCsEnter, .entity = mh, .detail = "L2"});
    stream.emit(t + 3, {.kind = obs::EventKind::kCsExit, .entity = mh, .detail = "L2"});
  }
  ASSERT_EQ(stream.retained(), obs::EventStream::kDefaultCapacity);
  ASSERT_GT(stream.dropped(), 0u);

  std::vector<obs::CheckFailure> failures;
  const auto count = allocations_during([&] { failures = obs::check_all(stream); });
  EXPECT_TRUE(failures.empty()) << obs::to_string(failures.front());
  EXPECT_LT(count, 1000u) << "checking a full ring allocated per event";
}

/// Echo host that pings again on every echo until its budget is spent.
class RepeatingEchoHost : public net::MhAgent {
 public:
  explicit RepeatingEchoHost(std::uint64_t pings) : left_(pings) {}
  void on_message(const net::Envelope&) override {
    if (--left_ > 0) ping();
  }
  void ping() { send_uplink(std::uint64_t{7}); }

 private:
  std::uint64_t left_;
};

// The same claim through the sharded engine's path: a 2-shard echo run
// whose rings are both full, visited through Network::for_each_event (the
// canonical merge read from the rings in place) into the checker, as
// exp::run_scenario does. The merged_events() copy plus check_all made
// 1 779 950 allocations on echo_100k_s2.
TEST(TraceCheckerAlloc, ShardedEchoRunChecksInPlaceInFewAllocations) {
  net::NetConfig cfg;
  cfg.num_mss = 4;
  cfg.num_mh = 256;
  cfg.shards = 2;
  net::Network net(cfg);
  std::vector<EchoStation> stations(cfg.num_mss);
  for (std::uint32_t s = 0; s < cfg.num_mss; ++s) {
    net.mss(static_cast<net::MssId>(s))
        .register_agent(net::protocol::kUserBase, &stations[s]);
  }
  std::vector<RepeatingEchoHost> hosts(cfg.num_mh, RepeatingEchoHost(700));
  for (std::uint32_t h = 0; h < cfg.num_mh; ++h) {
    auto* host = &hosts[h];
    net.mh(static_cast<net::MhId>(h)).register_agent(net::protocol::kUserBase, host);
    net.schedule_on_lane(net.lane_of(obs::Entity::mh(h)), 1 + h % 7,
                         [host] { host->ping(); });
  }
  net.run();
  ASSERT_EQ(net.events_emitted() - net.events_dropped(),
            2 * obs::EventStream::kDefaultCapacity)
      << "both shards' rings must be full";

  std::vector<obs::CheckFailure> failures;
  const auto count = allocations_during([&] {
    obs::TraceChecker checker;
    checker.reserve(net.events_emitted() - net.events_dropped());
    net.for_each_event([&checker](const obs::Event& ev) { checker.feed(ev); });
    failures = checker.finish();
  });
  EXPECT_TRUE(failures.empty()) << obs::to_string(failures.front());
  EXPECT_LT(count, 1000u) << "checking a sharded run allocated per event";
}

}  // namespace
}  // namespace mobidist::test
