// Heap-allocation accounting for the simulation hot path. This suite
// lives in its own binary because it replaces the global operator new /
// delete with counting wrappers; the counters let tests assert that the
// scheduler's schedule -> fire cycle, Body's small-buffer payloads, a
// Network message round trip and Lamport's request queue perform no heap
// traffic at steady state.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mutex/lamport_engine.hpp"
#include "net/agent.hpp"
#include "net/body.hpp"
#include "net/network.hpp"
#include "obs/events.hpp"
#include "sim/scheduler.hpp"

namespace {

std::uint64_t g_news = 0;  // single-threaded tests: plain counter is enough

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

// The tentpole claim: once the slot pool and heap array have grown to
// the working set (one warm-up round), scheduling and firing events
// whose captures fit SmallFn's inline buffer is allocation-free.
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

  one_round(1);  // warm-up: grows slots_ / heap_ to the working set
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
  for (std::uint32_t s = 0; s < cfg.num_mss; ++s) {
    net.mss(static_cast<net::MssId>(s))
        .register_agent(net::protocol::kUserBase, std::make_shared<EchoStation>());
  }
  std::vector<std::shared_ptr<EchoHost>> hosts;
  for (std::uint32_t h = 0; h < cfg.num_mh; ++h) {
    hosts.push_back(std::make_shared<EchoHost>());
    net.mh(static_cast<net::MhId>(h)).register_agent(net::protocol::kUserBase, hosts.back());
  }
  auto one_round = [&] {
    for (auto& host : hosts) host->ping();
    net.run();
  };

  net.start();
  one_round();  // warm-up: ledger slots, scheduler slots, event counters
  const auto count = allocations_during([&] {
    for (int round = 0; round < 100; ++round) one_round();
  });
  EXPECT_EQ(count, 0u) << "Network echo round trip allocated";
  for (const auto& host : hosts) EXPECT_EQ(host->echoes, 101u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 2u * 64u * 101u);
}

}  // namespace
}  // namespace mobidist::test
