// Tests for the discrete-event kernel: scheduler ordering/cancellation,
// RNG determinism and distribution sanity, and the shard-window protocol.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plane.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace mobidist::sim {
namespace {

// --------------------------------------------------------------------------
// Scheduler
// --------------------------------------------------------------------------

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0u);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, FiresEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(30, [&] { order.push_back(3); });
  sched.schedule(10, [&] { order.push_back(1); });
  sched.schedule(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, SameInstantEventsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sched.schedule(5, [&order, i] { order.push_back(i); });
  }
  sched.run();
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, AdvancesVirtualTimeToEventTimestamp) {
  Scheduler sched;
  SimTime seen = 0;
  sched.schedule(42, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Scheduler, NestedSchedulingFromCallback) {
  Scheduler sched;
  std::vector<SimTime> at;
  sched.schedule(10, [&] {
    at.push_back(sched.now());
    sched.schedule(5, [&] { at.push_back(sched.now()); });
  });
  sched.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 10u);
  EXPECT_EQ(at[1], 15u);
}

TEST(Scheduler, ZeroDelayFiresAtCurrentInstantAfterQueuedPeers) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(10, [&] {
    order.push_back(1);
    sched.schedule(0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 10u);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  bool fired = false;
  auto handle = sched.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(sched.cancel(handle));
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  auto handle = sched.schedule(10, [] {});
  EXPECT_TRUE(sched.cancel(handle));
  EXPECT_FALSE(sched.cancel(handle));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  auto handle = sched.schedule(10, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(handle));
}

TEST(Scheduler, CancelInvalidHandleReturnsFalse) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventHandle{}));
  EXPECT_FALSE(sched.cancel(EventHandle{9999}));
}

TEST(Scheduler, PendingTracksLiveEvents) {
  Scheduler sched;
  auto a = sched.schedule(10, [] {});
  sched.schedule(20, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler sched;
  std::vector<int> fired;
  sched.schedule(10, [&] { fired.push_back(1); });
  sched.schedule(20, [&] { fired.push_back(2); });
  sched.schedule(30, [&] { fired.push_back(3); });
  const auto n = sched.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 20u);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler sched;
  sched.run_until(100);
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Scheduler, RunUntilHonoursEventsScheduledMidFlight) {
  Scheduler sched;
  std::vector<SimTime> at;
  sched.schedule(10, [&] {
    at.push_back(sched.now());
    sched.schedule(5, [&] { at.push_back(sched.now()); });   // 15: inside horizon
    sched.schedule(50, [&] { at.push_back(sched.now()); });  // 60: outside
  });
  sched.run_until(20);
  EXPECT_EQ(at, (std::vector<SimTime>{10, 15}));
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, SchedulingInPastThrows) {
  Scheduler sched;
  sched.schedule(10, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Scheduler, NullCallbackThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule(1, Scheduler::Callback{}), std::invalid_argument);
}

TEST(Scheduler, EventLimitStopsRunawayRun) {
  Scheduler sched;
  std::function<void()> self_feeding = [&] { sched.schedule(1, self_feeding); };
  sched.schedule(1, self_feeding);
  sched.set_event_limit(1000);
  sched.run();
  EXPECT_TRUE(sched.hit_event_limit());
  EXPECT_EQ(sched.fired(), 1000u);
}

TEST(Scheduler, CancelledEventBetweenLiveOnesDoesNotDisturbOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(10, [&] { order.push_back(1); });
  auto mid = sched.schedule(20, [&] { order.push_back(99); });
  sched.schedule(30, [&] { order.push_back(3); });
  sched.cancel(mid);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::array<int, kBuckets> hist{};
  for (int i = 0; i < kDraws; ++i) ++hist[rng.below(kBuckets)];
  for (int count : hist) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.02);
}

TEST(Rng, ZipfFavoursLowRanks) {
  Rng rng(17);
  const ZipfTable zipf(8, 1.0);
  std::array<int, 8> hist{};
  for (int i = 0; i < 40000; ++i) ++hist[zipf.draw(rng)];
  EXPECT_GT(hist[0], hist[3]);
  EXPECT_GT(hist[3], hist[7]);
}

TEST(Rng, ZipfSingletonIsZero) {
  Rng rng(17);
  const ZipfTable zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.draw(rng), 0u);
  EXPECT_EQ(rng.next(), Rng(17).next()) << "a one-rank draw consumed randomness";
}

// The table must reproduce the per-draw formula it replaced bit for bit:
// mobility traces and generated scenarios depend on every Zipf draw.
TEST(Rng, ZipfTableMatchesThePerDrawFormula) {
  // The replaced formula, which recomputed both weight sums per draw.
  const auto reference = [](Rng& rng, std::uint64_t n, double s) -> std::uint64_t {
    if (n == 1) return 0;
    double total = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    double target = rng.uniform01() * total;
    for (std::uint64_t r = 0; r < n; ++r) {
      target -= 1.0 / std::pow(static_cast<double>(r + 1), s);
      if (target <= 0.0) return r;
    }
    return n - 1;
  };
  struct Case {
    std::uint64_t n;
    double s;
  };
  for (const auto& [n, s] : {Case{1, 1.2}, Case{2, 1.0}, Case{8, 1.0}, Case{66, 1.2},
                             Case{64, 0.5}, Case{257, 2.0}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfTable table(n, s);
    Rng by_table(n * 31 + 7);
    Rng by_formula(n * 31 + 7);
    for (int i = 0; i < 5000; ++i) ASSERT_EQ(table.draw(by_table), reference(by_formula, n, s));
    EXPECT_EQ(by_table.next(), by_formula.next()) << "draw counts diverged";
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child_a = parent.split();
  Rng child_b = parent.split();
  // Children of the same parent differ from each other and the parent.
  EXPECT_NE(child_a.next(), child_b.next());
}

TEST(Rng, FaultPlaneDrawsNeverPerturbTheNetworkStream) {
  // Regression guard for the shared-stream bug class: the broadcast
  // retry jitter in net::Network draws from the network's rng_, so the
  // fault plane must source every probabilistic decision from its own
  // salted stream — note it is seeded directly, NOT via rng.split(),
  // which would advance the parent and shift every later network draw.
  Rng reference(777);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(reference.next());

  fault::FaultProfile profile;
  profile.wireless_loss = 0.5;
  profile.wireless_dup = 0.25;
  profile.wireless_reorder = 0.5;
  profile.wired_spike = 0.5;
  fault::FaultPlane plane(fault::fault_stream_seed(777), profile);
  Rng observed(777);
  std::vector<std::uint64_t> got;
  for (int i = 0; i < 16; ++i) {
    got.push_back(observed.next());
    (void)plane.draw_wireless_loss();
    (void)plane.draw_wireless_dup();
    (void)plane.draw_wireless_spike();
    (void)plane.draw_wired_spike();
    (void)plane.draw_latency(0, 100);
  }
  EXPECT_EQ(got, expect);
  // The salted fault seed also never collides with the raw network seed.
  EXPECT_NE(fault::fault_stream_seed(777), 777u);
}

// --------------------------------------------------------------------------
// ShardGroup: the conservative-window protocol
// --------------------------------------------------------------------------

TEST(SchedulerNextTime, EmptyQueueHasNoNextTime) {
  Scheduler sched;
  EXPECT_FALSE(sched.next_time().has_value());
}

TEST(SchedulerNextTime, ReportsEarliestPendingTimestamp) {
  Scheduler sched;
  sched.schedule(30, [] {});
  sched.schedule(10, [] {});
  ASSERT_TRUE(sched.next_time().has_value());
  EXPECT_EQ(*sched.next_time(), 10u);
  sched.run();
  EXPECT_FALSE(sched.next_time().has_value());
}

TEST(ShardGroup, SingleShardRunsInlineAndInvokesOnWorker) {
  Scheduler sched;
  std::vector<SimTime> fired_at;
  sched.schedule(5, [&] { fired_at.push_back(sched.now()); });
  sched.schedule(9, [&] { fired_at.push_back(sched.now()); });
  std::vector<std::uint32_t> workers;
  ShardGroup group({&sched}, 2, [&](std::uint32_t shard) { workers.push_back(shard); });
  EXPECT_EQ(group.run(), 2u);
  EXPECT_EQ(fired_at, (std::vector<SimTime>{5, 9}));
  EXPECT_EQ(workers, (std::vector<std::uint32_t>{0}));
  EXPECT_GE(group.windows(), 1u);
}

TEST(ShardGroup, MailExecutesOnDestinationAtArrivalTime) {
  Scheduler a;
  Scheduler b;
  ShardGroup group({&a, &b}, 3);
  SimTime delivered_at = 0;
  a.schedule(4, [&] {
    group.post(0, ShardGroup::Mail{a.now() + 3, 1, 0, 1,
                                   SmallFn([&] { delivered_at = b.now(); })});
  });
  group.run();
  EXPECT_EQ(delivered_at, 7u);
}

TEST(ShardGroup, CrossShardChainAdvancesThroughManyWindows) {
  // A two-shard ping-pong: each hop is exactly one lookahead ahead, so
  // every hop needs its own conservative window.
  Scheduler a;
  Scheduler b;
  ShardGroup group({&a, &b}, 1);
  Scheduler* scheds[2] = {&a, &b};
  constexpr int kHops = 32;
  int hops = 0;
  std::function<void(int)> hop = [&](int i) {
    ++hops;
    if (i >= kHops) return;
    const std::uint32_t src = static_cast<std::uint32_t>(i % 2);
    const std::uint32_t dst = 1 - src;
    group.post(src, ShardGroup::Mail{scheds[src]->now() + 1, dst, src,
                                     static_cast<std::uint64_t>(i),
                                     SmallFn([&hop, i] { hop(i + 1); })});
  };
  a.schedule(1, [&] { hop(0); });
  group.run();
  EXPECT_EQ(hops, kHops + 1);
  EXPECT_GE(group.windows(), static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(group.lookahead(), 1u);
}

TEST(ShardGroup, EventLimitStopsAtWindowGranularity) {
  Scheduler a;
  Scheduler b;
  for (SimTime t = 1; t <= 100; ++t) {
    a.schedule(t, [] {});
    b.schedule(t, [] {});
  }
  ShardGroup group({&a, &b}, 1);
  const auto fired = group.run(/*event_limit=*/10);
  EXPECT_TRUE(group.hit_event_limit());
  EXPECT_GE(fired, 10u);
  EXPECT_LT(fired, 200u);
}

// The protocol's two load-bearing properties, checked over randomized
// topologies x 32 seeds:
//
//   1. Conservative safety: a shard never executes an event while a
//      lower-timestamp cross-shard event for it is deliverable — every
//      mail fn runs on its destination exactly at its arrival time, and
//      each lane's observed execution times are nondecreasing.
//   2. Grouping invariance: the per-lane execution log (time, tag,
//      local rng draw) is identical whether the lanes are grouped onto
//      1, 2, or 4 shards.
//
// Each lane appends only to its own log (its shard's thread), so the
// logs need no locking and the comparison happens after run().
namespace shard_property {

struct LogEntry {
  SimTime at = 0;
  std::uint64_t tag = 0;
  std::uint64_t draw = 0;
  bool operator==(const LogEntry&) const = default;
};

struct Harness {
  static constexpr std::uint32_t kLanes = 8;
  static constexpr Duration kLookahead = 2;

  explicit Harness(std::uint64_t seed, std::uint32_t shard_count)
      : shard_count_(shard_count) {
    scheds_.resize(shard_count);
    for (auto& s : scheds_) s = std::make_unique<Scheduler>();
    std::vector<Scheduler*> raw;
    for (auto& s : scheds_) raw.push_back(s.get());
    group_ = std::make_unique<ShardGroup>(std::move(raw), kLookahead);
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      rngs_.emplace_back(seed + 0x9e3779b97f4a7c15ULL * (lane + 1));
      logs_.emplace_back();
      mail_seq_.push_back(0);
    }
    // Seed each lane with one initial event; fuel bounds the run.
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      sched_of(lane).schedule_at(1 + lane % 3,
                                 [this, lane] { step(lane, /*fuel=*/12); });
    }
  }

  Scheduler& sched_of(std::uint32_t lane) { return *scheds_[lane % shard_count_]; }

  /// One lane event: log (now, tag, rng draw), then either schedule a
  /// local follow-up or post cross-lane mail one lookahead (plus jitter)
  /// ahead — the same decision sequence for every shard count because
  /// it consumes only the lane's own rng.
  void step(std::uint32_t lane, int fuel) {
    auto& sched = sched_of(lane);
    const std::uint64_t draw = rngs_[lane].next();
    logs_[lane].push_back({sched.now(), static_cast<std::uint64_t>(fuel), draw});
    if (fuel <= 0) return;
    const auto jitter = static_cast<Duration>(draw % 4);
    if (draw % 3 == 0) {
      const auto target = static_cast<std::uint32_t>((draw >> 8) % kLanes);
      const SimTime at = sched.now() + kLookahead + jitter;
      group_->post(lane % shard_count_,
                   ShardGroup::Mail{at, target % shard_count_, lane, ++mail_seq_[lane],
                                    SmallFn([this, target, fuel, at] {
                                      EXPECT_EQ(sched_of(target).now(), at);
                                      step(target, fuel - 1);
                                    })});
    } else {
      sched.schedule(1 + jitter, [this, lane, fuel] { step(lane, fuel - 1); });
    }
  }

  std::vector<std::vector<LogEntry>> run() {
    group_->run();
    for (const auto& log : logs_) {
      for (std::size_t i = 1; i < log.size(); ++i) {
        EXPECT_LE(log[i - 1].at, log[i].at) << "lane execution went backwards";
      }
    }
    return logs_;
  }

  std::uint32_t shard_count_;
  std::vector<std::unique_ptr<Scheduler>> scheds_;
  std::unique_ptr<ShardGroup> group_;
  std::vector<Rng> rngs_;
  std::vector<std::vector<LogEntry>> logs_;
  std::vector<std::uint64_t> mail_seq_;
};

}  // namespace shard_property

TEST(ShardGroupProperty, PerLaneExecutionIdenticalForEveryShardCount) {
  using shard_property::Harness;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto base = Harness(seed, 1).run();
    std::size_t events = 0;
    for (const auto& log : base) events += log.size();
    ASSERT_GT(events, Harness::kLanes);  // the workload actually ran
    EXPECT_EQ(Harness(seed, 2).run(), base);
    EXPECT_EQ(Harness(seed, 4).run(), base);
    if (::testing::Test::HasFailure()) return;  // one seed's diff is enough
  }
}

}  // namespace
}  // namespace mobidist::sim
