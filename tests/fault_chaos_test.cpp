// Randomized chaos suite: the mutual-exclusion algorithms must stay
// safe AND live under the fault plane. Each test sweeps 64 seeds of one
// {algorithm} x {fault profile} cell with a fixed request/mobility
// workload and asserts that every requested CS execution is eventually
// granted, the monitor saw no exclusion violation, and every trace
// checker (including the fault-delivery checker) passes.
//
// The 64 seeds run concurrently on the exp::ParallelRunner (each seed is
// an isolated Network instance); all assertions happen on the main
// thread over the harvested RunResults, so gtest state is never touched
// from a worker.
//
// These are the slowest tests in the repo and carry the `chaos` ctest
// label so they can be selected (-L chaos) or skipped (-LE chaos).

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "exp/exp.hpp"
#include "fault/fault_plane.hpp"

namespace mobidist::test {
namespace {

constexpr std::uint32_t kM = 3;
constexpr std::uint32_t kN = 6;
constexpr int kRequests = 8;
constexpr std::uint64_t kSeeds = 64;
constexpr std::uint64_t kSeedBase = 1000;

enum class Algo : std::uint8_t { kL2, kR2, kR2Prime, kR2DoublePrime, kPathRev };

/// 5% loss + 2% duplication on every wireless frame.
fault::FaultProfile loss_profile() {
  fault::FaultProfile profile;
  profile.wireless_loss = 0.05;
  profile.wireless_dup = 0.02;
  return profile;
}

/// One mid-run MSS crash; its cell's hosts evacuate through the normal
/// leave/join/handoff path.
fault::FaultProfile crash_profile() {
  fault::FaultProfile profile;
  profile.crashes.push_back({1, 120, 80});
  return profile;
}

/// The ISSUE acceptance profile: loss + duplication + delay spikes plus
/// the mid-run crash, all at once.
fault::FaultProfile combined_profile() {
  fault::FaultProfile profile = loss_profile();
  profile.wireless_reorder = 0.03;
  profile.crashes.push_back({1, 120, 80});
  return profile;
}

/// The chaos workload, expressed as a ScenarioSpec for the exp runner.
/// Requests, token fuel, and the three guarded background moves
/// (`chaos_moves`) reproduce the original hand-rolled schedule exactly.
exp::ScenarioSpec chaos_spec(Algo algo, const fault::FaultProfile& profile) {
  exp::ScenarioSpec spec;
  spec.name = "fault_chaos";
  spec.net.num_mss = kM;  // default randomized latencies + oracle search
  spec.net.num_mh = kN;
  spec.fault = profile;
  spec.params["requests"] = kRequests;
  spec.params["request_start"] = 5;
  spec.params["request_gap"] = 40;
  spec.params["chaos_moves"] = 3;
  if (algo == Algo::kL2) {
    spec.workload = "mutex";
    spec.variant = "l2";
  } else if (algo == Algo::kPathRev) {
    // The path-reversal tree needs no token fuel: the token parks at
    // the last server until the next claim. Requests queued at the
    // crashed MSS must re-home with their evacuating hosts.
    spec.workload = "mutex";
    spec.variant = "pathrev";
  } else {
    spec.workload = "ring";
    spec.variant = algo == Algo::kR2        ? "r2"
                   : algo == Algo::kR2Prime ? "r2p"
                                            : "r2pp";
    // Enough traversal fuel that the token outlives the whole request
    // schedule; never absorb-when-idle (an idle window can race an
    // in-flight retransmitted request).
    spec.params["token_at"] = 1;
    spec.params["traversals"] = 60;
  }
  return spec;
}

double metric_or_zero(const exp::RunResult& run, std::string_view name) {
  const auto it = run.metrics.find(name);
  return it == run.metrics.end() ? 0.0 : it->second;
}

void sweep(Algo algo, const fault::FaultProfile& profile) {
  exp::SweepGrid grid;
  for (std::uint64_t i = 0; i < kSeeds; ++i) grid.seeds.push_back(kSeedBase + i);
  const auto plans = grid.expand(chaos_spec(algo, profile));
  const exp::ParallelRunner runner;  // hardware concurrency
  const auto results = runner.run(plans);

  double losses = 0, dups = 0, crashes = 0;
  for (const auto& result : results) {
    SCOPED_TRACE("seed=" + std::to_string(result.seed));
    // ok covers every obs trace checker (including fault delivery).
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(metric_or_zero(result, "sched.hit_event_limit"), 0.0);
    EXPECT_EQ(metric_or_zero(result, "workload.violations"), 0.0);
    EXPECT_EQ(metric_or_zero(result, "workload.grants"), static_cast<double>(kRequests));
    EXPECT_EQ(metric_or_zero(result, "workload.completed"), static_cast<double>(kRequests));
    if (algo == Algo::kL2) {
      EXPECT_EQ(metric_or_zero(result, "workload.aborted"), 0.0);
    }
    losses += metric_or_zero(result, "fault.injected_loss");
    dups += metric_or_zero(result, "fault.injected_dup");
    crashes += metric_or_zero(result, "events.mss_crash");
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
      return;  // one seed's diagnosis is enough; don't spam 63 more
    }
  }
  // The sweep must have actually hurt: a silently inert plane would make
  // every liveness assertion above vacuous.
  if (profile.wireless_loss > 0.0) {
    EXPECT_GT(losses, 0.0);
  }
  if (profile.wireless_dup > 0.0) {
    EXPECT_GT(dups, 0.0);
  }
  EXPECT_EQ(crashes, static_cast<double>(profile.crashes.size() * kSeeds));
}

// Sharded-engine chaos: 64 seeds of the scale workload on the sharded
// core at shards=4, each run's merged trace validated by every checker
// (result.ok), and each seed's metrics pinned equal to its shards=1 run
// — the shard-count-independence guarantee under seed diversity. Under
// `run_sanitized.sh --tsan` this is the suite that drives the window
// barriers, the cross-shard mailbox, and the per-slice telemetry from
// real worker threads.
TEST(ChaosSharded, ScaleAtFourShardsMatchesOneShardAcross64Seeds) {
  exp::ScenarioSpec spec;
  spec.name = "shard_chaos";
  spec.workload = "scale";
  spec.variant = "echo";
  spec.net.num_mss = 8;  // default randomized latencies
  spec.net.num_mh = 32;
  spec.params["pings"] = 25;
  spec.params["gap"] = 7;

  exp::SweepGrid grid;
  for (std::uint64_t i = 0; i < kSeeds; ++i) grid.seeds.push_back(kSeedBase + i);
  spec.net.shards = 1;
  const auto base = exp::ParallelRunner().run(grid.expand(spec));
  spec.net.shards = 4;
  const auto sharded = exp::ParallelRunner().run(grid.expand(spec));

  ASSERT_EQ(base.size(), kSeeds);
  ASSERT_EQ(sharded.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    SCOPED_TRACE("seed=" + std::to_string(sharded[i].seed));
    // ok covers every obs trace checker, run over the merged stream.
    ASSERT_TRUE(base[i].ok) << base[i].error;
    ASSERT_TRUE(sharded[i].ok) << sharded[i].error;
    EXPECT_EQ(metric_or_zero(sharded[i], "sched.hit_event_limit"), 0.0);
    EXPECT_GT(metric_or_zero(sharded[i], "events.emitted"), 0.0);
    EXPECT_EQ(sharded[i].metrics, base[i].metrics);
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
      return;  // one seed's diagnosis is enough; don't spam 63 more
    }
  }
}

TEST(ChaosL2, SurvivesWirelessLoss) { sweep(Algo::kL2, loss_profile()); }
TEST(ChaosL2, SurvivesMssCrash) { sweep(Algo::kL2, crash_profile()); }
TEST(ChaosL2, SurvivesCombinedProfile) { sweep(Algo::kL2, combined_profile()); }

TEST(ChaosR2, SurvivesWirelessLoss) { sweep(Algo::kR2, loss_profile()); }
TEST(ChaosR2, SurvivesMssCrash) { sweep(Algo::kR2, crash_profile()); }
TEST(ChaosR2, SurvivesCombinedProfile) { sweep(Algo::kR2, combined_profile()); }

TEST(ChaosR2Prime, SurvivesWirelessLoss) { sweep(Algo::kR2Prime, loss_profile()); }
TEST(ChaosR2Prime, SurvivesMssCrash) { sweep(Algo::kR2Prime, crash_profile()); }
TEST(ChaosR2Prime, SurvivesCombinedProfile) { sweep(Algo::kR2Prime, combined_profile()); }

TEST(ChaosR2DoublePrime, SurvivesWirelessLoss) { sweep(Algo::kR2DoublePrime, loss_profile()); }
TEST(ChaosR2DoublePrime, SurvivesMssCrash) { sweep(Algo::kR2DoublePrime, crash_profile()); }
TEST(ChaosR2DoublePrime, SurvivesCombinedProfile) {
  sweep(Algo::kR2DoublePrime, combined_profile());
}

TEST(ChaosPathRev, SurvivesWirelessLoss) { sweep(Algo::kPathRev, loss_profile()); }
TEST(ChaosPathRev, SurvivesMssCrash) { sweep(Algo::kPathRev, crash_profile()); }
TEST(ChaosPathRev, SurvivesCombinedProfile) { sweep(Algo::kPathRev, combined_profile()); }

}  // namespace
}  // namespace mobidist::test
