// src/exp unit + integration tests: scenario round-trips, grid
// expansion, deterministic seed derivation, thread-count-independent
// parallel execution, statistical aggregation, and the baseline
// regression gate (pass AND deliberate fail). The parallel suites carry
// the `sweep` ctest label so the TSan preset can select them.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/formulas.hpp"
#include "exp/exp.hpp"

namespace mobidist::test {
namespace {

using exp::MetricSummary;
using exp::ParallelRunner;
using exp::RunPlan;
using exp::ScenarioSpec;
using exp::SweepAxis;
using exp::SweepGrid;
using exp::SweepReport;

ScenarioSpec small_mutex_spec() {
  ScenarioSpec spec;
  spec.name = "exp_test";
  spec.workload = "mutex";
  spec.variant = "l2";
  spec.net.num_mss = 3;
  spec.net.num_mh = 6;
  spec.net.seed = 42;
  spec.params["requests"] = 4;
  spec.params["request_start"] = 1;
  spec.params["request_gap"] = 5;
  return spec;
}

// --- scenario specs --------------------------------------------------------

TEST(ExpScenario, ParsesEverySection) {
  const auto spec = exp::parse_scenario(R"({
    "name": "t", "workload": "ring", "variant": "r2p",
    "topology": {"num_mss": 4, "num_mh": 8, "seed": 9, "search": "broadcast"},
    "latency": {"wired": 5, "wireless_min": 1, "wireless_max": 3},
    "cost": {"c_search": 7.5},
    "fault": {"wireless_loss": 0.05, "crashes": [{"mss": 1, "at": 120, "down_for": 80}]},
    "mobility": {"enabled": 1, "mean_pause": 25},
    "params": {"requests": 6}
  })");
  EXPECT_EQ(spec.workload, "ring");
  EXPECT_EQ(spec.variant, "r2p");
  EXPECT_EQ(spec.net.num_mss, 4u);
  EXPECT_EQ(spec.net.num_mh, 8u);
  EXPECT_EQ(spec.net.seed, 9u);
  EXPECT_EQ(spec.net.search, net::SearchMode::kBroadcast);
  EXPECT_EQ(spec.net.latency.wired_min, 5u);
  EXPECT_EQ(spec.net.latency.wired_max, 5u);
  EXPECT_EQ(spec.net.latency.wireless_max, 3u);
  EXPECT_DOUBLE_EQ(spec.cost.c_search, 7.5);
  EXPECT_DOUBLE_EQ(spec.fault.wireless_loss, 0.05);
  ASSERT_EQ(spec.fault.crashes.size(), 1u);
  EXPECT_EQ(spec.fault.crashes[0].at, 120u);
  EXPECT_TRUE(spec.mobility);
  EXPECT_DOUBLE_EQ(spec.mob.mean_pause, 25.0);
  EXPECT_DOUBLE_EQ(spec.param("requests", 0), 6.0);
}

TEST(ExpScenario, JsonRoundTripIsStable) {
  auto spec = small_mutex_spec();
  spec.fault.wireless_loss = 0.1;
  spec.mobility = true;
  const auto text = exp::to_json(spec);
  const auto reparsed = exp::parse_scenario(text);
  EXPECT_EQ(exp::to_json(reparsed), text);
}

TEST(ExpScenario, MobilityBlockOfADisabledModelRoundTrips) {
  // mobility_group.json leaves "enabled" out: its model does not move
  // every host in the background, but it still moves the group's members.
  std::ifstream in(std::string(MOBIDIST_SCENARIO_DIR) + "/mobility_group.json");
  ASSERT_TRUE(in);
  std::stringstream file;
  file << in.rdbuf();
  const auto spec = exp::parse_scenario(file.str());
  ASSERT_FALSE(spec.mobility);
  ASSERT_NE(spec.mob.pattern, mobility::MobilityConfig{}.pattern);
  const auto text = exp::to_json(spec);
  EXPECT_NE(text.find("\"mobility\":{\"enabled\":false,"), std::string::npos) << text;
  const auto reparsed = exp::parse_scenario(text);
  EXPECT_EQ(exp::to_json(reparsed), text);
  EXPECT_FALSE(reparsed.mobility);
  EXPECT_EQ(reparsed.mob.pattern, spec.mob.pattern);
  EXPECT_EQ(reparsed.mob.regions, spec.mob.regions);
  EXPECT_EQ(reparsed.mob.max_moves_per_host, spec.mob.max_moves_per_host);
  EXPECT_EQ(reparsed.mob.phase_period, spec.mob.phase_period);
  EXPECT_DOUBLE_EQ(reparsed.mob.mean_pause, spec.mob.mean_pause);
  EXPECT_DOUBLE_EQ(reparsed.mob.mean_transit, spec.mob.mean_transit);
  // A disabled model left at its defaults says nothing: no block.
  EXPECT_EQ(exp::to_json(small_mutex_spec()).find("\"mobility\""), std::string::npos);
}

TEST(ExpScenario, EveryFaultFieldRoundTrips) {
  auto spec = small_mutex_spec();
  auto& f = spec.fault;
  f.wireless_loss = 0.1;
  f.wireless_dup = 0.05;
  f.wireless_reorder = 0.02;
  f.wireless_spike_max = 9;
  f.wired_spike = 0.25;
  f.wired_spike_max = 17;
  f.crashes.push_back(fault::MssCrash{1, 120, 80});
  f.partitions.push_back(fault::CellPartition{0, 2, 50, 90});
  f.evacuate_on_crash = false;
  f.drop_first_wireless = 3;
  f.dup_first_wireless = 2;
  f.rto_base = 64;
  f.rto_cap = 512;
  const auto text = exp::to_json(spec);
  const auto reparsed = exp::parse_scenario(text);
  EXPECT_EQ(exp::to_json(reparsed), text);
  const auto& r = reparsed.fault;
  EXPECT_DOUBLE_EQ(r.wireless_loss, 0.1);
  EXPECT_DOUBLE_EQ(r.wireless_dup, 0.05);
  EXPECT_DOUBLE_EQ(r.wireless_reorder, 0.02);
  EXPECT_EQ(r.wireless_spike_max, 9u);
  EXPECT_DOUBLE_EQ(r.wired_spike, 0.25);
  EXPECT_EQ(r.wired_spike_max, 17u);
  ASSERT_EQ(r.crashes.size(), 1u);
  EXPECT_EQ(r.crashes[0].mss, 1u);
  EXPECT_EQ(r.crashes[0].at, 120u);
  EXPECT_EQ(r.crashes[0].down_for, 80u);
  ASSERT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0].b, 2u);
  EXPECT_EQ(r.partitions[0].until, 90u);
  EXPECT_FALSE(r.evacuate_on_crash);
  EXPECT_EQ(r.drop_first_wireless, 3u);
  EXPECT_EQ(r.dup_first_wireless, 2u);
  EXPECT_EQ(r.rto_base, 64u);
  EXPECT_EQ(r.rto_cap, 512u);

  // Default-valued extras emit nothing, keeping existing scenario
  // renderings byte-stable.
  auto plain = small_mutex_spec();
  plain.fault.wireless_loss = 0.1;
  const auto plain_text = exp::to_json(plain);
  for (const char* key : {"spike_max", "evacuate_on_crash", "first_wireless", "rto_"}) {
    EXPECT_EQ(plain_text.find(key), std::string::npos) << key;
  }
}

TEST(ExpScenario, FormationSectionRoundTrips) {
  const auto spec = exp::parse_scenario(R"({
    "name": "t", "workload": "mutex", "variant": "l2",
    "formation": {"flush_deadline": 16, "max_packet_msgs": 8, "max_packet_bytes": 2048}
  })");
  EXPECT_EQ(spec.net.formation.flush_deadline, 16u);
  EXPECT_EQ(spec.net.formation.max_packet_msgs, 8u);
  EXPECT_EQ(spec.net.formation.max_packet_bytes, 2048u);
  EXPECT_FALSE(spec.net.formation.passthrough());
  const auto text = exp::to_json(spec);
  const auto reparsed = exp::parse_scenario(text);
  EXPECT_EQ(exp::to_json(reparsed), text);

  // A passthrough config emits no formation section at all, keeping
  // pre-formation scenario files byte-stable.
  auto plain = small_mutex_spec();
  EXPECT_TRUE(plain.net.formation.passthrough());
  EXPECT_EQ(exp::to_json(plain).find("formation"), std::string::npos);
}

TEST(ExpScenario, MobilityModelSectionRoundTrips) {
  const auto spec = exp::parse_scenario(R"({
    "name": "t", "workload": "group_mobility", "variant": "location_view",
    "topology": {"num_mss": 8, "num_mh": 16},
    "mobility": {"enabled": 1, "pattern": "commuter", "regions": 8,
                 "phase_period": 400, "day_fraction": 0.25,
                 "crowd_fraction": 0.5, "crowd_period": 600, "crowd_dwell": 120,
                 "grid_width": 4}
  })");
  EXPECT_EQ(spec.mob.pattern, mobility::MovePattern::kCommuter);
  EXPECT_EQ(spec.mob.regions, 8u);
  EXPECT_EQ(spec.mob.phase_period, 400u);
  EXPECT_DOUBLE_EQ(spec.mob.day_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.mob.crowd_fraction, 0.5);
  EXPECT_EQ(spec.mob.crowd_period, 600u);
  EXPECT_EQ(spec.mob.crowd_dwell, 120u);
  EXPECT_EQ(spec.mob.grid_width, 4u);
  const auto text = exp::to_json(spec);
  const auto reparsed = exp::parse_scenario(text);
  EXPECT_EQ(exp::to_json(reparsed), text);

  // Default model knobs emit nothing, keeping pre-library scenario
  // renderings byte-stable.
  auto plain = small_mutex_spec();
  plain.mobility = true;
  const auto plain_text = exp::to_json(plain);
  for (const char* key : {"phase_period", "crowd_fraction", "grid_width", "regions"}) {
    EXPECT_EQ(plain_text.find(key), std::string::npos) << key;
  }
}

TEST(ExpScenario, EveryPatternNameRoundTripsThroughJson) {
  for (const auto name : mobility::kMovePatternNames) {
    auto spec = small_mutex_spec();
    spec.mobility = true;
    spec.mob.pattern = *mobility::pattern_from_name(name);
    const auto reparsed = exp::parse_scenario(exp::to_json(spec));
    EXPECT_EQ(reparsed.mob.pattern, spec.mob.pattern) << name;
  }
}

TEST(ExpScenario, UnknownMobilityPatternEnumeratesTheValidNames) {
  try {
    static_cast<void>(exp::parse_scenario(R"({
      "name": "t", "workload": "mutex", "variant": "l2",
      "mobility": {"pattern": "teleport"}
    })"));
    FAIL() << "unknown pattern was accepted";
  } catch (const std::runtime_error& err) {
    const std::string message = err.what();
    EXPECT_NE(message.find("teleport"), std::string::npos) << message;
    // The error must list every pattern the library accepts — pinned so
    // the message can never drift out of sync with kMovePatternNames.
    for (const auto name : mobility::kMovePatternNames) {
      EXPECT_NE(message.find(name), std::string::npos)
          << "missing '" << name << "' in: " << message;
    }
  }
}

TEST(ExpJson, FormatDoubleIsRoundTripExact) {
  // Shortest-round-trip formatting: parsing the text back must yield
  // the exact bits, independent of locale, for awkward values that
  // "%.6f" either truncated (1e-7 -> 0.000000) or bloated.
  for (const double v : {0.1, 1.0 / 3.0, 1e-7, 6.02214076e23, -2.5, 0.0, 1234567.25}) {
    const auto text = exp::json::format_double(v);
    EXPECT_EQ(std::stod(text), v) << text;
    EXPECT_EQ(text.find(','), std::string::npos) << "locale leaked into: " << text;
  }
  // Non-finite values are not valid JSON numbers; they serialize null.
  EXPECT_EQ(exp::json::format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(exp::json::format_double(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(ExpScenario, UnknownFieldThrows) {
  EXPECT_THROW(exp::parse_scenario(R"({"topology": {"num_mhs": 4}})"), std::runtime_error);
  EXPECT_THROW(exp::parse_scenario(R"({"wrokload": "mutex"})"), std::runtime_error);
}

/// The message of the std::runtime_error `fn` throws; "" (and a test
/// failure) when it throws none.
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  ADD_FAILURE() << "no error thrown";
  return "";
}

TEST(ExpScenario, OutOfRangeIntegersAreRejectedNamingTheField) {
  // 2^32 + 2 hosts used to wrap to a 2-host system.
  const auto num_mh = error_of([] {
    (void)exp::parse_scenario(R"({"topology": {"num_mss": 4, "num_mh": 4294967298}})");
  });
  EXPECT_NE(num_mh.find("'topology.num_mh'"), std::string::npos) << num_mh;
  EXPECT_EQ(exp::parse_scenario(R"({"topology": {"num_mh": 4294967295}})").net.num_mh,
            4294967295u);
  // 2^64 as a literal and as an exponent, a negative and a fraction:
  // each used to reach a cast to uint64_t.
  for (const std::string seed : {"18446744073709551616", "1e20", "-1", "2.5"}) {
    const auto message = error_of([&seed] {
      (void)exp::parse_scenario(R"({"topology": {"seed": )" + seed + "}}");
    });
    EXPECT_NE(message.find("'topology.seed'"), std::string::npos) << seed << ": "
                                                                    << message;
  }
}

TEST(ExpScenario, OutOfRangeParamsAreRejectedNamingTheParam) {
  for (const std::string value : {"18446744073709551616", "1e20", "-1", "2.5"}) {
    const auto spec = exp::parse_scenario(R"({"params": {"requests": )" + value + "}}");
    const auto message = error_of([&spec] { (void)spec.param_u64("requests", 0); });
    EXPECT_NE(message.find("'requests'"), std::string::npos) << value << ": " << message;
  }
  // 2^63 is exact as a double and in range.
  const auto in_range =
      exp::parse_scenario(R"({"params": {"requests": 9223372036854775808}})");
  EXPECT_EQ(in_range.param_u64("requests", 0), std::uint64_t{1} << 63);
}

// --- sweep grids -----------------------------------------------------------

TEST(ExpSweep, SeedDerivationIsDeterministicAndDistinct) {
  const auto a = exp::derive_seeds(42, 16);
  const auto b = exp::derive_seeds(42, 16);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
  }
  EXPECT_NE(exp::derive_seeds(43, 1)[0], a[0]);
}

TEST(ExpSweep, ExpansionCrossesAxesWithSeedsInnermost) {
  SweepGrid grid;
  grid.seeds = {7, 8};
  grid.axes.push_back(SweepAxis::strings("variant", {"l1", "l2"}));
  grid.axes.push_back(SweepAxis::numbers("topology.num_mh", {6, 12}));
  const auto plans = grid.expand(small_mutex_spec());
  ASSERT_EQ(plans.size(), 8u);
  // Axes outermost-first, seeds innermost: runs of one cell are adjacent.
  EXPECT_EQ(plans[0].cell, plans[1].cell);
  EXPECT_NE(plans[1].cell, plans[2].cell);
  EXPECT_EQ(plans[0].seed, 7u);
  EXPECT_EQ(plans[1].seed, 8u);
  EXPECT_EQ(plans[0].spec.variant, "l1");
  EXPECT_EQ(plans[0].spec.net.num_mh, 6u);
  EXPECT_EQ(plans[7].spec.variant, "l2");
  EXPECT_EQ(plans[7].spec.net.num_mh, 12u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].index, i);
    EXPECT_EQ(plans[i].spec.net.seed, plans[i].seed);
  }
}

exp::SweepGrid grid_of(const std::string& sweep) {
  const auto doc = exp::json::parse(R"({"sweep": )" + sweep + "}");
  EXPECT_TRUE(doc.has_value()) << sweep;
  return exp::sweep_from_json(doc.value_or(exp::json::Value{}), 1);
}

TEST(ExpSweep, OutOfRangeSeedsAreRejectedNamingTheField) {
  const std::vector<std::string> bad = {"18446744073709551616", "1e20", "-1", "2.5"};
  for (const auto& seed : bad) {
    EXPECT_NE(error_of([&] { (void)grid_of(R"({"seeds": [3, )" + seed + "]}"); })
                  .find("'sweep.seeds'"),
              std::string::npos)
        << seed;
    EXPECT_NE(error_of([&] {
                (void)grid_of(R"({"seeds": {"base": )" + seed + R"(, "count": 2}})");
              }).find("'sweep.seeds.base'"),
              std::string::npos)
        << seed;
    EXPECT_NE(error_of([&] {
                (void)grid_of(R"({"seeds": {"base": 7, "count": )" + seed + "}}");
              }).find("'sweep.seeds.count'"),
              std::string::npos)
        << seed;
  }
}

TEST(ExpSweep, FullRangeSeedsStayExact) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(grid_of(R"({"seeds": [18446744073709551615, 9007199254740993]})").seeds,
            (std::vector<std::uint64_t>{kMax, (std::uint64_t{1} << 53) + 1}));
  EXPECT_EQ(grid_of(R"({"seeds": {"base": 18446744073709551615, "count": 2}})").seeds,
            exp::derive_seeds(kMax, 2));
  const auto spec =
      exp::parse_scenario(R"({"topology": {"seed": 18446744073709551615}})");
  EXPECT_EQ(spec.net.seed, kMax);
  // Through an artifact and back: the baseline gate reads the same seed.
  SweepReport report;
  report.name = "t";
  report.seeds = {kMax};
  const auto artifact = exp::json::parse(report.json());
  ASSERT_TRUE(artifact.has_value());
  EXPECT_TRUE(exp::compare_to_baseline(report, *artifact, 0.01).compatible);
}

TEST(ExpSweep, UnknownAxisKeyThrows) {
  SweepGrid grid;
  grid.seeds = {1};
  grid.axes.push_back(SweepAxis::numbers("topology.num_mhs", {4}));
  EXPECT_THROW((void)grid.expand(small_mutex_spec()), std::runtime_error);
}

// --- parallel runner -------------------------------------------------------

std::vector<RunPlan> smoke_plans() {
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1234, 4);
  grid.axes.push_back(SweepAxis::strings("variant", {"l1", "l2"}));
  return grid.expand(small_mutex_spec());
}

TEST(ExpRunner, ResultsIndependentOfThreadCount) {
  const auto plans = smoke_plans();
  const auto serial = ParallelRunner(1).run(plans);
  const auto parallel = ParallelRunner(4).run(plans);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].cell, parallel[i].cell);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "plan " << i;
  }
  // The aggregated artifact is byte-identical too.
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1234, 4);
  const auto a = exp::aggregate("t", grid, plans, serial);
  const auto b = exp::aggregate("t", grid, plans, parallel);
  EXPECT_EQ(a.deterministic_json(), b.deterministic_json());
}

TEST(ExpRunner, BackToBackRunsAreIsolated) {
  // Same plan executed twice with an unrelated workload in between must
  // produce identical metrics — no state leaks between Network
  // instances or through any process-global.
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.cell = "base";
  plan.seed = plan.spec.net.seed;
  const auto first = exp::run_scenario(plan);
  ASSERT_TRUE(first.ok) << first.error;

  RunPlan other;
  other.spec = small_mutex_spec();
  other.spec.workload = "ring";
  other.spec.variant = "r2";
  other.spec.params.clear();
  other.spec.params["requests"] = 3;
  other.cell = "other";
  other.seed = other.spec.net.seed;
  ASSERT_TRUE(exp::run_scenario(other).ok);

  const auto second = exp::run_scenario(plan);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.metrics, second.metrics);
}

// --- sharded-engine classification -----------------------------------------

ScenarioSpec small_scale_spec() {
  ScenarioSpec spec;
  spec.name = "exp_test_scale";
  spec.workload = "scale";
  spec.variant = "echo";
  spec.net.num_mss = 4;
  spec.net.num_mh = 8;
  spec.net.seed = 42;
  spec.params["pings"] = 6;
  spec.params["gap"] = 5;
  return spec;
}

TEST(ExpRunner, OnlyScaleIsShardSafe) {
  const auto& lib = exp::WorkloadLibrary::builtin();
  EXPECT_TRUE(lib.shard_safe("scale"));
  for (const auto& name : lib.names()) {
    if (name != "scale") {
      EXPECT_FALSE(lib.shard_safe(name)) << name << " marked shard-safe";
    }
  }
  EXPECT_FALSE(lib.shard_safe("no_such_workload"));
}

// A non-shard-safe workload must collapse --shards to the legacy engine:
// metrics identical to a shards=0 run, not an error and not a sharded
// run that would throw on the first move_to().
TEST(ExpRunner, ShardsCollapseToLegacyForUnsafeWorkloads) {
  RunPlan legacy;
  legacy.spec = small_mutex_spec();
  legacy.cell = "base";
  legacy.seed = legacy.spec.net.seed;
  const auto base = exp::run_scenario(legacy);
  ASSERT_TRUE(base.ok) << base.error;

  RunPlan sharded = legacy;
  sharded.spec.net.shards = 4;
  const auto collapsed = exp::run_scenario(sharded);
  ASSERT_TRUE(collapsed.ok) << collapsed.error;
  EXPECT_EQ(collapsed.metrics, base.metrics);
}

// The shard-safe workload really runs sharded — and its metrics are
// the same for every shard count (the per-plan statement of the
// shard_independence gate).
TEST(ExpRunner, ScaleMetricsIdenticalForEveryShardCount) {
  RunPlan plan;
  plan.spec = small_scale_spec();
  plan.cell = "base";
  plan.seed = plan.spec.net.seed;
  plan.spec.net.shards = 1;
  const auto s1 = exp::run_scenario(plan);
  ASSERT_TRUE(s1.ok) << s1.error;
  ASSERT_GT(s1.metrics.at("events.emitted"), 0.0);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    plan.spec.net.shards = shards;
    const auto sn = exp::run_scenario(plan);
    ASSERT_TRUE(sn.ok) << sn.error;
    EXPECT_EQ(sn.metrics, s1.metrics) << "shards=" << shards;
  }
}

TEST(ExpRunner, UnknownWorkloadFailsLoudly) {
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.spec.workload = "no_such_workload";
  plan.cell = "base";
  const auto result = exp::run_scenario(plan);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no_such_workload"), std::string::npos);
}

// --- aggregation -----------------------------------------------------------

TEST(ExpAggregate, SummaryStatistics) {
  const auto s = MetricSummary::of({4, 2, 1, 3, 100});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);   // nearest rank: ceil(0.50 * 5) = 3rd
  EXPECT_DOUBLE_EQ(s.p99, 100.0); // nearest rank: ceil(0.99 * 5) = 5th
  EXPECT_NEAR(s.stddev, 43.6176, 1e-3);  // sample (n-1) stddev

  const auto single = MetricSummary::of({7});
  EXPECT_EQ(single.n, 1u);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_DOUBLE_EQ(single.p99, 7.0);
}

TEST(ExpAggregate, FailedRunsAreExcludedFromStats) {
  SweepGrid grid;
  grid.seeds = {1, 2, 3};
  RunPlan plan;
  plan.spec = small_mutex_spec();
  std::vector<RunPlan> plans;
  std::vector<exp::RunResult> results;
  for (std::uint64_t seed : grid.seeds) {
    plan.cell = "c";
    plan.seed = seed;
    plan.index = plans.size();
    plans.push_back(plan);
    exp::RunResult r;
    r.index = plan.index;
    r.cell = "c";
    r.seed = seed;
    if (seed == 2) {
      r.ok = false;
      r.error = "checker failed";
    } else {
      r.ok = true;
      r.metrics["m"] = static_cast<double>(seed * 10);
    }
    results.push_back(std::move(r));
  }
  const auto report = exp::aggregate("t", grid, plans, results);
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& cell = report.cells[0];
  EXPECT_EQ(cell.failed, 1u);
  EXPECT_EQ(cell.seeds, (std::vector<std::uint64_t>{1, 3}));
  ASSERT_EQ(cell.errors.size(), 1u);
  ASSERT_EQ(cell.metrics.count("m"), 1u);
  EXPECT_DOUBLE_EQ(cell.metrics.at("m").mean, 20.0);
  EXPECT_EQ(cell.metrics.at("m").n, 2u);
}

TEST(ExpAggregate, GitShaPrefersTheEnvironmentVariable) {
  const char* outer = std::getenv("MOBIDIST_GIT_SHA");
  const bool had_outer = outer != nullptr;
  const std::string saved = had_outer ? outer : "";
  ::setenv("MOBIDIST_GIT_SHA", "abc1234", 1);
  EXPECT_EQ(exp::resolve_git_sha(), "abc1234");
  ::unsetenv("MOBIDIST_GIT_SHA");
  // Otherwise git's short sha for the working directory (empty outside
  // a checkout), without the trailing newline git prints.
  const std::string sha = exp::resolve_git_sha();
  EXPECT_EQ(sha.find_first_not_of("0123456789abcdef"), std::string::npos) << sha;
  if (had_outer) ::setenv("MOBIDIST_GIT_SHA", saved.c_str(), 1);
}

TEST(ExpAggregate, HardwareConcurrencyIsProvenanceOnly) {
  SweepReport report;
  report.name = "t";
  const auto full = exp::json::parse(report.json());
  ASSERT_TRUE(full.has_value()) << report.json();
  const auto* cores = full->at_path("provenance.hardware_concurrency");
  ASSERT_NE(cores, nullptr) << report.json();
  EXPECT_EQ(cores->as_u64(), std::thread::hardware_concurrency());
  EXPECT_EQ(report.deterministic_json().find("hardware_concurrency"), std::string::npos);
}

// --- baseline regression gate ---------------------------------------------

SweepReport run_and_aggregate() {
  const auto plans = smoke_plans();
  const auto results = ParallelRunner(2).run(plans);
  SweepGrid grid;
  grid.seeds = exp::derive_seeds(1234, 4);
  return exp::aggregate("gate", grid, plans, results);
}

TEST(ExpBaseline, SelfComparisonPasses) {
  const auto report = run_and_aggregate();
  const auto baseline = exp::json::parse(report.deterministic_json());
  ASSERT_TRUE(baseline.has_value());
  const auto cmp = exp::compare_to_baseline(report, *baseline, 0.02);
  EXPECT_TRUE(cmp.ok()) << cmp.incompatibility;
  EXPECT_GT(cmp.metrics_compared, 0u);
}

TEST(ExpBaseline, DeliberateRegressionFails) {
  const auto report = run_and_aggregate();
  const auto baseline = exp::json::parse(report.deterministic_json());
  ASSERT_TRUE(baseline.has_value());
  auto drifted = report;
  ASSERT_FALSE(drifted.cells.empty());
  ASSERT_FALSE(drifted.cells[0].metrics.empty());
  auto& mean = drifted.cells[0].metrics.at("cost.total").mean;
  mean = mean * 1.5 + 10.0;
  const auto cmp = exp::compare_to_baseline(drifted, *baseline, 0.02);
  ASSERT_TRUE(cmp.compatible);
  ASSERT_FALSE(cmp.regressions.empty());
  EXPECT_FALSE(cmp.ok());
  EXPECT_EQ(cmp.regressions[0].metric, "cost.total");
  EXPECT_GT(cmp.regressions[0].rel_delta, 0.02);
}

TEST(ExpBaseline, IncompatibleArtifactsAreRejectedNotPassed) {
  const auto report = run_and_aggregate();

  auto other_seeds = report;
  other_seeds.seeds.push_back(999);
  const auto seeds_baseline = exp::json::parse(other_seeds.deterministic_json());
  ASSERT_TRUE(seeds_baseline.has_value());
  const auto seeds_cmp = exp::compare_to_baseline(report, *seeds_baseline, 0.02);
  EXPECT_FALSE(seeds_cmp.compatible);
  EXPECT_FALSE(seeds_cmp.ok());

  auto text = report.deterministic_json();
  const auto pos = text.find("\"schema_version\":");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("\"schema_version\":1").size(), "\"schema_version\":99");
  const auto version_baseline = exp::json::parse(text);
  ASSERT_TRUE(version_baseline.has_value());
  const auto version_cmp = exp::compare_to_baseline(report, *version_baseline, 0.02);
  EXPECT_FALSE(version_cmp.compatible);
  EXPECT_NE(version_cmp.incompatibility.find("schema"), std::string::npos);
}

// --- closed forms vs swept empirical means ---------------------------------

/// The analysis formulas must agree with what the simulator actually
/// charges, measured as the empirical mean over a derived-seed sweep.
/// Latencies are pinned (min == max) so message *counts* are seed-free:
/// the sweep also proves that via stddev == 0.
TEST(ExpFormulasProperty, MutexCostsMatchClosedForms) {
  const cost::CostParams p;
  for (const std::uint32_t n : {6u, 12u, 24u}) {
    ScenarioSpec spec;
    spec.name = "prop";
    spec.workload = "mutex";
    spec.net.num_mss = 4;
    spec.net.num_mh = n;
    spec.net.latency.wired_min = spec.net.latency.wired_max = 5;
    spec.net.latency.wireless_min = spec.net.latency.wireless_max = 2;
    spec.net.latency.search_min = spec.net.latency.search_max = 4;
    spec.params["requests"] = 1;
    spec.params["request_start"] = 1;

    SweepGrid grid;
    grid.seeds = exp::derive_seeds(7, 5);
    grid.axes.push_back(SweepAxis::strings("variant", {"l1", "l2"}));
    // L2's closed form charges one release relay: the requester moves
    // between init and grant (e1's scripted move).
    auto l2_spec = spec;
    const auto plans = [&] {
      auto l1_plans = SweepGrid{grid.seeds, {SweepAxis::strings("variant", {"l1"})}}.expand(spec);
      l2_spec.variant = "l2";
      l2_spec.params["move_at"] = 4;
      l2_spec.params["move_to"] = 1;
      l2_spec.params["move_transit"] = 2;
      auto l2_plans = SweepGrid{grid.seeds, {}}.expand(l2_spec);
      for (auto& plan : l2_plans) {
        plan.cell = "l2";
        plan.index += l1_plans.size();
        l1_plans.push_back(plan);
      }
      return l1_plans;
    }();
    const auto results = ParallelRunner(0).run(plans);
    const auto report = exp::aggregate("prop", grid, plans, results);

    const auto* l1 = report.find_cell("variant=l1");
    ASSERT_NE(l1, nullptr);
    EXPECT_DOUBLE_EQ(l1->metrics.at("cost.total").mean, analysis::l1_execution_cost(n, p));
    EXPECT_DOUBLE_EQ(l1->metrics.at("cost.total").stddev, 0.0);
    EXPECT_DOUBLE_EQ(l1->metrics.at("ledger.wireless_msgs").mean,
                     static_cast<double>(analysis::l1_wireless_hops(n)));

    const auto* l2 = report.find_cell("l2");
    ASSERT_NE(l2, nullptr);
    EXPECT_DOUBLE_EQ(l2->metrics.at("cost.total").mean, analysis::l2_execution_cost(4, p));
    EXPECT_DOUBLE_EQ(l2->metrics.at("cost.total").stddev, 0.0);
  }
}

TEST(ExpFormulasProperty, RingTraversalCostMatchesClosedForm) {
  const cost::CostParams p;
  for (const std::uint32_t n : {4u, 8u, 16u}) {
    ScenarioSpec spec;
    spec.name = "prop";
    spec.workload = "ring";
    spec.variant = "r1";
    spec.net.num_mss = 4;
    spec.net.num_mh = n;
    spec.net.latency.wired_min = spec.net.latency.wired_max = 5;
    spec.net.latency.wireless_min = spec.net.latency.wireless_max = 2;
    spec.net.latency.search_min = spec.net.latency.search_max = 4;
    spec.params["traversals"] = 1;

    SweepGrid grid;
    grid.seeds = exp::derive_seeds(21, 5);
    const auto plans = grid.expand(spec);
    const auto results = ParallelRunner(0).run(plans);
    const auto report = exp::aggregate("prop", grid, plans, results);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_DOUBLE_EQ(report.cells[0].metrics.at("cost.total").mean,
                     analysis::r1_traversal_cost(n, p));
    EXPECT_DOUBLE_EQ(report.cells[0].metrics.at("cost.total").stddev, 0.0);
  }
}

/// The Lavault average is an *expectation over random request orders*;
/// a deterministic round-robin trickle concentrates well below it (the
/// tree collapses toward the rotating requesters). The property checked
/// against the swept empirical means is therefore two-sided where it
/// can be: the closed form bounds the measurement from above at every
/// M, and the measurement inherits the formula's sub-linear shape.
TEST(ExpFormulasProperty, PathRevWiredMessagesBoundedByClosedForm) {
  const cost::CostParams p;
  std::vector<double> empirical;
  const std::vector<std::uint32_t> backbones = {4, 8, 16, 32};
  for (const std::uint32_t m : backbones) {
    ScenarioSpec spec;
    spec.name = "prop";
    spec.workload = "mutex";
    spec.variant = "pathrev";
    spec.net.num_mss = m;
    spec.net.num_mh = m;
    spec.net.latency.wired_min = spec.net.latency.wired_max = 5;
    spec.net.latency.wireless_min = spec.net.latency.wireless_max = 2;
    spec.net.latency.search_min = spec.net.latency.search_max = 4;
    spec.params["requests"] = 16;
    spec.params["request_start"] = 1;
    spec.params["request_gap"] = 40;

    SweepGrid grid;
    grid.seeds = exp::derive_seeds(17, 5);
    const auto plans = grid.expand(spec);
    const auto results = ParallelRunner(0).run(plans);
    const auto report = exp::aggregate("prop", grid, plans, results);
    ASSERT_EQ(report.cells.size(), 1u);
    const auto& metrics = report.cells[0].metrics;
    EXPECT_DOUBLE_EQ(metrics.at("workload.completed").mean, 16.0);
    EXPECT_DOUBLE_EQ(metrics.at("mutex.cs_violations").mean, 0.0);
    const double per_entry = metrics.at("ledger.fixed_msgs").mean / 16.0;
    empirical.push_back(per_entry);
    // Pinned latencies + deterministic schedule: counts are seed-free.
    EXPECT_DOUBLE_EQ(metrics.at("ledger.fixed_msgs").stddev, 0.0);
    // The average-case closed form upper-bounds the trickle regime,
    // with slack for the concentration argument above.
    EXPECT_LE(per_entry, 2.5 * analysis::pathrev_avg_messages(m))
        << "per-entry wired messages above the Lavault bound at M=" << m;
    EXPECT_GT(per_entry, 0.0);
  }
  // Sub-linear shape: M grew 8x across the sweep; the per-entry wired
  // bill must grow by well under that (H_32/H_4 is ~1.9).
  EXPECT_LT(empirical.back(), 3.0 * empirical.front());

  // The formula itself: exact harmonic arithmetic.
  EXPECT_DOUBLE_EQ(analysis::harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(analysis::harmonic(4), 1.0 + 0.5 + 1.0 / 3 + 0.25);
  EXPECT_DOUBLE_EQ(analysis::pathrev_avg_messages(4), analysis::harmonic(4) + 1.0);
  EXPECT_DOUBLE_EQ(
      analysis::pathrev_entry_cost_bound(4, p),
      analysis::pathrev_avg_messages(4) * p.c_fixed + 3.0 * p.c_wireless + p.c_search);
}

TEST(ExpRunner, UnknownVariantEnumeratesTheValidNames) {
  RunPlan plan;
  plan.spec = small_mutex_spec();
  plan.spec.variant = "no_such_variant";
  plan.cell = "base";
  const auto result = exp::run_scenario(plan);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no_such_variant"), std::string::npos);
  // The error must list what the workload does accept.
  EXPECT_NE(result.error.find("l1"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("pathrev"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace mobidist::test
