#include "workloads.hpp"

#include <algorithm>
#include <iterator>

#include "exp/json.hpp"

namespace perfbench {

namespace {

using mobidist::exp::ScenarioSpec;

bool full(Size size) { return size == Size::kFull; }

/// Record a violation unless metrics[key] == want.
void expect_eq(std::vector<std::string>& violations, const Metrics& metrics,
               std::string_view key, double want) {
  const double got = metric_or_zero(metrics, key);
  if (got != want) {
    violations.push_back(std::string(key) + " = " + mobidist::exp::json::format_double(got) +
                         ", expected " + mobidist::exp::json::format_double(want));
  }
}

// echo_100k_s2: lane-local wireless ping loops on the sharded engine.
ScenarioSpec echo_spec(std::uint64_t seed, Size size) {
  ScenarioSpec spec;
  spec.name = "echo_100k_s2";
  spec.workload = "scale";
  spec.variant = "echo";
  spec.net.num_mss = full(size) ? 64 : 8;
  spec.net.num_mh = full(size) ? 100'000 : 512;
  spec.net.shards = 2;
  spec.net.seed = seed;
  spec.params["gap"] = 7;
  spec.params["pings"] = 5;
  return spec;
}

std::vector<std::string> echo_check(const ScenarioSpec& spec, const Metrics& metrics) {
  std::vector<std::string> violations;
  const double pings = spec.net.num_mh * spec.param("pings", 0);
  for (const auto key : {"workload.sent", "workload.echoed", "workload.delivered"}) {
    expect_eq(violations, metrics, key, pings);
  }
  return violations;
}

// l2_64x1k: the paper's restructured Lamport among the MSSs, with wired
// batching on and scripted moves under load.
ScenarioSpec l2_spec(std::uint64_t seed, Size size) {
  ScenarioSpec spec;
  spec.name = "l2_64x1k";
  spec.workload = "mutex";
  spec.variant = "l2";
  spec.net.num_mss = full(size) ? 64 : 8;
  spec.net.num_mh = full(size) ? 1024 : 64;
  spec.net.seed = seed;
  spec.net.formation.max_packet_msgs = 16;
  spec.net.formation.flush_deadline = 4;
  spec.params["requests"] = full(size) ? 5'000 : 200;
  spec.params["request_start"] = 1;
  spec.params["request_gap"] = 4;
  spec.params["chaos_moves"] = full(size) ? 250 : 20;
  return spec;
}

std::vector<std::string> l2_check(const ScenarioSpec& spec, const Metrics& metrics) {
  std::vector<std::string> violations;
  const double requests = spec.param("requests", 0);
  expect_eq(violations, metrics, "workload.completed", requests);
  expect_eq(violations, metrics, "workload.grants", requests);
  expect_eq(violations, metrics, "workload.violations", 0);
  return violations;
}

// commuter_100k_lossy: the scenario `mobidist_gen --model commuter
// --mh 100000` emits, plus lossy wireless links.
ScenarioSpec commuter_spec(std::uint64_t seed, Size size) {
  ScenarioSpec spec;
  spec.name = "commuter_100k_lossy";
  spec.workload = "group_mobility";
  spec.variant = "location_view";
  spec.net.num_mss = full(size) ? 66 : 16;
  spec.net.num_mh = full(size) ? 100'000 : 2'000;
  spec.net.seed = seed;
  spec.mobility = true;
  spec.mob.pattern = mobidist::mobility::MovePattern::kCommuter;
  spec.mob.regions = 8;
  spec.mob.max_moves_per_host = 2;
  spec.mob.mean_pause = 150.0;
  spec.mob.mean_transit = 8.0;
  spec.fault.wireless_loss = 0.02;
  spec.params["group_size"] = 64;
  spec.params["messages"] = 24;
  return spec;
}

std::vector<std::string> commuter_check(const ScenarioSpec& spec, const Metrics& metrics) {
  std::vector<std::string> violations;
  expect_eq(violations, metrics, "workload.mob.moves",
            static_cast<double>(spec.net.num_mh) *
                static_cast<double>(spec.mob.max_moves_per_host));
  expect_eq(violations, metrics, "workload.messages_sent", spec.param("messages", 0));
  // workload.exactly_once is not gated: under wireless loss the location
  // view misses a delivery on some seeds (seed 4 at full size), a program
  // defect the benchmark reports in its counts rather than fails on.
  return violations;
}

constexpr Workload kWorkloads[] = {
    {"echo_100k_s2", echo_spec, echo_check},
    {"l2_64x1k", l2_spec, l2_check},
    {"commuter_100k_lossy", commuter_spec, commuter_check},
};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  const auto it = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                               [name](const Workload& w) { return w.name == name; });
  return it == std::end(kWorkloads) ? nullptr : &*it;
}

double metric_or_zero(const Metrics& metrics, std::string_view key) {
  const auto it = metrics.find(key);
  return it == metrics.end() ? 0.0 : it->second;
}

}  // namespace perfbench
