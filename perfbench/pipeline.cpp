#include "pipeline.hpp"

#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "mobility/mobility_model.hpp"
#include "net/network.hpp"
#include "obs/checkers.hpp"
#include "obs/events.hpp"

namespace perfbench {

using namespace mobidist;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kLayerSpans[] = {
    "net.construct_s", "fault.install_s", "exp.build_s",   "mobility.construct_s",
    "sim.run_s",       "obs.merge_s",     "obs.check_s",   "exp.harvest_s",
    "net.teardown_s"};

const exp::WorkloadLibrary::Builder& builtin_builder(const exp::ScenarioSpec& spec) {
  const auto* builder = exp::WorkloadLibrary::builtin().find(spec.workload);
  if (builder == nullptr) {
    throw std::runtime_error("unknown workload '" + spec.workload + "'");
  }
  return *builder;
}

/// The observables exp::run_scenario registers for its whole-population
/// mobility.
void mobility_metrics(exp::ScenarioContext& ctx, const mobility::MobilityDriver& mover) {
  const auto* m = &mover;
  ctx.metric("mob.moves", [m] { return static_cast<double>(m->moves()); });
  ctx.metric("mob.disconnects", [m] { return static_cast<double>(m->disconnects()); });
  ctx.metric("mob.f", [m] { return m->f_overall(); });
  for (std::uint32_t r = 0; r < mover.regions(); ++r) {
    ctx.metric("mob.f_region_" + std::to_string(r), [m, r] { return m->f_region(r); });
    ctx.metric("mob.moves_region_" + std::to_string(r),
               [m, r] { return static_cast<double>(m->moves_in_region(r)); });
  }
}

/// exp::run_scenario's harvest, key for key. `merged` is a sharded run's
/// merged trace, nullptr on the legacy engine.
void harvest(Metrics& m, const exp::ScenarioSpec& spec, const net::Network& network,
             const exp::ScenarioContext& ctx, const std::vector<obs::Event>* merged) {
  const auto& ledger = network.ledger();
  m["cost.total"] = ledger.total(spec.cost);
  m["cost.energy"] = ledger.total_energy(spec.cost);
  m["ledger.fixed_msgs"] = static_cast<double>(ledger.fixed_msgs());
  m["ledger.wired_packets"] = static_cast<double>(ledger.wired_packets());
  m["ledger.wireless_msgs"] = static_cast<double>(ledger.wireless_msgs());
  m["ledger.searches"] = static_cast<double>(ledger.searches());
  m["ledger.wireless_tx"] = static_cast<double>(ledger.wireless_tx());
  m["ledger.wireless_rx"] = static_cast<double>(ledger.wireless_rx());
  m["sched.fired"] = static_cast<double>(network.total_fired());
  m["sched.hit_event_limit"] = network.hit_event_limit() ? 1.0 : 0.0;
  m["events.emitted"] = static_cast<double>(network.events_emitted());
  m["events.dropped"] = static_cast<double>(network.events_dropped());
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  const auto count_event = [&](const obs::Event& event) {
    if (event.kind == obs::EventKind::kMssCrash) ++crashes;
    if (event.kind == obs::EventKind::kMssRecover) ++recoveries;
  };
  if (merged != nullptr) {
    for (const auto& event : *merged) count_event(event);
  } else {
    network.events().for_each(count_event);
  }
  m["events.mss_crash"] = static_cast<double>(crashes);
  m["events.mss_recover"] = static_cast<double>(recoveries);
  for (const auto& [name, counter] : network.metrics().counters()) {
    m[name] = static_cast<double>(counter.value());
  }
  for (const auto& [name, gauge] : network.metrics().gauges()) {
    m[name] = static_cast<double>(gauge.value());
  }
  for (const auto& [name, histogram] : network.metrics().histograms()) {
    m[name + ".count"] = static_cast<double>(histogram.count());
    m[name + ".mean"] = histogram.mean();
    m[name + ".max"] = static_cast<double>(histogram.max());
  }
  for (const auto& [name, producer] : ctx.extras()) m["workload." + name] = producer();
}

/// Records spans whose times count from the recorder's construction.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>& spans) : spans_(spans), origin_(Clock::now()) {}

  /// Run `call` inside a span named `name`.
  template <typename Fn>
  void span(std::string_view name, Fn&& call) {
    const double begin = elapsed();
    std::forward<Fn>(call)();
    spans_.push_back({name, begin, elapsed()});
  }

 private:
  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::vector<Span>& spans_;
  Clock::time_point origin_;
};

}  // namespace

SpecCapture::SpecCapture() {
  const auto& builtin = exp::WorkloadLibrary::builtin();
  for (const auto& name : builtin.names()) {
    const auto* inner = builtin.find(name);
    library_.add(
        name,
        [this, inner](exp::ScenarioContext& ctx) {
          spec_ = ctx.spec();
          (*inner)(ctx);
        },
        builtin.shard_safe(name));
  }
}

double time_setup(const exp::ScenarioSpec& spec) {
  const auto& build = builtin_builder(spec);
  const auto begin = Clock::now();
  net::Network network(spec.net);
  if (spec.has_faults()) network.install_fault_plane(spec.fault);
  exp::ScenarioContext ctx(spec, network);
  build(ctx);
  if (spec.mobility) ctx.emplace<mobility::MobilityDriver>(network, spec.mob);
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

std::span<const std::string_view> layer_span_names() { return kLayerSpans; }

TracedRun run_traced(const exp::ScenarioSpec& spec) {
  const auto& build = builtin_builder(spec);
  TracedRun out;
  out.spans.reserve(std::size(kLayerSpans));
  Recorder recorder(out.spans);
  // Declared in exp::run_scenario's order, so an exception unwinds alike.
  std::unique_ptr<net::Network> network;
  std::optional<exp::ScenarioContext> ctx;
  mobility::MobilityDriver* mover = nullptr;
  std::vector<obs::Event> merged;

  recorder.span("net.construct_s",
                [&] { network = std::make_unique<net::Network>(spec.net); });
  recorder.span("fault.install_s", [&] {
    if (spec.has_faults()) network->install_fault_plane(spec.fault);
  });
  recorder.span("exp.build_s", [&] {
    ctx.emplace(spec, *network);
    build(*ctx);
  });
  recorder.span("mobility.construct_s", [&] {
    if (!spec.mobility) return;
    mover = &ctx->emplace<mobility::MobilityDriver>(*network, spec.mob);
    mobility_metrics(*ctx, *mover);
  });
  recorder.span("sim.run_s", [&] {
    network->start();
    if (mover != nullptr) mover->start();
    network->run();
  });
  recorder.span("obs.merge_s", [&] {
    if (network->sharded()) merged = network->merged_events();
  });
  recorder.span("obs.check_s", [&] {
    const auto failures = network->sharded()
                              ? obs::check_all(std::span<const obs::Event>(merged))
                              : obs::check_all(network->events());
    for (const auto& failure : failures) out.failures.push_back(obs::to_string(failure));
  });
  recorder.span("exp.harvest_s", [&] {
    harvest(out.metrics, spec, *network, *ctx, network->sharded() ? &merged : nullptr);
  });
  recorder.span("net.teardown_s", [&] {
    std::vector<obs::Event>().swap(merged);
    ctx.reset();
    network.reset();
  });
  return out;
}

}  // namespace perfbench
