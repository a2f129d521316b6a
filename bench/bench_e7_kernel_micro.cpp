// E7 (supporting): microbenchmarks of the substrate itself — scheduler
// and RNG throughput, wired/relay message latency paths, and the oracle
// vs broadcast search cost (the paper's worst case really sends M+1
// fixed messages). google-benchmark binary.

#include <benchmark/benchmark.h>

#include <array>
#include <iostream>

#include "bench_support.hpp"
#include "core/mobidist.hpp"

namespace {

using namespace mobidist;
using net::MhId;
using net::MssId;
using net::NetConfig;
using net::Network;

// Each iteration schedules `count` events into a warm, drained
// scheduler and runs them: the slot blocks exist after the first
// iteration, so the figure times the scheduler, not the allocator.
void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  sim::Scheduler sched;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < count; ++i) {
      sched.schedule(i % 97, [&sum, i] { sum += i; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * count));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384);

// Schedule 4 096 events, cancel every other one, run the rest; the
// scheduler and the handle vector are warm after the first iteration.
void BM_SchedulerCancelHeavy(benchmark::State& state) {
  sim::Scheduler sched;
  std::vector<sim::EventHandle> handles;
  handles.reserve(4096);
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < 4096; ++i) handles.push_back(sched.schedule(10, [] {}));
    for (std::size_t i = 0; i < handles.size(); i += 2) sched.cancel(handles[i]);
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SchedulerCancelHeavy);

/// An echo-shaped event: when it fires it schedules its successor 1-7
/// ticks ahead, the delay drawn from its own LCG state. `Pad` bytes of
/// payload ride along, as an Envelope does in a frame landing.
template <std::size_t Pad>
struct NearFutureHop {
  sim::Scheduler* sched;
  std::uint32_t state;
  std::array<unsigned char, Pad> payload{};
  void operator()() {
    state = state * 1664525U + 1013904223U;
    sched->schedule(1 + (state >> 16) % 7, NearFutureHop{sched, state, payload});
  }
};

static_assert(sizeof(NearFutureHop<4>) == 16 && sizeof(NearFutureHop<184>) == 200);

/// A warm scheduler at a steady depth of 64 Ki pending events, each
/// rescheduling itself a few ticks ahead: the slots and queue are already
/// grown, so only schedule and fire are timed.
template <std::size_t Pad>
void near_future_steady(benchmark::State& state) {
  constexpr std::uint32_t kPending = 64 * 1024;
  constexpr int kBatch = 4096;
  sim::Scheduler sched;
  for (std::uint32_t i = 0; i < kPending; ++i) {
    sched.schedule(1 + i % 7, NearFutureHop<Pad>{&sched, i});
  }
  for (std::uint32_t i = 0; i < kPending; ++i) sched.step();  // warm-up
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) sched.step();
    benchmark::DoNotOptimize(sched.fired());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

// A 16-byte hop: a small slot.
void BM_SchedulerNearFutureSteady(benchmark::State& state) { near_future_steady<4>(state); }
BENCHMARK(BM_SchedulerNearFutureSteady);

// The same with a 200-byte capture, echo's frame landing size: a wide
// slot.
void BM_SchedulerNearFutureSteadyWide(benchmark::State& state) {
  near_future_steady<184>(state);
}
BENCHMARK(BM_SchedulerNearFutureSteadyWide);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(1);
  std::uint64_t sum = 0;
  for (auto _ : state) sum += rng.next();
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void BM_WiredMessageRoundtrip(benchmark::State& state) {
  // Cost of pushing one message through the full wired path, measured
  // end to end including dispatch. R2's token pass exercises exactly
  // this: one idle traversal = M wired messages.
  for (auto _ : state) {
    NetConfig cfg;
    cfg.num_mss = 8;
    cfg.num_mh = 8;
    cfg.seed = 3;
    Network net(cfg);
    mutex::CsMonitor monitor;
    mutex::R2Mutex r2(net, monitor, mutex::RingVariant::kBasic);
    net.start();
    net.sched().schedule(1, [&] { r2.start_token(16); });
    net.run();
    benchmark::DoNotOptimize(net.ledger().fixed_msgs());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 8);  // messages
}
BENCHMARK(BM_WiredMessageRoundtrip);

void BM_RelayMhToMh(benchmark::State& state) {
  // The 2*c_wireless + c_search path, including resequencing.
  for (auto _ : state) {
    state.PauseTiming();
    NetConfig cfg;
    cfg.num_mss = 4;
    cfg.num_mh = 16;
    cfg.seed = 5;
    Network net(cfg);
    mutex::CsMonitor monitor;
    mutex::L1Mutex l1(net, monitor);
    net.start();
    state.ResumeTiming();
    net.sched().schedule(1, [&] { l1.request(MhId(0)); });
    net.run();
    benchmark::DoNotOptimize(l1.completed());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 15);  // relayed messages
}
BENCHMARK(BM_RelayMhToMh);

void BM_SearchOracle(benchmark::State& state) {
  for (auto _ : state) {
    NetConfig cfg;
    cfg.num_mss = 16;
    cfg.num_mh = 32;
    cfg.seed = 9;
    Network net(cfg);
    mutex::CsMonitor monitor;
    mutex::L2Mutex l2(net, monitor);
    net.start();
    for (std::uint32_t i = 0; i < 16; ++i) {
      net.sched().schedule(1 + i, [&, i] { l2.request(MhId(i)); });
    }
    net.run();
    benchmark::DoNotOptimize(net.ledger().searches());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SearchOracle);

void BM_SearchBroadcast(benchmark::State& state) {
  // The worst case the paper describes: each search really contacts the
  // other M-1 MSSs ((M+1) fixed messages end to end).
  std::uint64_t fixed_per_search = 0;
  for (auto _ : state) {
    NetConfig cfg;
    cfg.num_mss = 16;
    cfg.num_mh = 32;
    cfg.search = net::SearchMode::kBroadcast;
    cfg.seed = 9;
    Network net(cfg);
    net.start();
    // One remote delivery == one broadcast search.
    auto& station = net.mss(MssId(0));
    (void)station;
    mutex::CsMonitor monitor;
    mutex::L2Mutex l2(net, monitor);
    net.sched().schedule(1, [&] { l2.request(MhId(1)); });
    net.run();
    fixed_per_search = net.ledger().fixed_msgs();
    benchmark::DoNotOptimize(fixed_per_search);
  }
  state.counters["fixed_msgs_incl_search"] = static_cast<double>(fixed_per_search);
}
BENCHMARK(BM_SearchBroadcast);

void BM_FullMobilityScenario(benchmark::State& state) {
  // End-to-end: 32 hosts moving while running L2; measures whole-system
  // event throughput.
  for (auto _ : state) {
    NetConfig cfg;
    cfg.num_mss = 8;
    cfg.num_mh = 32;
    cfg.latency.wired_min = 1;
    cfg.latency.wired_max = 10;
    cfg.seed = 13;
    Network net(cfg);
    mutex::CsMonitor monitor;
    mutex::L2Mutex l2(net, monitor);
    mobility::MobilityConfig mob;
    mob.mean_pause = 30;
    mob.max_moves_per_host = 4;
    mobility::MobilityDriver driver(net, mob);
    net.start();
    driver.start();
    for (std::uint32_t i = 0; i < 32; ++i) {
      net.sched().schedule(1 + 3 * i, [&, i] { l2.request(MhId(i)); });
    }
    const auto events = net.run();
    benchmark::DoNotOptimize(events);
    state.SetItemsProcessed(state.items_processed() + static_cast<std::int64_t>(events));
  }
}
BENCHMARK(BM_FullMobilityScenario);

/// One deterministic run of the BM_FullMobilityScenario system, captured
/// as the bench artifact via the exp runner (the timed loops above are
/// wall-clock-dependent and stay out of it).
void write_artifact() {
  exp::ScenarioSpec spec;
  spec.name = "e7_kernel_micro";
  spec.workload = "mutex";
  spec.variant = "l2";
  spec.net.num_mss = 8;
  spec.net.num_mh = 32;
  spec.net.latency.wired_min = 1;
  spec.net.latency.wired_max = 10;
  spec.net.seed = 13;
  spec.mobility = true;
  spec.mob.mean_pause = 30;
  spec.mob.max_moves_per_host = 4;
  spec.params["requests"] = 32;
  spec.params["request_start"] = 1;
  spec.params["request_gap"] = 3;
  bench::Sections sweep("e7_kernel_micro");
  sweep.add("full_mobility_scenario", spec);
  sweep.run();
  std::cout << "wrote " << sweep.write() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_artifact();
  return 0;
}
