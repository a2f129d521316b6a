// Parameterized property sweeps (TEST_P): the §6-of-DESIGN.md invariants
// checked across seeds, scales, algorithms, and search substrates.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "core/mobidist.hpp"
#include "fault/fault_plane.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

using group::Group;
using group::LocationViewGroup;
using mutex::CsMonitor;
using mutex::RingVariant;

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

// ===========================================================================
// Property 1: scheduler ordering & cancellation under random action mixes.
// ===========================================================================

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, FiresInTimeOrderAndNeverFiresCancelled) {
  sim::Rng rng(GetParam());
  sim::Scheduler sched;
  std::vector<sim::SimTime> fired_at;
  std::set<int> cancelled_tags;
  std::set<int> fired_tags;
  std::vector<std::pair<sim::EventHandle, int>> live;
  int next_tag = 0;
  for (int step = 0; step < 400; ++step) {
    const auto action = rng.below(10);
    if (action < 6) {  // schedule
      const int tag = next_tag++;
      auto handle = sched.schedule(rng.below(50), [&, tag] {
        fired_at.push_back(sched.now());
        fired_tags.insert(tag);
      });
      live.emplace_back(handle, tag);
    } else if (action < 8 && !live.empty()) {  // cancel a random live one
      const auto pick = rng.below(live.size());
      if (sched.cancel(live[pick].first)) cancelled_tags.insert(live[pick].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {  // run a bit
      sched.run_until(sched.now() + rng.below(20));
    }
  }
  sched.run();
  for (std::size_t i = 1; i < fired_at.size(); ++i) {
    ASSERT_LE(fired_at[i - 1], fired_at[i]) << "time went backwards";
  }
  for (const int tag : cancelled_tags) {
    EXPECT_FALSE(fired_tags.contains(tag)) << "cancelled event fired: " << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ===========================================================================
// Property 2: per-channel FIFO under random latency jitter and moves.
// ===========================================================================

class ChannelFifoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFifoProperty, WiredAndRelayChannelsNeverReorder) {
  auto cfg = small_config(5, 10);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 50;
  cfg.latency.search_min = 1;
  cfg.latency.search_max = 30;
  cfg.seed = GetParam();
  Network net(cfg);
  Harness h(net);
  net.start();
  // Wired: interleaved bursts on several ordered pairs.
  for (int round = 0; round < 10; ++round) {
    net.sched().schedule(static_cast<sim::Duration>(round) * 7, [&, round] {
      h.mss[0]->do_send_wired(mss_id(1), round);
      h.mss[1]->do_send_wired(mss_id(2), round);
      h.mss[3]->do_send_wired(mss_id(1), 100 + round);
    });
  }
  // Relay: a numbered burst with the receiver moving mid-stream.
  for (int i = 0; i < 12; ++i) h.mh[0]->do_send_to_mh(mh_id(7), i);
  net.sched().schedule(5, [&] { net.mh(mh_id(7)).move_to(mss_id(4), 35); });
  net.run();
  ExpectCleanEventStream(net);

  auto assert_monotone = [](const std::vector<RecordingMssAgent::Received>& log,
                            auto filter) {
    int last = -1;
    for (const auto& rec : log) {
      const int* value = rec.env.body.get<int>();
      if (value == nullptr || !filter(*value)) continue;
      ASSERT_LT(last, *value);
      last = *value;
    }
  };
  assert_monotone(h.mss[1]->received, [](int v) { return v < 100; });
  assert_monotone(h.mss[1]->received, [](int v) { return v >= 100; });
  assert_monotone(h.mss[2]->received, [](int) { return true; });
  int last = -1;
  for (const auto& rec : h.mh[7]->received) {
    const int* value = rec.env.body.get<int>();
    ASSERT_NE(value, nullptr);
    ASSERT_EQ(*value, last + 1) << "relay lost FIFO";
    last = *value;
  }
  EXPECT_EQ(last, 11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFifoProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// ===========================================================================
// Property 3: mobility-protocol coherence — every connected MH is local to
// exactly one MSS; disconnected flags live where the MH vanished.
// ===========================================================================

class HandoffProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// The churn both legs share: pauses, transits, and voluntary
/// disconnects on a 6-cell, 18-host system.
mobility::MobilityConfig churn_mobility() {
  mobility::MobilityConfig mob;
  mob.mean_pause = 25;
  mob.mean_transit = 6;
  mob.max_moves_per_host = 5;
  mob.disconnect_prob = 0.2;
  mob.mean_disconnect = 40;
  return mob;
}

/// Run `mob` churn under `faults`, then check every cell's local list
/// and "disconnected" flags against the MHs' own state. Returns the
/// run's wireless retransmissions.
std::uint64_t expect_coherent_local_lists(std::uint64_t seed,
                                          const mobility::MobilityConfig& mob,
                                          fault::FaultProfile faults) {
  auto cfg = small_config(6, 18);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 12;
  cfg.seed = seed;
  Network net(cfg);
  net.install_fault_plane(std::move(faults));
  Harness h(net);
  mobility::MobilityDriver driver(net, mob);
  net.start();
  driver.start();
  net.run();
  ExpectCleanEventStream(net);

  std::map<MhId, int> local_count;
  for (std::uint32_t s = 0; s < net.num_mss(); ++s) {
    for (const auto mh : net.mss(mss_id(s)).local_mhs()) {
      ++local_count[mh];
      EXPECT_EQ(net.current_mss_of(mh), mss_id(s)) << "list/state divergence";
    }
  }
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) {
    const auto id = mh_id(i);
    if (net.mh(id).connected()) {
      EXPECT_EQ(local_count[id], 1) << to_string(id) << " in " << local_count[id]
                                    << " cells";
    } else {
      EXPECT_EQ(local_count[id], 0);
      if (net.is_disconnected(id)) {
        EXPECT_TRUE(net.mss(net.mh(id).last_mss()).has_disconnected_flag(id));
      }
    }
  }
  return net.stats().retransmissions;
}

TEST_P(HandoffProperty, LocalListsStayCoherentUnderChurn) {
  expect_coherent_local_lists(GetParam(), churn_mobility(), fault::FaultProfile{});
}

// Under loss a leave is retransmitted and can be overtaken by the next
// cell's handoff request, which then stands in for it, or the MH can
// bounce back before that request lands: races the arrival epoch in the
// cell record decides. Short transits and more moves make them common.
TEST_P(HandoffProperty, LocalListsStayCoherentUnderLossyChurn) {
  auto mob = churn_mobility();
  mob.mean_transit = 2;
  mob.max_moves_per_host = 8;
  fault::FaultProfile faults;
  faults.wireless_loss = 0.2;
  faults.wireless_dup = 0.1;
  EXPECT_GT(expect_coherent_local_lists(GetParam(), mob, std::move(faults)), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandoffProperty,
                         ::testing::Values(7, 17, 27, 37, 47, 57, 67, 77, 87, 97));

// ===========================================================================
// Property 4: mutual exclusion — safety, liveness, ordering for every
// algorithm, across seeds, under mobility, on both search substrates.
// ===========================================================================

enum class Algo { kL1, kL2, kR1, kR2Basic, kR2Counter, kR2List, kProxiedHome, kProxiedLocal };

std::string algo_name(Algo algo) {
  switch (algo) {
    case Algo::kL1: return "L1";
    case Algo::kL2: return "L2";
    case Algo::kR1: return "R1";
    case Algo::kR2Basic: return "R2";
    case Algo::kR2Counter: return "R2c";
    case Algo::kR2List: return "R2l";
    case Algo::kProxiedHome: return "ProxyHome";
    case Algo::kProxiedLocal: return "ProxyLocal";
  }
  return "?";
}

using MutexParam = std::tuple<Algo, std::uint64_t, net::SearchMode>;

class MutexProperty : public ::testing::TestWithParam<MutexParam> {};

TEST_P(MutexProperty, SafetyLivenessOrderingUnderMobility) {
  const auto [algo, seed, mode] = GetParam();
  auto cfg = small_config(4, 10);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 12;
  cfg.seed = seed;
  cfg.search = mode;
  Network net(cfg);
  CsMonitor monitor;

  // Build the algorithm under test.
  std::unique_ptr<mutex::L1Mutex> l1;
  std::unique_ptr<mutex::L2Mutex> l2;
  std::unique_ptr<mutex::R1Mutex> r1;
  std::unique_ptr<mutex::R2Mutex> r2;
  std::unique_ptr<proxy::ProxyService> proxies;
  std::unique_ptr<proxy::ProxiedLamport> proxied;
  std::function<void(MhId)> request;
  switch (algo) {
    case Algo::kL1:
      l1 = std::make_unique<mutex::L1Mutex>(net, monitor);
      request = [&l1](MhId mh) { l1->request(mh); };
      break;
    case Algo::kL2:
      l2 = std::make_unique<mutex::L2Mutex>(net, monitor);
      request = [&l2](MhId mh) { l2->request(mh); };
      break;
    case Algo::kR1:
      r1 = std::make_unique<mutex::R1Mutex>(net, monitor);
      request = [&r1](MhId mh) { r1->request(mh); };
      break;
    case Algo::kR2Basic:
    case Algo::kR2Counter:
    case Algo::kR2List: {
      const auto variant = algo == Algo::kR2Basic    ? RingVariant::kBasic
                           : algo == Algo::kR2Counter ? RingVariant::kCounter
                                                      : RingVariant::kTokenList;
      r2 = std::make_unique<mutex::R2Mutex>(net, monitor, variant);
      request = [&r2](MhId mh) { r2->request(mh); };
      break;
    }
    case Algo::kProxiedHome:
    case Algo::kProxiedLocal: {
      proxy::ProxyOptions opts;
      opts.scope = algo == Algo::kProxiedHome ? proxy::ProxyScope::kFixedHome
                                              : proxy::ProxyScope::kLocalMss;
      proxies = std::make_unique<proxy::ProxyService>(net, opts);
      proxied = std::make_unique<proxy::ProxiedLamport>(net, *proxies, monitor);
      request = [&proxied](MhId mh) { proxied->request(mh); };
      break;
    }
  }

  mobility::MobilityConfig mob;
  mob.mean_pause = 60;
  mob.mean_transit = 6;
  mob.max_moves_per_host = 3;
  mobility::MobilityDriver driver(net, mob);

  constexpr std::uint32_t kRequests = 10;
  if (algo == Algo::kR1) {
    // R1 cannot accept requests from hosts that are mid-move when the
    // token arrives without stalling semantics; seed all requests before
    // the token and keep hosts still (its mobility weakness is measured
    // elsewhere — here we check pure safety/liveness).
    for (std::uint32_t i = 0; i < kRequests; ++i) request(mh_id(i));
  } else {
    driver.start();
  }

  net.start();
  if (algo == Algo::kR1) {
    net.sched().schedule(1, [&] { r1->start_token(2); });
  } else {
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      net.sched().schedule(2 + 7 * i, [&request, i] { request(mh_id(i % 10)); });
    }
    if (r2) {
      // Circulate all run; only allow idle absorption once the whole
      // request schedule has certainly been submitted.
      net.sched().schedule(3, [&] { r2->start_token(100000); });
      net.sched().schedule(4000, [&] { r2->set_absorb_when_idle(true); });
    }
  }
  net.run();
  ExpectCleanEventStream(net);

  SCOPED_TRACE(algo_name(algo));
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.grants(), kRequests);  // liveness: everyone served
  const bool lamport_family = algo == Algo::kL1 || algo == Algo::kL2 ||
                              algo == Algo::kProxiedHome || algo == Algo::kProxiedLocal;
  if (lamport_family) {
    EXPECT_EQ(monitor.order_inversions(), 0u);  // timestamp-order service
  }
  if (r2) {
    // R2'/R2'' cap: at most one grant per MH per traversal.
    if (algo != Algo::kR2Basic) {
      for (std::uint64_t traversal = 1; traversal <= r2->traversals_done() + 1;
           ++traversal) {
        for (std::uint32_t i = 0; i < 10; ++i) {
          EXPECT_LE(r2->grants_for(mh_id(i), traversal), 1u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OracleSearch, MutexProperty,
    ::testing::Combine(::testing::Values(Algo::kL1, Algo::kL2, Algo::kR1, Algo::kR2Basic,
                                         Algo::kR2Counter, Algo::kR2List,
                                         Algo::kProxiedHome, Algo::kProxiedLocal),
                       ::testing::Values(1001, 2002, 3003, 4004),
                       ::testing::Values(net::SearchMode::kOracle)),
    [](const auto& info) {
      return algo_name(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    BroadcastSearch, MutexProperty,
    ::testing::Combine(::testing::Values(Algo::kL2, Algo::kR2Counter, Algo::kProxiedHome),
                       ::testing::Values(1001, 5005),
                       ::testing::Values(net::SearchMode::kBroadcast)),
    [](const auto& info) {
      return algo_name(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ===========================================================================
// Property 5: location view — convergence to ground truth and delivery
// guarantees across seeds and group shapes.
// ===========================================================================

using LvParam = std::tuple<std::uint64_t, std::uint32_t /*group size*/,
                           std::uint32_t /*num cells*/>;

class LocationViewProperty : public ::testing::TestWithParam<LvParam> {};

TEST_P(LocationViewProperty, ConvergesAndDeliversExactlyOnce) {
  const auto [seed, group_size, cells] = GetParam();
  auto cfg = small_config(cells, group_size + 4);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 8;
  cfg.seed = seed;
  Network net(cfg);
  std::vector<MhId> members;
  for (std::uint32_t i = 0; i < group_size; ++i) members.push_back(mh_id(i));
  const auto group = Group::of(members);
  LocationViewGroup comm(net, group);

  mobility::MobilityConfig mob;
  mob.mean_pause = 70;
  mob.mean_transit = 5;
  mob.max_moves_per_host = 4;
  mobility::MobilityDriver driver(net, mob, group.members);
  net.start();
  driver.start();
  for (int i = 0; i < 12; ++i) {
    const auto sender = group.members[static_cast<std::size_t>(i) % group.size()];
    net.sched().schedule(25 + 35 * i, [&, sender] {
      if (net.mh(sender).connected()) comm.send_group_message(sender);
    });
  }
  net.run();
  ExpectCleanEventStream(net);

  // Delivery: every sent message reached every other member exactly once.
  EXPECT_EQ(comm.monitor().missing(group), 0u);
  EXPECT_EQ(comm.monitor().over_delivered(group), 0u);

  // Convergence: after quiescence the master view equals the true set of
  // member-hosting cells.
  std::set<MssId> truth;
  for (const auto member : group.members) truth.insert(net.mh(member).last_mss());
  EXPECT_TRUE(std::includes(comm.current_view().begin(), comm.current_view().end(),
                            truth.begin(), truth.end()))
      << "view misses a member cell";
}

INSTANTIATE_TEST_SUITE_P(Shapes, LocationViewProperty,
                         ::testing::Combine(::testing::Values(3, 11, 19, 29, 41),
                                            ::testing::Values(4u, 8u),
                                            ::testing::Values(6u, 10u)),
                         [](const auto& info) {
                           return "s" + std::to_string(std::get<0>(info.param)) + "_g" +
                                  std::to_string(std::get<1>(info.param)) + "_m" +
                                  std::to_string(std::get<2>(info.param));
                         });

// ===========================================================================
// Property 6: cost-formula agreement for L1/L2 across scales.
// ===========================================================================

using ScaleParam = std::tuple<std::uint32_t /*M*/, std::uint32_t /*N*/>;

class FormulaProperty : public ::testing::TestWithParam<ScaleParam> {};

TEST_P(FormulaProperty, L1AndL2LedgersMatchClosedForms) {
  const auto [m, n] = GetParam();
  const cost::CostParams p;
  {
    Network net(small_config(m, n));
    CsMonitor monitor;
    mutex::L1Mutex l1(net, monitor);
    net.start();
    net.sched().schedule(1, [&] { l1.request(mh_id(0)); });
    net.run();
    ExpectCleanEventStream(net);
    EXPECT_DOUBLE_EQ(net.ledger().total(p), analysis::l1_execution_cost(n, p));
    EXPECT_EQ(net.ledger().wireless_msgs(), analysis::l1_wireless_hops(n));
  }
  {
    Network net(small_config(m, n));
    CsMonitor monitor;
    mutex::L2Mutex l2(net, monitor);
    net.start();
    net.sched().schedule(1, [&] { l2.request(mh_id(0)); });
    net.sched().schedule(4, [&] { net.mh(mh_id(0)).move_to(mss_id(1), 2); });
    net.run();
    ExpectCleanEventStream(net);
    EXPECT_DOUBLE_EQ(net.ledger().total(p), analysis::l2_execution_cost(m, p));
    EXPECT_EQ(net.ledger().wireless_msgs(), analysis::l2_wireless_msgs());
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, FormulaProperty,
                         ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                                            ::testing::Values(8u, 24u, 48u)),
                         [](const auto& info) {
                           return "M" + std::to_string(std::get<0>(info.param)) + "_N" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace mobidist::test
