// Substrate tests: channels + cost charging, the §2 mobility protocol
// (join/leave/handoff/disconnect/reconnect), search in both modes, the
// MH-to-MH relay with FIFO resequencing, and doze-mode accounting.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>

#include "fault/fault_plane.hpp"
#include "obs/events.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

// --------------------------------------------------------------------------
// Topology & placement
// --------------------------------------------------------------------------

TEST(Placement, RoundRobinSpreadsHosts) {
  auto cfg = small_config(3, 7);
  Network net(cfg);
  EXPECT_EQ(net.mss(mss_id(0)).local_mhs().size(), 3u);  // 0, 3, 6
  EXPECT_EQ(net.mss(mss_id(1)).local_mhs().size(), 2u);  // 1, 4
  EXPECT_EQ(net.mss(mss_id(2)).local_mhs().size(), 2u);  // 2, 5
  EXPECT_EQ(net.current_mss_of(mh_id(4)), mss_id(1));
}

TEST(Placement, AllInCell0) {
  auto cfg = small_config(3, 5);
  cfg.placement = InitialPlacement::kAllInCell0;
  Network net(cfg);
  EXPECT_EQ(net.mss(mss_id(0)).local_mhs().size(), 5u);
  EXPECT_TRUE(net.mss(mss_id(1)).local_mhs().empty());
}

TEST(Placement, ZeroMssThrows) {
  NetConfig cfg;
  cfg.num_mss = 0;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Wired channel
// --------------------------------------------------------------------------

TEST(WiredChannel, DeliversAndCharges) {
  Network net(small_config());
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), std::string("ping"));
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 1u);
  EXPECT_EQ(*h.mss[1]->received[0].env.body.get<std::string>(), "ping");
  EXPECT_EQ(net.ledger().fixed_msgs(), 1u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 0u);
  EXPECT_EQ(net.ledger().searches(), 0u);
}

TEST(WiredChannel, SelfSendIsFreeAndDelivered) {
  Network net(small_config());
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(0), 42);
  net.run();
  ASSERT_EQ(h.mss[0]->received.size(), 1u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
}

TEST(WiredChannel, FifoUnderRandomLatency) {
  auto cfg = small_config();
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 40;  // heavy jitter
  Network net(cfg);
  Harness h(net);
  net.start();
  for (int i = 0; i < 50; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*h.mss[1]->received[i].env.body.get<int>(), i);
  }
}

TEST(WiredChannel, IndependentPairsDoNotBlockEachOther) {
  Network net(small_config());
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[2]->do_send_wired(mss_id(1), 2);
  net.run();
  EXPECT_EQ(h.mss[1]->received.size(), 2u);
}

// --------------------------------------------------------------------------
// Wireless channels
// --------------------------------------------------------------------------

TEST(Wireless, UplinkDeliversToCurrentMssAndChargesTx) {
  Network net(small_config(3, 6));  // mh1 in cell 1
  Harness h(net);
  net.start();
  h.mh[1]->do_send_uplink(std::string("up"));
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 1u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 1u);
  EXPECT_EQ(net.ledger().wireless_tx(), 1u);
  EXPECT_EQ(net.ledger().energy_at(1, cost::CostParams{}), 1.0);
}

TEST(Wireless, DownlinkToLocalMhChargesRx) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mss[1]->do_send_local(mh_id(1), std::string("down"));
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(net.ledger().wireless_rx(), 1u);
  EXPECT_EQ(net.ledger().energy_at(1, cost::CostParams{}), 1.0);
}

TEST(Wireless, DownlinkLostWhenMhLeavesFirst) {
  // §2 prefix rule: a frame transmitted before the leave but landing
  // after it is never received.
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.sched().schedule(10, [&] {
    h.mss[1]->do_send_local(mh_id(1), std::string("miss"));
    net.mh(mh_id(1)).move_to(mss_id(2), /*transit=*/30);
  });
  net.run();
  EXPECT_TRUE(h.mh[1]->received.empty());
  ASSERT_EQ(h.mss[1]->local_failures.size(), 1u);
  EXPECT_EQ(h.mss[1]->local_failures[0].first, mh_id(1));
  EXPECT_EQ(net.ledger().wireless_rx(), 0u);  // no reception, no rx energy
}

TEST(Wireless, DownlinkToNonLocalMhFailsImmediately) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_local(mh_id(1), std::string("wrong cell"));
  net.run();
  EXPECT_TRUE(h.mh[1]->received.empty());
  EXPECT_EQ(h.mss[0]->local_failures.size(), 1u);
}

TEST(Wireless, UplinkFromDisconnectedThrows) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).disconnect();
  net.run();
  EXPECT_THROW(h.mh[0]->do_send_uplink(1), std::logic_error);
}

TEST(Wireless, ControlTrafficIsNotCharged) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 5);  // leave + join, control only
  net.run();
  EXPECT_EQ(net.ledger().wireless_msgs(), 0u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
  EXPECT_GT(net.stats().control_msgs, 0u);
}

// --------------------------------------------------------------------------
// Mobility protocol
// --------------------------------------------------------------------------

TEST(Mobility, MoveUpdatesLocalListsAndNotifiesAgents) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 10);
  net.run();
  EXPECT_FALSE(net.mss(mss_id(0)).is_local(mh_id(0)));
  EXPECT_TRUE(net.mss(mss_id(1)).is_local(mh_id(0)));
  EXPECT_EQ(net.current_mss_of(mh_id(0)), mss_id(1));
  // Old cell saw the departure, new cell saw the arrival with prev id.
  EXPECT_NE(std::find(h.mss[0]->events.begin(), h.mss[0]->events.end(), "left:mh:0"),
            h.mss[0]->events.end());
  bool joined_seen = false;
  for (const auto& ev : h.mss[1]->events) {
    joined_seen |= (ev == "joined:mh:0<-mss:0");
  }
  EXPECT_TRUE(joined_seen);
  EXPECT_EQ(h.mh[0]->events.front(), "left");
  EXPECT_EQ(h.mh[0]->events.back(), "joined:mss:1");
  EXPECT_EQ(net.stats().leaves, 1u);
  EXPECT_EQ(net.stats().joins, 1u);
  EXPECT_EQ(net.stats().handoffs, 1u);
}

TEST(Mobility, InTransitHostIsInNoCell) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 100);
  net.sched().run_until(50);  // mid-transit
  EXPECT_TRUE(net.is_in_transit(mh_id(0)));
  EXPECT_EQ(net.current_mss_of(mh_id(0)), kInvalidMss);
  EXPECT_FALSE(net.mss(mss_id(0)).is_local(mh_id(0)));
  EXPECT_FALSE(net.mss(mss_id(1)).is_local(mh_id(0)));
  net.run();
  EXPECT_EQ(net.current_mss_of(mh_id(0)), mss_id(1));
}

TEST(Mobility, MoveToCurrentCellIsLeaveAndRejoin) {
  // Coverage lost and regained inside one cell: a real in-transit window
  // followed by a plain (no-handoff) rejoin of the same MSS.
  Network net(small_config(3, 6));
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(0), 50);
  net.sched().run_until(25);
  EXPECT_TRUE(net.is_in_transit(mh_id(0)));
  net.run();
  EXPECT_EQ(net.current_mss_of(mh_id(0)), mss_id(0));
  EXPECT_EQ(net.stats().handoffs, 0u);
  EXPECT_EQ(net.stats().leaves, 1u);
  EXPECT_EQ(net.stats().joins, 1u);
}

TEST(Mobility, MoveWhileInTransitThrows) {
  Network net(small_config(3, 6));
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 100);
  EXPECT_THROW(net.mh(mh_id(0)).move_to(mss_id(2), 5), std::logic_error);
  net.run();
}

TEST(Mobility, HandoffTransfersAgentState) {
  Network net(small_config(3, 6));
  Harness h(net);
  h.mss[0]->handoff_blob = std::string("mh0-notes");
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 10);
  net.run();
  ASSERT_TRUE(h.mss[1]->last_handoff_in.has_value());
  EXPECT_EQ(*h.mss[1]->last_handoff_in.get<std::string>(), "mh0-notes");
}

TEST(Mobility, RapidDoubleMoveChainsHandoffState) {
  // mh0: cell0 -> cell1 -> cell2 with the second move starting as soon
  // as the first join lands; cell2 must still receive cell0's state via
  // the deferred-handoff path.
  Network net(small_config(3, 6));
  Harness h(net);
  h.mss[0]->handoff_blob = std::string("origin-state");
  // Cell1 re-exports whatever state it receives so the deferred handoff
  // to cell2 carries cell0's blob onward.
  h.mss[1]->forward_handoff = true;
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 10);
  h.mss[1]->on_joined = [&](MhId mh, MssId) {
    // Leave again immediately, before cell0's HandoffState can arrive.
    net.mh(mh).move_to(mss_id(2), 1);
  };
  // Forward state on the middle hop.
  net.run();
  // cell1 received cell0's state...
  ASSERT_TRUE(h.mss[1]->last_handoff_in.has_value());
  EXPECT_EQ(*h.mss[1]->last_handoff_in.get<std::string>(), "origin-state");
  // ...and cell2 got a handoff reply from cell1 (deferred until then).
  bool got_in = false;
  for (const auto& ev : h.mss[2]->events) {
    got_in |= ev.rfind("handoff_in:mh:0", 0) == 0;
  }
  EXPECT_TRUE(got_in);
  EXPECT_EQ(net.current_mss_of(mh_id(0)), mss_id(2));
}

// --------------------------------------------------------------------------
// send_to_mh / search
// --------------------------------------------------------------------------

TEST(Search, OracleSendChargesSearchPlusWireless) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_to_mh(mh_id(1), std::string("hello"));  // mh1 is in cell1
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(net.ledger().searches(), 1u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 1u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);  // forward leg is inside c_search
}

TEST(Search, LocalTargetStillChargesSearchByDefault) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_to_mh(mh_id(0), 7);  // mh0 is local to mss0
  net.run();
  EXPECT_EQ(net.ledger().searches(), 1u);
}

TEST(Search, LocalHitFreeWhenConfigured) {
  auto cfg = small_config(3, 6);
  cfg.charge_search_for_local = false;
  Network net(cfg);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_to_mh(mh_id(0), 7);
  net.run();
  EXPECT_EQ(net.ledger().searches(), 0u);
  ASSERT_EQ(h.mh[0]->received.size(), 1u);
}

TEST(Search, PendsForInTransitTargetAndDeliversAfterJoin) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).move_to(mss_id(2), 200);
  net.sched().schedule(20, [&] { h.mss[0]->do_send_to_mh(mh_id(1), std::string("chase")); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(h.mh[1]->received[0].at, 200u);
  EXPECT_EQ(net.stats().searches_pended, 1u);
  EXPECT_EQ(net.current_mss_of(mh_id(1)), mss_id(2));
}

TEST(Search, RetriesWhenTargetMovesMidFlight) {
  // Locate resolves, then the MH moves before the downlink lands; the
  // substrate must re-search and still deliver (footnote 1).
  auto cfg = small_config(3, 6);
  cfg.latency.wireless_min = cfg.latency.wireless_max = 20;  // slow air link
  Network net(cfg);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_to_mh(mh_id(1), std::string("moving target"));
  // Oracle resolves at t=4; downlink would land at wired(5)+20. Move at
  // t=12 so the frame misses.
  net.sched().schedule(12, [&] { net.mh(mh_id(1)).move_to(mss_id(2), 5); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(net.stats().delivery_retries, 1u);
  EXPECT_GE(net.ledger().searches(), 2u);  // original + retry
}

TEST(Search, BroadcastModeFindsTargetAndChargesRealMessages) {
  auto cfg = small_config(4, 8);
  cfg.search = SearchMode::kBroadcast;
  Network net(cfg);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_to_mh(mh_id(1), std::string("bc"));  // mh1 in cell1
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(net.ledger().searches(), 0u);  // no abstract charge in broadcast mode
  // (M-1)=3 queries + 1 positive reply + 1 forward = 5 fixed messages.
  EXPECT_EQ(net.ledger().fixed_msgs(), 5u);
}

TEST(Search, BroadcastShortCircuitsWhenTargetIsLocal) {
  auto cfg = small_config(4, 8);
  cfg.search = SearchMode::kBroadcast;
  Network net(cfg);
  Harness h(net);
  net.start();
  h.mss[1]->do_send_to_mh(mh_id(1), 5);  // local to sender
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
}

TEST(Search, BroadcastRetriesUntilInTransitTargetLands) {
  auto cfg = small_config(4, 8);
  cfg.search = SearchMode::kBroadcast;
  Network net(cfg);
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).move_to(mss_id(3), 300);
  net.sched().schedule(10, [&] { h.mss[0]->do_send_to_mh(mh_id(1), std::string("late")); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(h.mh[1]->received[0].at, 300u);
}

// --------------------------------------------------------------------------
// Disconnection
// --------------------------------------------------------------------------

TEST(Disconnect, SetsFlagAtLocalMss) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).disconnect();
  net.run();
  EXPECT_FALSE(net.mss(mss_id(0)).is_local(mh_id(0)));
  EXPECT_TRUE(net.mss(mss_id(0)).has_disconnected_flag(mh_id(0)));
  EXPECT_EQ(h.mss[0]->events.back(), "disconnected:mh:0");
  EXPECT_TRUE(net.is_disconnected(mh_id(0)));
}

TEST(Disconnect, NotifyPolicyReturnsBodyToSender) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).disconnect();
  net.sched().schedule(20, [&] {
    h.mss[0]->do_send_to_mh(mh_id(1), std::string("urgent"), SendPolicy::kNotifyIfDisconnected);
  });
  net.run();
  ASSERT_EQ(h.mss[0]->unreachable.size(), 1u);
  EXPECT_EQ(h.mss[0]->unreachable[0].first, mh_id(1));
  EXPECT_EQ(*h.mss[0]->unreachable[0].second.get<std::string>(), "urgent");
  EXPECT_TRUE(h.mh[1]->received.empty());
  EXPECT_EQ(net.stats().unreachable_notices, 1u);
}

TEST(Disconnect, EventualPolicyParksAndDeliversOnReconnect) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).disconnect();
  net.sched().schedule(20, [&] {
    h.mss[0]->do_send_to_mh(mh_id(1), std::string("stored"), SendPolicy::kEventualDelivery);
  });
  net.sched().schedule(100, [&] { net.mh(mh_id(1)).reconnect_at(mss_id(2), 10); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(*h.mh[1]->received[0].env.body.get<std::string>(), "stored");
  EXPECT_GE(h.mh[1]->received[0].at, 110u);
  EXPECT_EQ(net.stats().queued_for_reconnect, 1u);
  EXPECT_EQ(net.current_mss_of(mh_id(1)), mss_id(2));
}

TEST(Disconnect, ParkedRedeliveryMissChasesOneAttemptDeeperUnderTheRejoinCause) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  auto& host = net.mh(mh_id(1));
  host.disconnect();
  net.sched().schedule(20,
                       [&] { h.mss[0]->do_send_to_mh(mh_id(1), std::string("stored")); });
  // The reconnect join lands at mss:2 at t=112 and the parked message's
  // downlink would land at 114: leave first. The chase finds the host in
  // transit and resumes at its join at mss:0 (t=135), whose forward leg
  // and downlink would land at 142: leave again. The second chase lands.
  net.sched().schedule(100, [&] { host.reconnect_at(mss_id(2), 10); });
  net.sched().schedule(113, [&] { host.move_to(mss_id(0), 20); });
  net.sched().schedule(138, [&] { host.move_to(mss_id(1), 20); });
  net.run();

  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(*h.mh[1]->received[0].env.body.get<std::string>(), "stored");
  EXPECT_EQ(net.stats().queued_for_reconnect, 1u);
  EXPECT_EQ(net.stats().delivery_retries, 2u);
  // The redelivery is attempt 0 of its chase, so the miss after it is
  // the chase's second.
  const auto& depth = net.metrics().histograms().at("net.delivery_retry_depth");
  EXPECT_EQ(depth.count(), 2u);
  EXPECT_EQ(depth.max(), 2u);
  // Every search after the first runs on the causal chain of the rejoin
  // that replayed the message.
  std::vector<obs::EventId> search_causes;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == obs::EventKind::kSearchRound) search_causes.push_back(ev.cause);
  }
  ASSERT_EQ(search_causes.size(), 3u);
  for (std::size_t i = 1; i < search_causes.size(); ++i) {
    EXPECT_NE(search_causes[i], 0u) << "search round " << i;
  }
  ExpectCleanEventStream(net);
}

TEST(Disconnect, ReconnectWithPrevClearsFlagViaHandoff) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).disconnect();
  net.sched().schedule(50, [&] { net.mh(mh_id(0)).reconnect_at(mss_id(1), 5, true); });
  net.run();
  EXPECT_FALSE(net.mss(mss_id(0)).has_disconnected_flag(mh_id(0)));
  EXPECT_TRUE(net.mss(mss_id(1)).is_local(mh_id(0)));
  EXPECT_EQ(net.stats().reconnects, 1u);
}

TEST(Disconnect, ReconnectWithoutPrevQueriesEveryFixedHost) {
  Network net(small_config(4, 8));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).disconnect();
  net.sched().schedule(50, [&] { net.mh(mh_id(0)).reconnect_at(mss_id(2), 5, false); });
  net.run();
  EXPECT_FALSE(net.mss(mss_id(0)).has_disconnected_flag(mh_id(0)));
  EXPECT_TRUE(net.mss(mss_id(2)).is_local(mh_id(0)));
}

TEST(Disconnect, ReconnectWhileConnectedThrows) {
  Network net(small_config(3, 6));
  net.start();
  EXPECT_THROW(net.mh(mh_id(0)).reconnect_at(mss_id(1), 5), std::logic_error);
}

// --------------------------------------------------------------------------
// Parked work (MhAgent::when_connected / run_parked)
// --------------------------------------------------------------------------

/// MH agent that appends its join hook and every action it parks to a
/// log, which several agents on one host may share.
class ParkingMhAgent : public MhAgent {
 public:
  ParkingMhAgent(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(log) {}

  void on_message(const Envelope& /*env*/) override {}
  void on_joined_cell(MssId mss) override {
    log_.push_back(name_ + " joined " + to_string(mss));
  }

  /// Log `tag` now, or after the next join while the host is out of a cell.
  void park(const std::string& tag) {
    when_connected([this, tag] { log_.push_back(name_ + " " + tag); });
  }

  /// Park an action that disconnects the host and then parks `tag`.
  void park_disconnect_then(const std::string& tag) {
    when_connected([this, tag] {
      log_.push_back(name_ + " disconnects");
      net().mh(self()).disconnect();
      park(tag);
    });
  }

 private:
  std::string name_;
  std::vector<std::string>& log_;
};

using Log = std::vector<std::string>;

TEST(ParkedWork, RunsOnceAfterTheJoinOldestFirst) {
  Network net(small_config(3, 6));
  Log log;
  ParkingMhAgent agent("a", log);
  net.mh(mh_id(0)).register_agent(kTestProto, &agent);
  net.start();
  agent.park("now");  // connected: runs at once
  EXPECT_EQ(log, (Log{"a now"}));

  net.mh(mh_id(0)).move_to(mss_id(1), 20);
  agent.park("first");
  agent.park("second");
  net.sched().run_until(15);  // mid-transit: nothing runs
  EXPECT_EQ(log, (Log{"a now"}));
  net.run();
  EXPECT_EQ(log, (Log{"a now", "a joined mss:1", "a first", "a second"}));

  // The queue drained: another move re-runs nothing.
  net.mh(mh_id(0)).move_to(mss_id(2), 5);
  net.run();
  EXPECT_EQ(log, (Log{"a now", "a joined mss:1", "a first", "a second", "a joined mss:2"}));
}

TEST(ParkedWork, RunsAfterAReconnect) {
  Network net(small_config(3, 6));
  Log log;
  ParkingMhAgent agent("a", log);
  net.mh(mh_id(0)).register_agent(kTestProto, &agent);
  net.start();
  net.mh(mh_id(0)).disconnect();
  agent.park("first");
  net.sched().schedule(50, [&] { agent.park("second"); });
  net.sched().schedule(60, [&] { net.mh(mh_id(0)).reconnect_at(mss_id(2), 10); });
  net.sched().run_until(65);
  EXPECT_TRUE(log.empty());
  net.run();
  EXPECT_EQ(log, (Log{"a joined mss:2", "a first", "a second"}));
}

TEST(ParkedWork, EachAgentsHookAndWorkRunBeforeTheNextAgentsInProtocolOrder) {
  Network net(small_config(3, 6));
  Log log;
  ParkingMhAgent a("a", log);
  ParkingMhAgent b("b", log);
  // Registered out of order: the join runs agents by protocol id.
  net.mh(mh_id(0)).register_agent(kTestProto + 1, &b);
  net.mh(mh_id(0)).register_agent(kTestProto, &a);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 20);
  b.park("y");
  a.park("x1");
  a.park("x2");
  net.run();
  EXPECT_EQ(log, (Log{"a joined mss:1", "a x1", "a x2", "b joined mss:1", "b y"}));
}

TEST(ParkedWork, WorkParkedWhileDrainingWaitsForTheFollowingJoin) {
  Network net(small_config(3, 6));
  Log log;
  ParkingMhAgent agent("a", log);
  net.mh(mh_id(0)).register_agent(kTestProto, &agent);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 20);
  agent.park_disconnect_then("again");
  net.run();
  EXPECT_EQ(log, (Log{"a joined mss:1", "a disconnects"}));
  EXPECT_TRUE(net.is_disconnected(mh_id(0)));

  net.mh(mh_id(0)).reconnect_at(mss_id(2), 10);
  net.run();
  EXPECT_EQ(log, (Log{"a joined mss:1", "a disconnects", "a joined mss:2", "a again"}));
}

// --------------------------------------------------------------------------
// MH-to-MH relay
// --------------------------------------------------------------------------

TEST(Relay, DeliversWithTwoWirelessHopsAndOneSearch) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mh[0]->do_send_to_mh(mh_id(1), std::string("peer"));
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(*h.mh[1]->received[0].env.body.get<std::string>(), "peer");
  EXPECT_EQ(h.mh[1]->received[0].env.src.mh(), mh_id(0));
  // §2: MH-to-MH costs 2*c_wireless + c_search.
  EXPECT_EQ(net.ledger().wireless_msgs(), 2u);
  EXPECT_EQ(net.ledger().searches(), 1u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
  // Energy: tx at the source, rx at the destination.
  EXPECT_EQ(net.ledger().energy_at(0, cost::CostParams{}), 1.0);
  EXPECT_EQ(net.ledger().energy_at(1, cost::CostParams{}), 1.0);
}

TEST(Relay, SameCellPeersStillPayFullPath) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mh[0]->do_send_to_mh(mh_id(3), 1);  // both in cell 0
  net.run();
  ASSERT_EQ(h.mh[3]->received.size(), 1u);
  EXPECT_EQ(net.ledger().wireless_msgs(), 2u);
  EXPECT_EQ(net.ledger().searches(), 1u);
}

TEST(Relay, FollowsMovingDestination) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).move_to(mss_id(2), 150);
  net.sched().schedule(10, [&] { h.mh[0]->do_send_to_mh(mh_id(1), std::string("find me")); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(h.mh[1]->received[0].at, 150u);
}

TEST(Relay, WaitsForDisconnectedDestination) {
  // R1's vulnerability: relayed traffic to a disconnected MH parks until
  // (if ever) it reconnects.
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).disconnect();
  net.sched().schedule(20, [&] { h.mh[0]->do_send_to_mh(mh_id(1), std::string("wait")); });
  net.sched().schedule(500, [&] { net.mh(mh_id(1)).reconnect_at(mss_id(0), 5); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(h.mh[1]->received[0].at, 500u);
}

TEST(Relay, FifoResequencesAcrossMoves) {
  // Send a burst mid-move so later messages overtake earlier ones in
  // real arrival order; the resequencer must still deliver 0..19 in
  // order.
  auto cfg = small_config(3, 6);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 30;
  cfg.latency.search_min = 1;
  cfg.latency.search_max = 25;
  Network net(cfg);
  Harness h(net);
  net.start();
  for (int i = 0; i < 10; ++i) h.mh[0]->do_send_to_mh(mh_id(1), i);
  net.sched().schedule(3, [&] { net.mh(mh_id(1)).move_to(mss_id(2), 40); });
  net.sched().schedule(60, [&] {
    for (int i = 10; i < 20; ++i) h.mh[0]->do_send_to_mh(mh_id(1), i);
  });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*h.mh[1]->received[i].env.body.get<int>(), i) << "position " << i;
  }
}

TEST(Relay, NonFifoModeDeliversWithoutBuffering) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mh[0]->do_send_to_mh(mh_id(1), 1, /*fifo=*/false);
  h.mh[0]->do_send_to_mh(mh_id(1), 2, /*fifo=*/false);
  net.run();
  EXPECT_EQ(h.mh[1]->received.size(), 2u);
  EXPECT_EQ(net.stats().relay_reordered, 0u);
}

// --------------------------------------------------------------------------
// Doze mode
// --------------------------------------------------------------------------

TEST(Doze, DeliveriesToDozingHostAreCountedAsInterruptions) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(1)).set_doze(true);
  h.mss[1]->do_send_local(mh_id(1), 1);
  h.mss[1]->do_send_local(mh_id(1), 2);
  net.run();
  EXPECT_EQ(h.mh[1]->received.size(), 2u);
  EXPECT_EQ(net.stats().doze_interruptions, 2u);
}

TEST(Doze, AwakeHostDoesNotCount) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  h.mss[1]->do_send_local(mh_id(1), 1);
  net.run();
  EXPECT_EQ(net.stats().doze_interruptions, 0u);
}

// --------------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------------

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    auto cfg = small_config(4, 12);
    cfg.latency.wired_min = 1;
    cfg.latency.wired_max = 20;
    cfg.seed = seed;
    Network net(cfg);
    Harness h(net);
    net.start();
    for (std::uint32_t i = 0; i < 12; ++i) {
      net.sched().schedule(i * 7, [&, i] {
        const auto from = mh_id(i);
        if (net.mh(from).connected()) {
          h.mh[i]->do_send_to_mh(mh_id((i + 5) % 12), static_cast<int>(i));
        }
      });
      if (i % 3 == 0) {
        net.sched().schedule(i * 11 + 3, [&, i] {
          auto& host = net.mh(mh_id(i));
          if (host.connected()) {
            const auto next =
                static_cast<MssId>((index(host.current_mss()) + 1) % net.num_mss());
            host.move_to(next, 13);
          }
        });
      }
    }
    net.run();
    return std::tuple{net.ledger().fixed_msgs(), net.ledger().wireless_msgs(),
                      net.ledger().searches(), net.stats().joins, net.sched().fired()};
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(std::get<4>(run_once(77)), 0u);
}

// --------------------------------------------------------------------------
// Reliable wireless hop (fault plane installed)
// --------------------------------------------------------------------------

std::size_t count_kind(const Network& net, obs::EventKind kind) {
  std::size_t n = 0;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

TEST(ReliableWireless, DroppedUplinkIsRetransmittedAfterRtoBase) {
  Network net(small_config(3, 6));
  fault::FaultProfile profile;
  profile.drop_first_wireless = 1;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mh[1]->do_send_uplink(std::string("release"));
  net.run();
  // Frame dropped at t=0, retransmitted at t=16 (rto_base), wireless
  // latency 2 — delivered exactly once, never a second copy.
  ASSERT_EQ(h.mss[1]->received.size(), 1u);
  EXPECT_EQ(h.mss[1]->received[0].at, 18u);
  EXPECT_EQ(net.stats().retransmissions, 1u);
  EXPECT_EQ(net.stats().dup_suppressed, 0u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kMsgDropped), 1u);
  ExpectCleanEventStream(net);
}

TEST(ReliableWireless, BackoffDoublesPerAttemptAndRetryDepthIsRecorded) {
  Network net(small_config(3, 6));
  fault::FaultProfile profile;
  profile.drop_first_wireless = 3;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mss[1]->do_send_local(mh_id(1), std::string("grant"));
  net.run();
  // Attempts at t=0, 16, 48; the fourth at t=112 (16+32+64 of capped
  // exponential backoff) finally gets through, +2 wireless latency.
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(h.mh[1]->received[0].at, 114u);
  EXPECT_EQ(net.stats().retransmissions, 3u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kMsgDropped), 3u);
  const auto& depth = net.metrics().histograms().at("net.delivery_retry_depth");
  EXPECT_EQ(depth.count(), 3u);
  EXPECT_EQ(depth.max(), 3u);  // deepest recorded attempt number
  ExpectCleanEventStream(net);
}

TEST(ReliableWireless, DuplicatedDownlinkIsSuppressedExactlyOnce) {
  Network net(small_config(3, 6));
  fault::FaultProfile profile;
  profile.dup_first_wireless = 1;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mss[1]->do_send_local(mh_id(1), std::string("grant"));
  net.run();
  // The link-layer copy reaches the MH but the dedup window kills it:
  // one application delivery, one rx charge, one suppression.
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(net.stats().dup_suppressed, 1u);
  EXPECT_EQ(net.ledger().wireless_rx(), 1u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kMsgDuplicated), 1u);
  std::size_t recvs_at_mh = 0;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == obs::EventKind::kRecv && ev.entity == obs::Entity::mh(1)) ++recvs_at_mh;
  }
  EXPECT_EQ(recvs_at_mh, 1u);  // the suppressed copy emits no recv
  ExpectCleanEventStream(net);
}

TEST(ReliableWireless, DuplicatedUplinkIsSuppressedExactlyOnce) {
  Network net(small_config(3, 6));
  fault::FaultProfile profile;
  profile.dup_first_wireless = 1;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mh[1]->do_send_uplink(std::string("release"));
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 1u);
  EXPECT_EQ(net.stats().dup_suppressed, 1u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kMsgDuplicated), 1u);
  ExpectCleanEventStream(net);
}

// The first frame is lost and retransmitted behind the two later frames
// of its channel (each of those followed by a link-layer copy). While the
// gap is open, the channel's dedup window sits in the cell's side table;
// the retransmission fills the gap, and the floor goes back to the
// record.
TEST(ReliableWireless, FrameRetransmittedBehindLaterFramesParksThenDrainsTheWindow) {
  Network net(small_config(3, 6));
  fault::FaultProfile profile;
  profile.drop_first_wireless = 1;
  profile.dup_first_wireless = 2;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  for (int i = 0; i < 3; ++i) h.mss[1]->do_send_local(mh_id(1), i);
  EXPECT_EQ(net.parked_windows(), 0u);
  // Frames 2 and 3 and their copies land at t=2; frame 1 is sent again
  // at t=16 and lands at t=18.
  bool checked_open_gap = false;
  net.sched().schedule_at(10, [&] {
    EXPECT_EQ(net.parked_windows(), 1u);
    const auto open = net.wireless_dedup(mss_id(1), mh_id(1), /*downlink=*/true);
    EXPECT_EQ(open.floor, 0u);
    EXPECT_EQ(open.parked, 2u);
    EXPECT_EQ(net.wireless_dedup(mss_id(1), mh_id(1), /*downlink=*/false).parked, 0u);
    checked_open_gap = true;
  });
  net.run();
  EXPECT_TRUE(checked_open_gap);
  EXPECT_EQ(net.parked_windows(), 0u);
  const auto closed = net.wireless_dedup(mss_id(1), mh_id(1), /*downlink=*/true);
  EXPECT_EQ(closed.floor, 3u);
  EXPECT_EQ(closed.parked, 0u);
  // Exactly once each, in arrival order; both copies suppressed.
  ASSERT_EQ(h.mh[1]->received.size(), 3u);
  const int expected[] = {1, 2, 0};
  for (std::size_t k = 0; k < 3; ++k) {
    const auto* payload = net::body_as<int>(h.mh[1]->received[k].env);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, expected[k]);
  }
  EXPECT_EQ(h.mh[1]->received[2].at, 18u);
  EXPECT_EQ(net.stats().dup_suppressed, 2u);
  EXPECT_EQ(net.stats().retransmissions, 1u);
  ExpectCleanEventStream(net);
}

TEST(ReliableWireless, LostLeaveIsNotRetransmittedAfterTheNextJoin) {
  Network net(small_config(3, 6));
  fault::FaultProfile profile;
  profile.drop_first_wireless = 1;
  net.install_fault_plane(profile);
  net.start();
  net.mh(mh_id(1)).move_to(mss_id(2), 2);
  net.run();
  // The Leave is dropped at t=0 and the MH joins cell 2 at t=4, so the
  // Leave's t=16 retry describes a departure the join superseded: it is
  // abandoned, not sent again.
  EXPECT_EQ(net.current_mss_of(mh_id(1)), mss_id(2));
  const auto old_uplink = Network::channel_key(Network::ChannelType::kUplink, 1, 1);
  std::size_t sends = 0;
  std::size_t recvs = 0;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.channel != old_uplink) continue;
    if (ev.kind == obs::EventKind::kSend) ++sends;
    if (ev.kind == obs::EventKind::kRecv) ++recvs;
  }
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(recvs, 0u);
  ExpectCleanEventStream(net);
}

TEST(ReliableWireless, LostJoinStopsRetryingOnceConnected) {
  Network net(small_config(4, 8));
  net.start();
  net.mh(mh_id(1)).disconnect();  // its Disconnect frame predates the plane
  fault::FaultProfile profile;
  profile.drop_first_wireless = 1;
  net.install_fault_plane(profile);
  net.mh(mh_id(1)).reconnect_at(mss_id(2), 1);
  net.mh(mh_id(1)).reconnect_at(mss_id(3), 3);
  net.run();
  // The join to cell 2 is dropped at t=1; the join to cell 3 connects
  // the MH at t=5. The first join's t=17 retry finds the MH connected
  // and gives up instead of re-joining cell 2.
  EXPECT_EQ(net.current_mss_of(mh_id(1)), mss_id(3));
  EXPECT_FALSE(net.mss(mss_id(2)).is_local(mh_id(1)));
  EXPECT_EQ(net.stats().joins, 1u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Trace instrumentation
// --------------------------------------------------------------------------

TEST(TraceInstrumentation, SubstrateEventsAreRecorded) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 5);
  net.sched().schedule(50, [&] { net.mh(mh_id(2)).disconnect(); });
  net.sched().schedule(60, [&] { h.mss[0]->do_send_to_mh(mh_id(1), 1); });
  net.run();
  EXPECT_EQ(net.stats().joins, 1u);
  EXPECT_EQ(net.stats().handoffs, 1u);
  EXPECT_EQ(net.stats().disconnects, 1u);
  // Each action is in the event stream, attributed to the right host.
  const auto count = [&net](obs::EventKind kind, auto&& match) {
    std::size_t n = 0;
    net.events().for_each([&](const obs::Event& ev) {
      if (ev.kind == kind && match(ev)) ++n;
    });
    return n;
  };
  EXPECT_EQ(count(obs::EventKind::kHandoffBegin,
                  [](const obs::Event& ev) { return ev.arg == 0; }),  // arg = the MH
            1u);
  EXPECT_EQ(count(obs::EventKind::kDisconnect,
                  [](const obs::Event& ev) { return ev.entity == obs::Entity::mh(2); }),
            1u);
  EXPECT_GE(count(obs::EventKind::kSearchRound,
                  [](const obs::Event& ev) { return ev.peer == obs::Entity::mh(1); }),
            1u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Config validation
// --------------------------------------------------------------------------

TEST(ConfigValidation, InvertedLatencyRangesThrow) {
  auto wired = small_config();
  wired.latency.wired_min = 10;
  wired.latency.wired_max = 2;
  EXPECT_THROW(Network{wired}, std::invalid_argument);

  auto wireless = small_config();
  wireless.latency.wireless_min = 5;
  wireless.latency.wireless_max = 1;
  EXPECT_THROW(Network{wireless}, std::invalid_argument);

  auto search = small_config();
  search.latency.search_min = 9;
  search.latency.search_max = 3;
  EXPECT_THROW(Network{search}, std::invalid_argument);
}

TEST(ConfigValidation, OversizedIdSpaceThrows) {
  // Ids must fit the 30-bit channel-key fields; the constructor rejects
  // oversized populations before allocating anything.
  auto cfg = small_config();
  cfg.num_mh = Network::kMaxEndpointIndex + 2;
  EXPECT_THROW(Network{cfg}, std::invalid_argument);
}

// --------------------------------------------------------------------------
// Channel-key packing
// --------------------------------------------------------------------------

TEST(ChannelKey, WideIdsDoNotAlias) {
  using CT = Network::ChannelType;
  // The old packing ((type << 48) | (a << 24) | b) collapsed these pairs
  // onto one key; the 4/30/30 split must keep them distinct.
  EXPECT_NE(Network::channel_key(CT::kWired, 1, 0),
            Network::channel_key(CT::kWired, 0, 1u << 24));
  EXPECT_NE(Network::channel_key(CT::kWired, (1u << 24) | 7, 3),
            Network::channel_key(CT::kWired, 7, (3u << 24) | 3));
  // Full 30-bit endpoints stay distinct in both positions.
  const std::uint32_t wide = Network::kMaxEndpointIndex;
  EXPECT_NE(Network::channel_key(CT::kUplink, wide, 0),
            Network::channel_key(CT::kUplink, 0, wide));
  // Direction matters (ordered channels)...
  EXPECT_NE(Network::channel_key(CT::kWired, 2, 5), Network::channel_key(CT::kWired, 5, 2));
  // ...and so does the channel type for the same endpoints.
  EXPECT_NE(Network::channel_key(CT::kUplink, 4, 1),
            Network::channel_key(CT::kDownlink, 4, 1));
  EXPECT_NE(Network::channel_key(CT::kWired, 4, 1), Network::channel_key(CT::kUplink, 4, 1));
}

TEST(ChannelKey, FifoNonOvertakingPerChannelUnderJitter) {
  // Property: with heavy latency jitter, every ordered MSS pair's wired
  // channel delivers in send order, and streams from different senders
  // stay independently ordered at one receiver.
  auto cfg = small_config(5, 5);
  cfg.latency.wired_min = 1;
  cfg.latency.wired_max = 80;
  cfg.seed = 909;
  Network net(cfg);
  Harness h(net);
  net.start();
  constexpr int kPerPair = 25;
  for (int i = 0; i < kPerPair; ++i) {
    net.sched().schedule(1 + 2 * i, [&, i] {
      h.mss[1]->do_send_wired(mss_id(0), 1000 + i);  // stream 1 -> 0
      h.mss[2]->do_send_wired(mss_id(0), 2000 + i);  // stream 2 -> 0
      h.mss[3]->do_send_wired(mss_id(4), 3000 + i);  // stream 3 -> 4
    });
  }
  net.run();
  ASSERT_EQ(h.mss[0]->received.size(), 2u * kPerPair);
  ASSERT_EQ(h.mss[4]->received.size(), static_cast<std::size_t>(kPerPair));
  int last1 = 0, last2 = 0;
  for (const auto& rec : h.mss[0]->received) {
    const int value = *rec.env.body.get<int>();
    if (value < 2000) {
      EXPECT_GT(value, last1) << "stream 1->0 overtook itself";
      last1 = value;
    } else {
      EXPECT_GT(value, last2) << "stream 2->0 overtook itself";
      last2 = value;
    }
  }
  for (int i = 0; i < kPerPair; ++i) {
    EXPECT_EQ(*h.mss[4]->received[i].env.body.get<int>(), 3000 + i);
  }
}

// --------------------------------------------------------------------------
// Single-MSS broadcast search
// --------------------------------------------------------------------------

TEST(Search, SingleMssBroadcastParksForInTransitTarget) {
  // Regression: the single-MSS fast path used to report an in-transit MH
  // as connected, making the downlink fail and retry until the join
  // landed. It must park the resolution like the multi-MSS path does.
  auto cfg = small_config(1, 2);
  cfg.search = SearchMode::kBroadcast;
  Network net(cfg);
  Harness h(net);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(1)).move_to(mss_id(0), 120); });
  net.sched().schedule(5, [&] { h.mss[0]->do_send_to_mh(mh_id(1), 42); });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(*h.mh[1]->received[0].env.body.get<int>(), 42);
  EXPECT_GE(h.mh[1]->received[0].at, 121u);  // delivered only after the join
  EXPECT_EQ(net.stats().searches_pended, 1u);
  EXPECT_EQ(net.stats().delivery_retries, 0u);  // no fail/retry spin
}

TEST(Search, SingleMssBroadcastStillResolvesConnectedAndDisconnected) {
  auto cfg = small_config(1, 3);
  cfg.search = SearchMode::kBroadcast;
  Network net(cfg);
  Harness h(net);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(2)).disconnect(); });
  net.sched().schedule(5, [&] {
    h.mss[0]->do_send_to_mh(mh_id(1), 7);  // connected: immediate local delivery
    h.mss[0]->do_send_to_mh(mh_id(2), 8, SendPolicy::kNotifyIfDisconnected);
  });
  net.run();
  ASSERT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_EQ(h.mh[2]->received.size(), 0u);
  ASSERT_EQ(h.mss[0]->unreachable.size(), 1u);  // disconnected flag honoured
  EXPECT_EQ(net.stats().searches_pended, 0u);
}

// --------------------------------------------------------------------------
// Sharded engine
// --------------------------------------------------------------------------

// Regression: the conservative window width is exactly the wired-latency
// lower bound — the network's only cross-shard channel — and a sharded
// network refuses a zero lower bound (lookahead must be >= 1).
TEST(ShardedEngine, LookaheadIsTheWiredLatencyLowerBound) {
  auto cfg = small_config();  // wired_min = 5
  cfg.shards = 2;
  Network net(cfg);
  EXPECT_TRUE(net.sharded());
  EXPECT_EQ(net.lookahead(), cfg.latency.wired_min);

  cfg.latency.wired_min = 0;
  cfg.latency.wired_max = 4;
  EXPECT_THROW(Network bad(cfg), std::invalid_argument);
  cfg.shards = 0;  // the legacy engine has no lookahead constraint
  Network legacy(cfg);
  EXPECT_FALSE(legacy.sharded());
}

TEST(ShardedEngine, MutatingEntryPointsThrow) {
  auto cfg = small_config();
  cfg.shards = 2;
  Network net(cfg);
  Harness h(net);
  net.start();
  EXPECT_THROW(net.mh(mh_id(1)).move_to(mss_id(0), 10), std::logic_error);
  EXPECT_THROW(net.mh(mh_id(1)).disconnect(), std::logic_error);
  EXPECT_THROW(h.mss[0]->do_send_to_mh(mh_id(4), 1), std::logic_error);
}

namespace sharded {

struct ChainTotals {
  std::string jsonl;          ///< canonical merged stream
  std::uint64_t fixed_msgs = 0;
  std::uint64_t wired_packets = 0;
  std::uint64_t fired = 0;
  std::size_t received = 0;   ///< messages seen by all recording agents
};

/// A wired ring chain: every MSS starts a message that hops around the
/// ring `kHops` times. Static topology, cross-shard wired traffic only —
/// the workload the sharded engine exists for. Latencies keep their
/// jittered defaults so per-lane RNG draws are load-bearing.
ChainTotals run_wired_chain(std::uint32_t shards, FormationConfig formation = {}) {
  constexpr std::uint32_t kMss = 4;
  constexpr int kHops = 12;
  NetConfig cfg;
  cfg.num_mss = kMss;
  cfg.num_mh = 8;
  cfg.seed = 77;
  cfg.shards = shards;
  cfg.formation = formation;
  Network net(cfg);
  Harness h(net);
  for (std::uint32_t i = 0; i < kMss; ++i) {
    // Each bounce runs on the receiving MSS's own shard, so replying
    // through that MSS's agent is shard-local by construction.
    h.mss[i]->on_msg = [&h, i](const Envelope& env) {
      const int v = *env.body.get<int>();
      if (v > 0) h.mss[i]->do_send_wired(mss_id((i + 1) % kMss), v - 1);
    };
  }
  net.start();
  for (std::uint32_t i = 0; i < kMss; ++i) {
    net.schedule_on_lane(i, 1 + i, [&h, i] {
      h.mss[i]->do_send_wired(mss_id((i + 1) % kMss), int{kHops});
    });
  }
  net.run();

  ChainTotals totals;
  {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectCleanEventStream(net);
  }
  totals.jsonl = obs::to_jsonl(std::span<const obs::Event>(net.merged_events()));
  totals.fixed_msgs = net.ledger().fixed_msgs();
  totals.wired_packets = net.ledger().wired_packets();
  totals.fired = net.total_fired();
  for (const auto* agent : h.mss) totals.received += agent->received.size();
  return totals;
}

}  // namespace sharded

// The headline guarantee at the unit level: the canonical merged stream,
// the folded cost ledger, and the fired-event total are identical no
// matter how the four lanes are grouped — and the single-shard sharded
// run differs from the legacy engine (per-lane RNG streams), which is
// why the sharded engine keeps its own goldens.
TEST(ShardedEngine, WiredChainIdenticalForEveryShardCount) {
  const auto s1 = sharded::run_wired_chain(1);
  ASSERT_GT(s1.received, 0u);
  ASSERT_NE(s1.jsonl.find("\"kind\":\"recv\""), std::string::npos);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto sn = sharded::run_wired_chain(shards);
    EXPECT_EQ(sn.jsonl, s1.jsonl);
    EXPECT_EQ(sn.fixed_msgs, s1.fixed_msgs);
    EXPECT_EQ(sn.wired_packets, s1.wired_packets);
    EXPECT_EQ(sn.fired, s1.fired);
    EXPECT_EQ(sn.received, s1.received);
  }
  const auto legacy = sharded::run_wired_chain(0);
  EXPECT_EQ(legacy.received, s1.received);   // same messages delivered...
  EXPECT_NE(legacy.jsonl, s1.jsonl);         // ...on different sampled timings
}

// Same invariance with the formation (packet-batching) layer enabled:
// formation queues are per-slice but keyed per (src,dst) pair, so
// batching decisions are a pure function of each pair's traffic and
// must not depend on the grouping either.
TEST(ShardedEngine, FormationBatchingIdenticalForEveryShardCount) {
  FormationConfig formation;
  formation.max_packet_msgs = 3;
  formation.flush_deadline = 4;
  const auto s1 = sharded::run_wired_chain(1, formation);
  ASSERT_NE(s1.jsonl.find("\"kind\":\"packet_send\""), std::string::npos)
      << "formation layer never formed a packet";
  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto sn = sharded::run_wired_chain(shards, formation);
    EXPECT_EQ(sn.jsonl, s1.jsonl);
    EXPECT_EQ(sn.wired_packets, s1.wired_packets);
  }
}

}  // namespace
}  // namespace mobidist::test
