// Edge cases and error contracts across the library: id formatting,
// envelope typing, agent registration, dispatch errors, event-limit
// behaviour, strategy misuse, and disconnect behaviour of the §4
// strategies.

#include <gtest/gtest.h>

#include "group/always_inform.hpp"
#include "group/location_view.hpp"
#include "group/pure_search.hpp"
#include "mutex/l2.hpp"
#include "mutex/r1.hpp"
#include "mutex/r2.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

using group::Group;

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

// --------------------------------------------------------------------------
// ids / envelope
// --------------------------------------------------------------------------

TEST(Ids, ToStringFormats) {
  EXPECT_EQ(to_string(mss_id(3)), "mss:3");
  EXPECT_EQ(to_string(mh_id(12)), "mh:12");
  EXPECT_EQ(to_string(kInvalidMss), "mss:?");
  EXPECT_EQ(to_string(kInvalidMh), "mh:?");
}

TEST(Ids, NodeRefDiscriminatesKinds) {
  const NodeRef station = mss_id(1);
  const NodeRef host = mh_id(1);
  EXPECT_TRUE(station.is_mss());
  EXPECT_FALSE(station.is_mh());
  EXPECT_TRUE(host.is_mh());
  EXPECT_NE(station, host);  // same index, different kind
  EXPECT_EQ(NodeRef(mss_id(1)), NodeRef(mss_id(1)));
  EXPECT_EQ(to_string(NodeRef{}), "none");
}

TEST(Envelope, BodyAsReturnsNullOnTypeMismatch) {
  const auto env = net::make_envelope(net::protocol::kUserBase, NodeRef(mss_id(0)),
                                      NodeRef(mss_id(1)), std::string("x"));
  EXPECT_NE(net::body_as<std::string>(env), nullptr);
  EXPECT_EQ(net::body_as<int>(env), nullptr);
  EXPECT_FALSE(env.control);
  const auto ctl = net::make_control(NodeRef(mss_id(0)), NodeRef(mss_id(1)), 5);
  EXPECT_TRUE(ctl.control);
}

// --------------------------------------------------------------------------
// registration & dispatch contracts
// --------------------------------------------------------------------------

// A host holds no agent container: its agents live in the Network's
// per-protocol tables. A MobileHost is one cache-line row.
static_assert(sizeof(MobileHost) == 64 && alignof(MobileHost) == 64 && sizeof(Mss) <= 64);

TEST(Registration, DuplicateProtocolThrows) {
  Network net(small_config());
  RecordingMssAgent a;
  RecordingMssAgent b;
  net.mss(mss_id(0)).register_agent(kTestProto, &a);
  EXPECT_THROW(net.mss(mss_id(0)).register_agent(kTestProto, &b), std::invalid_argument);
  RecordingMhAgent ha;
  RecordingMhAgent hb;
  net.mh(mh_id(0)).register_agent(kTestProto, &ha);
  EXPECT_THROW(net.mh(mh_id(0)).register_agent(kTestProto, &hb), std::invalid_argument);
}

TEST(Registration, NullAgentThrows) {
  Network net(small_config());
  EXPECT_THROW(net.mss(mss_id(0)).register_agent(kTestProto, nullptr),
               std::invalid_argument);
  EXPECT_THROW(net.mh(mh_id(0)).register_agent(kTestProto, nullptr),
               std::invalid_argument);
}

using Log = std::vector<std::string>;

/// Station agent that logs "<name> <callback>" into a shared log and
/// hands its name over as its handoff state.
class OrderLogMssAgent : public MssAgent {
 public:
  OrderLogMssAgent(std::string name, Log& log) : name_(std::move(name)), log_(log) {}
  void on_start() override { note("start"); }
  void on_message(const Envelope& /*env*/) override {}
  void on_mh_joined(MhId /*mh*/, MssId /*prev*/) override { note("joined"); }
  void on_mh_left(MhId /*mh*/) override { note("left"); }
  void on_mh_disconnected(MhId /*mh*/) override { note("disconnected"); }
  void on_mh_reconnected(MhId /*mh*/, MssId /*prev*/) override { note("reconnected"); }
  void on_disconnected_mh_migrated(MhId /*mh*/, MssId /*to*/) override {
    note("migrated");
  }
  Body on_handoff_out(MhId /*mh*/) override {
    note("handoff_out");
    return name_;
  }
  void on_handoff_in(MhId /*mh*/, MssId /*from*/, const Body& state) override {
    note("handoff_in " + *state.get<std::string>());
  }

 private:
  void note(const std::string& what) { log_.push_back(name_ + " " + what); }
  std::string name_;
  Log& log_;
};

/// Host counterpart of OrderLogMssAgent.
class OrderLogMhAgent : public MhAgent {
 public:
  OrderLogMhAgent(std::string name, Log& log) : name_(std::move(name)), log_(log) {}
  void on_start() override { log_.push_back(name_ + " start"); }
  void on_message(const Envelope& /*env*/) override {}
  void on_joined_cell(MssId /*mss*/) override { log_.push_back(name_ + " joined"); }
  void on_left_cell() override { log_.push_back(name_ + " left"); }

 private:
  std::string name_;
  Log& log_;
};

// Two protocols on mss:0, mss:1 and mh:0, registered higher id first:
// every notification still reaches A (kTestProto) before B (the next
// id), one agent at a time, and each protocol's handoff state reaches
// the same protocol's agent.
TEST(Registration, NotificationsWalkProtocolsInAscendingId) {
  Network net(small_config(3, 6));  // mh:0 starts in mss:0's cell
  Log at_mss0;
  Log at_mss1;
  Log at_mh0;
  OrderLogMssAgent a0("A", at_mss0);
  OrderLogMssAgent b0("B", at_mss0);
  OrderLogMssAgent a1("A", at_mss1);
  OrderLogMssAgent b1("B", at_mss1);
  OrderLogMhAgent ha("A", at_mh0);
  OrderLogMhAgent hb("B", at_mh0);
  net.mss(mss_id(0)).register_agent(kTestProto + 1, &b0);
  net.mss(mss_id(0)).register_agent(kTestProto, &a0);
  net.mss(mss_id(1)).register_agent(kTestProto + 1, &b1);
  net.mss(mss_id(1)).register_agent(kTestProto, &a1);
  net.mh(mh_id(0)).register_agent(kTestProto + 1, &hb);
  net.mh(mh_id(0)).register_agent(kTestProto, &ha);
  net.start();

  auto& host = net.mh(mh_id(0));
  host.move_to(mss_id(1), 20);  // mss:0 sees the leave, then hands state out
  net.run();
  host.move_to(mss_id(0), 20);  // back: a join, then mss:1's state comes in
  net.run();
  host.disconnect();
  net.run();
  host.reconnect_at(mss_id(1), 10);  // mss:0's flag migrates, state goes out
  net.run();
  host.disconnect();
  net.run();
  host.reconnect_at(mss_id(0), 10);  // a reconnect here, state comes in
  net.run();

  EXPECT_EQ(at_mss0, (Log{"A start",         "B start",         "A left",
                          "B left",          "A handoff_out",   "B handoff_out",
                          "A joined",        "B joined",        "A handoff_in A",
                          "B handoff_in B",  "A disconnected",  "B disconnected",
                          "A migrated",      "B migrated",      "A handoff_out",
                          "B handoff_out",   "A joined",        "A reconnected",
                          "B joined",        "B reconnected",   "A handoff_in A",
                          "B handoff_in B"}));
  EXPECT_EQ(at_mh0, (Log{"A start", "B start",  "A left",   "B left",   "A joined",
                         "B joined", "A left",  "B left",   "A joined", "B joined",
                         "A left",   "B left",  "A joined", "B joined", "A left",
                         "B left",   "A joined", "B joined"}));
  ExpectCleanEventStream(net);
}

TEST(Dispatch, UnknownProtocolAtMssThrows) {
  Network net(small_config());
  net.start();
  Envelope env = net::make_envelope(net::protocol::kUserBase + 3, NodeRef(mss_id(0)),
                                    NodeRef(mss_id(1)), 1);
  EXPECT_THROW(net.mss(mss_id(1)).dispatch(env), std::logic_error);
}

TEST(Dispatch, AgentLookupByProtocol) {
  Network net(small_config());
  RecordingMssAgent agent;
  net.mss(mss_id(0)).register_agent(kTestProto, &agent);
  EXPECT_EQ(net.mss(mss_id(0)).agent(kTestProto), &agent);
  EXPECT_EQ(net.mss(mss_id(0)).agent(kTestProto + 1), nullptr);
}

// --------------------------------------------------------------------------
// network limits & accessors
// --------------------------------------------------------------------------

TEST(NetworkLimits, EventLimitFlagSurfaces) {
  Network net(small_config());
  Harness h(net);
  net.start();
  // Self-perpetuating ping-pong between two stations.
  h.mss[0]->on_msg = [&](const Envelope&) { h.mss[0]->do_send_wired(mss_id(1), 0); };
  h.mss[1]->on_msg = [&](const Envelope&) { h.mss[1]->do_send_wired(mss_id(0), 0); };
  h.mss[0]->do_send_wired(mss_id(1), 0);
  net.run(/*event_limit=*/500);
  EXPECT_TRUE(net.sched().hit_event_limit());
}

TEST(NetworkAccessors, StateQueriesAgreeWithLifecycle) {
  Network net(small_config(3, 3));
  net.start();
  EXPECT_FALSE(net.is_in_transit(mh_id(0)));
  EXPECT_FALSE(net.is_disconnected(mh_id(0)));
  net.mh(mh_id(0)).move_to(mss_id(1), 50);
  EXPECT_TRUE(net.is_in_transit(mh_id(0)));
  net.run();
  net.mh(mh_id(0)).disconnect();
  net.run();
  EXPECT_TRUE(net.is_disconnected(mh_id(0)));
  EXPECT_EQ(net.mh(mh_id(0)).last_mss(), mss_id(1));
}

TEST(NetworkAccessors, JoinsCompletedCountsMovesAndReconnects) {
  Network net(small_config(3, 3));
  net.start();
  EXPECT_EQ(net.mh(mh_id(0)).joins_completed(), 0u);
  net.mh(mh_id(0)).move_to(mss_id(1), 2);
  net.run();
  EXPECT_EQ(net.mh(mh_id(0)).joins_completed(), 1u);
  net.mh(mh_id(0)).disconnect();
  net.run();
  net.mh(mh_id(0)).reconnect_at(mss_id(2), 2);
  net.run();
  EXPECT_EQ(net.mh(mh_id(0)).joins_completed(), 2u);
}

TEST(MobileHostErrors, RelayWhileInTransitThrows) {
  Network net(small_config(3, 4));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 100);
  EXPECT_THROW(net.mh(mh_id(0)).send_relay(mh_id(1), kTestProto, 1, true),
               std::logic_error);
  net.run();
}

// --------------------------------------------------------------------------
// group strategy contracts & disconnect behaviour
// --------------------------------------------------------------------------

TEST(GroupContracts, NonMemberSenderThrows) {
  Network net(small_config(4, 8));
  const auto group = Group::of({mh_id(0), mh_id(1)});
  group::PureSearchGroup ps(net, group, net::protocol::kUserBase + 1);
  group::AlwaysInformGroup ai(net, group, net::protocol::kUserBase + 2);
  group::LocationViewGroup lv(net, group, mss_id(0), net::protocol::kUserBase + 3);
  net.start();
  EXPECT_THROW(ps.send_group_message(mh_id(5)), std::invalid_argument);
  EXPECT_THROW(ai.send_group_message(mh_id(5)), std::invalid_argument);
  EXPECT_THROW(lv.send_group_message(mh_id(5)), std::invalid_argument);
}

TEST(GroupDisconnect, PureSearchParksForDisconnectedMember) {
  Network net(small_config(4, 8));
  const auto group = Group::of({mh_id(0), mh_id(1), mh_id(2)});
  group::PureSearchGroup comm(net, group);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(2)).disconnect(); });
  net.sched().schedule(20, [&] { comm.send_group_message(mh_id(0)); });
  net.sched().schedule(400, [&] { net.mh(mh_id(2)).reconnect_at(mss_id(3), 5); });
  net.run();
  EXPECT_TRUE(comm.monitor().exactly_once(group));
}

TEST(GroupDisconnect, AlwaysInformDeliversAfterReconnect) {
  Network net(small_config(4, 8));
  const auto group = Group::of({mh_id(0), mh_id(1), mh_id(2)});
  group::AlwaysInformGroup comm(net, group);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(2)).disconnect(); });
  net.sched().schedule(20, [&] { comm.send_group_message(mh_id(0)); });
  net.sched().schedule(400, [&] { net.mh(mh_id(2)).reconnect_at(mss_id(1), 5); });
  net.run();
  EXPECT_TRUE(comm.monitor().exactly_once(group));
}

TEST(GroupDisconnect, SenderDeferredWhileInTransit) {
  // send_group_message on a host that is mid-move goes out after it
  // lands (all three strategies share the deferral helper; spot-check
  // pure search).
  Network net(small_config(4, 8));
  const auto group = Group::of({mh_id(0), mh_id(1), mh_id(2)});
  group::PureSearchGroup comm(net, group);
  net.start();
  net.sched().schedule(1, [&] { net.mh(mh_id(0)).move_to(mss_id(3), 100); });
  net.sched().schedule(10, [&] { comm.send_group_message(mh_id(0)); });
  net.run();
  EXPECT_TRUE(comm.monitor().exactly_once(group));
}

// --------------------------------------------------------------------------
// multiple outstanding requests from one MH (L2)
// --------------------------------------------------------------------------

TEST(L2Edge, SameHostMayQueueSeveralRequests) {
  Network net(small_config(3, 6));
  mutex::CsMonitor monitor;
  mutex::L2Mutex l2(net, monitor);
  net.start();
  net.sched().schedule(1, [&] { l2.request(mh_id(0)); });
  net.sched().schedule(2, [&] { l2.request(mh_id(0)); });
  net.sched().schedule(3, [&] { l2.request(mh_id(0)); });
  net.run();
  EXPECT_EQ(l2.completed(), 3u);
  EXPECT_EQ(monitor.grants(), 3u);
  EXPECT_EQ(monitor.violations(), 0u);
}

// --------------------------------------------------------------------------
// wired self-send ordering and control accounting
// --------------------------------------------------------------------------

TEST(WiredEdge, SelfSendDoesNotReenterSynchronously) {
  Network net(small_config());
  Harness h(net);
  net.start();
  bool received_during_send = false;
  bool sent = false;
  h.mss[0]->on_msg = [&](const Envelope&) { received_during_send = !sent; };
  net.sched().schedule(1, [&] {
    h.mss[0]->do_send_wired(mss_id(0), 1);
    sent = true;  // runs before the delivery event fires
  });
  net.run();
  ASSERT_EQ(h.mss[0]->received.size(), 1u);
  EXPECT_FALSE(received_during_send);
}

TEST(StatsEdge, ControlAndChargedTrafficSeparate) {
  Network net(small_config(3, 6));
  Harness h(net);
  net.start();
  net.mh(mh_id(0)).move_to(mss_id(1), 3);   // control only
  net.sched().schedule(50, [&] { h.mss[0]->do_send_wired(mss_id(2), 1); });  // charged
  net.run();
  EXPECT_EQ(net.ledger().fixed_msgs(), 1u);
  EXPECT_GT(net.stats().control_msgs, 0u);
}

// --------------------------------------------------------------------------
// CsMonitor / R1 odds and ends
// --------------------------------------------------------------------------

TEST(R1Edge, TokenWithZeroTraversalsAbsorbsImmediately) {
  Network net(small_config(3, 4));
  mutex::CsMonitor monitor;
  mutex::R1Mutex r1(net, monitor);
  net.start();
  net.sched().schedule(1, [&] { r1.start_token(0); });
  net.run();
  // One full loop happens before the counter is checked at mh0.
  EXPECT_TRUE(r1.token_absorbed());
}

TEST(R2Edge, TokenSurvivesRequesterlessTraversals) {
  Network net(small_config(3, 4));
  mutex::CsMonitor monitor;
  mutex::R2Mutex r2(net, monitor, mutex::RingVariant::kTokenList);
  net.start();
  net.sched().schedule(1, [&] { r2.start_token(5); });
  net.run();
  EXPECT_TRUE(r2.token_absorbed());
  EXPECT_EQ(r2.traversals_done(), 5u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 5u * 3u);
}

}  // namespace
}  // namespace mobidist::test
