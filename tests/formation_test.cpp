// Formation-layer tests: trigger policy (count/bytes/deadline/barrier),
// cost amortization of the per-packet wired charge, packet-event FIFO
// checking, equivalence of delivered traffic with and without batching,
// plus the wire-path bugfix regressions that ride this layer's PR:
// saturating retransmit backoff and the bounded wseq dedup window.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plane.hpp"
#include "net/formation.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

/// small_config with batching enabled.
NetConfig batching_config(std::uint32_t deadline, std::uint32_t max_msgs = 16,
                          std::uint32_t max_bytes = 4096) {
  auto cfg = small_config();
  cfg.formation.flush_deadline = deadline;
  cfg.formation.max_packet_msgs = max_msgs;
  cfg.formation.max_packet_bytes = max_bytes;
  return cfg;
}

std::size_t count_kind(const Network& net, obs::EventKind kind) {
  std::size_t n = 0;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

/// One sample per formed packet, valued at its message count: count()
/// is the packets formed, sum() the messages they carried.
const obs::Histogram& packet_msgs(const Network& net) {
  return net.metrics().histograms().at("net.formation.packet_msgs");
}

/// Packets cut by `trigger`: "size" (count or bytes), "deadline" or
/// "barrier".
std::uint64_t flushes(const Network& net, const std::string& trigger) {
  return net.metrics().counters().at("net.formation." + trigger + "_flushes").value();
}

// --------------------------------------------------------------------------
// Construction / passthrough
// --------------------------------------------------------------------------

TEST(Formation, PassthroughHasNoLayer) {
  Network net(small_config());
  EXPECT_EQ(net.formation(), nullptr);
  EXPECT_TRUE(net.config().formation.passthrough());
}

TEST(Formation, BatchingConstructsLayer) {
  Network net(batching_config(10));
  ASSERT_NE(net.formation(), nullptr);
  EXPECT_EQ(packet_msgs(net).count(), 0u);
}

TEST(Formation, ZeroMaxMsgsRejected) {
  auto cfg = batching_config(10, /*max_msgs=*/0);
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
}

TEST(Formation, PassthroughEmitsNoPacketEvents) {
  Network net(small_config());
  Harness h(net);
  net.start();
  for (int i = 0; i < 8; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketSend), 0u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketFlush), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Triggers
// --------------------------------------------------------------------------

TEST(Formation, CountTriggerFlushesFullPacket) {
  Network net(batching_config(/*deadline=*/1000, /*max_msgs=*/4));
  Harness h(net);
  net.start();
  for (int i = 0; i < 4; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 4u);
  // The 4th message filled the packet at t=0: everyone rides one wire
  // transmission and lands together at the wired latency, not at the
  // deadline.
  for (const auto& r : h.mss[1]->received) EXPECT_EQ(r.at, 5u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketSend), 1u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketFlush), 1u);
  EXPECT_EQ(flushes(net, "size"), 1u);
  EXPECT_EQ(packet_msgs(net).sum(), 4u);
  // Nothing left parked: every announced send rode a packet.
  EXPECT_EQ(packet_msgs(net).sum(), count_kind(net, obs::EventKind::kSend));
  ExpectCleanEventStream(net);
}

TEST(Formation, BytesTriggerFlushesImmediately) {
  // Every message exceeds the byte budget on its own: each becomes its
  // own packet, so batching degenerates to passthrough costs.
  Network net(batching_config(/*deadline=*/1000, /*max_msgs=*/100, /*max_bytes=*/1));
  Harness h(net);
  net.start();
  for (int i = 0; i < 3; ++i) h.mss[0]->do_send_wired(mss_id(1), i);
  net.run();
  EXPECT_EQ(h.mss[1]->received.size(), 3u);
  EXPECT_EQ(count_kind(net, obs::EventKind::kPacketSend), 3u);
  EXPECT_EQ(net.ledger().wired_packets(), 3u);
  EXPECT_EQ(net.ledger().fixed_msgs(), 3u);
  ExpectCleanEventStream(net);
}

TEST(Formation, DeadlineTriggerFlushesPartialPacket) {
  Network net(batching_config(/*deadline=*/100, /*max_msgs=*/16));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(1), 2);
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 2u);
  // Flushed by the deadline timer at t=100, arriving one wired latency
  // later.
  for (const auto& r : h.mss[1]->received) EXPECT_EQ(r.at, 105u);
  EXPECT_EQ(flushes(net, "deadline"), 1u);
  EXPECT_EQ(flushes(net, "size"), 0u);
  ExpectCleanEventStream(net);
}

TEST(Formation, StaleDeadlineTimerIsNoOp) {
  // Fill a packet (count flush) before its deadline: the armed timer
  // must find a newer epoch and flush nothing twice.
  Network net(batching_config(/*deadline=*/100, /*max_msgs=*/2));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(1), 2);  // count flush at t=0
  net.run();
  EXPECT_EQ(h.mss[1]->received.size(), 2u);
  EXPECT_EQ(packet_msgs(net).count(), 1u);
  EXPECT_EQ(flushes(net, "deadline"), 0u);
  ExpectCleanEventStream(net);
}

TEST(Formation, PerPairQueuesAreIndependent) {
  Network net(batching_config(/*deadline=*/50, /*max_msgs=*/8));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(2), 2);
  h.mss[1]->do_send_wired(mss_id(2), 3);
  net.run();
  // Three (src,dst) pairs -> three deadline packets.
  EXPECT_EQ(packet_msgs(net).count(), 3u);
  EXPECT_EQ(h.mss[1]->received.size(), 1u);
  EXPECT_EQ(h.mss[2]->received.size(), 2u);
  ExpectCleanEventStream(net);
}

TEST(Formation, SelfSendBypassesFormation) {
  Network net(batching_config(/*deadline=*/1000));
  Harness h(net);
  net.start();
  h.mss[0]->do_send_wired(mss_id(0), 42);
  net.run();
  ASSERT_EQ(h.mss[0]->received.size(), 1u);
  EXPECT_EQ(h.mss[0]->received[0].at, 0u);  // local dispatch, no deadline wait
  EXPECT_EQ(packet_msgs(net).sum(), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Cost amortization
// --------------------------------------------------------------------------

TEST(Formation, BatchingAmortizesPerPacketCost) {
  constexpr int kMsgs = 10;
  cost::CostParams params;  // c_fixed=1, c_wired_msg=0

  Network plain(small_config());
  Harness hp(plain);
  plain.start();
  for (int i = 0; i < kMsgs; ++i) hp.mss[0]->do_send_wired(mss_id(1), i);
  plain.run();

  Network batched(batching_config(/*deadline=*/50, /*max_msgs=*/100));
  Harness hb(batched);
  batched.start();
  for (int i = 0; i < kMsgs; ++i) hb.mss[0]->do_send_wired(mss_id(1), i);
  batched.run();

  EXPECT_EQ(plain.ledger().fixed_msgs(), kMsgs);
  EXPECT_EQ(plain.ledger().wired_packets(), kMsgs);
  EXPECT_EQ(batched.ledger().fixed_msgs(), kMsgs);
  EXPECT_EQ(batched.ledger().wired_packets(), 1u);
  EXPECT_DOUBLE_EQ(plain.ledger().total(params), kMsgs * params.c_fixed);
  EXPECT_DOUBLE_EQ(batched.ledger().total(params), 1.0 * params.c_fixed);
  EXPECT_LT(batched.ledger().total(params), plain.ledger().total(params));

  // With a per-message marginal cost the batched total still undercuts
  // passthrough by (kMsgs - 1) * c_fixed.
  cost::CostParams split = params;
  split.c_wired_msg = 0.25;
  EXPECT_DOUBLE_EQ(batched.ledger().total(split),
                   params.c_fixed + kMsgs * split.c_wired_msg);
  EXPECT_LT(batched.ledger().total(split), plain.ledger().total(split));
}

TEST(Formation, ControlOnlyPacketIsFree) {
  Network net(batching_config(/*deadline=*/50, /*max_msgs=*/100));
  net.start();
  // Broadcast-search queries are control-charged separately; simplest
  // control-only wired traffic here: drive the substrate via a handoff.
  net.mh(mh_id(0)).move_to(mss_id(1), 1);
  net.run();
  // Handoff control traffic batched into packets, but nothing charged.
  EXPECT_EQ(net.ledger().fixed_msgs(), 0u);
  EXPECT_EQ(net.ledger().wired_packets(), 0u);
  EXPECT_GT(packet_msgs(net).count(), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Ordering: barrier + checker integration
// --------------------------------------------------------------------------

TEST(Formation, ForwardLegBarrierPreservesChannelFifo) {
  Network net(batching_config(/*deadline=*/1000, /*max_msgs=*/16));
  Harness h(net);
  net.start();
  // Queue wired messages on (0 -> 1), then send_to_mh to a MH living in
  // cell 1: the forward leg shares the (0 -> 1) channel and must flush
  // the pending packet first (barrier) or it would overtake them.
  h.mss[0]->do_send_wired(mss_id(1), 1);
  h.mss[0]->do_send_wired(mss_id(1), 2);
  h.mss[0]->do_send_to_mh(mh_id(1), std::string("fwd"));
  net.run();
  ASSERT_EQ(h.mss[1]->received.size(), 2u);
  EXPECT_EQ(h.mh[1]->received.size(), 1u);
  EXPECT_GE(flushes(net, "barrier"), 1u);
  bool saw_barrier_packet = false;
  for (const auto& ev : net.events().snapshot()) {
    if (ev.kind == obs::EventKind::kPacketSend && ev.detail == "barrier") {
      saw_barrier_packet = true;
    }
  }
  EXPECT_TRUE(saw_barrier_packet);
  // The channel_fifo and packet_fifo checkers together prove no
  // reorder across the flush boundary.
  ExpectCleanEventStream(net);
}

TEST(Formation, BatchedAndPlainDeliverSamePerChannelSequence) {
  const auto drive = [](Network& net) {
    Harness h(net);
    net.start();
    std::vector<int> sent;
    for (int i = 0; i < 20; ++i) {
      h.mss[i % 2]->do_send_wired(mss_id(1 - i % 2), i);
      sent.push_back(i);
    }
    net.run();
    std::vector<int> got0;
    std::vector<int> got1;
    for (const auto& r : h.mss[0]->received) got0.push_back(*body_as<int>(r.env));
    for (const auto& r : h.mss[1]->received) got1.push_back(*body_as<int>(r.env));
    ExpectCleanEventStream(net);
    return std::make_pair(got0, got1);
  };

  Network plain(small_config());
  Network batched(batching_config(/*deadline=*/30, /*max_msgs=*/5));
  const auto expected = drive(plain);
  const auto actual = drive(batched);
  // Batching changes arrival instants, never content or per-channel
  // order.
  EXPECT_EQ(actual.first, expected.first);
  EXPECT_EQ(actual.second, expected.second);
}

TEST(Formation, MutexWorkloadRidesFormationTransparently) {
  // Algorithm traffic (L2-style wired messages via agents) batched
  // end-to-end: everything delivered, all checkers clean, strictly
  // fewer packets than messages.
  Network net(batching_config(/*deadline=*/20, /*max_msgs=*/8));
  Harness h(net);
  net.start();
  for (int round = 0; round < 10; ++round) {
    h.mss[0]->do_send_wired(mss_id(1), round);
    h.mss[1]->do_send_wired(mss_id(2), round);
    h.mss[2]->do_send_wired(mss_id(0), round);
  }
  net.run();
  EXPECT_EQ(h.mss[0]->received.size(), 10u);
  EXPECT_EQ(h.mss[1]->received.size(), 10u);
  EXPECT_EQ(h.mss[2]->received.size(), 10u);
  EXPECT_LT(net.ledger().wired_packets(), net.ledger().fixed_msgs());
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Bugfix regression: saturating retransmit backoff
// --------------------------------------------------------------------------

TEST(RetransmitBackoff, HugeRtoBaseSaturatesAtCap) {
  // rto_base near the top of the 64-bit range: before the fix,
  // backoff(attempt=1) computed base << 1 which wraps to ~0, collapsing
  // the retry delay to 1 tick (retransmission spam). Saturation must
  // pin every retry at rto_cap instead.
  auto cfg = small_config(2, 2);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.drop_first_wireless = 2;  // deterministic: lose attempts 0 and 1
  profile.rto_base = 1ULL << 63;
  profile.rto_cap = 500;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_local(mh_id(0), std::string("frame"));
  net.run();
  ASSERT_EQ(h.mh[0]->received.size(), 1u);
  // attempt 0 at t=0 (dropped), retry at 500 (dropped), retry at 1000,
  // delivered one wireless latency (2) later. The wrapped backoff would
  // have delivered at t=504.
  EXPECT_EQ(h.mh[0]->received[0].at, 1002u);
  ExpectCleanEventStream(net);
}

TEST(RetransmitBackoff, NormalExponentialScheduleUnchanged) {
  auto cfg = small_config(2, 2);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.drop_first_wireless = 3;
  profile.rto_base = 16;
  profile.rto_cap = 256;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  h.mss[0]->do_send_local(mh_id(0), std::string("frame"));
  net.run();
  ASSERT_EQ(h.mh[0]->received.size(), 1u);
  // Drops at t=0, 16, 48; delivery attempt at 112 lands at 114.
  EXPECT_EQ(h.mh[0]->received[0].at, 114u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Bugfix regression: bounded wseq dedup window
// --------------------------------------------------------------------------

TEST(WseqDedup, InOrderFloorAdvance) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(1));
  EXPECT_TRUE(d.deliver(2));
  EXPECT_EQ(d.floor, 2u);
  EXPECT_TRUE(d.above.empty());
}

TEST(WseqDedup, WseqAtFloorIsDuplicate) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(1));
  EXPECT_FALSE(d.deliver(1));  // == floor
  EXPECT_FALSE(d.deliver(0));  // below floor
}

TEST(WseqDedup, DuplicateAboveFloorSuppressed) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(5));
  EXPECT_FALSE(d.deliver(5));
  EXPECT_EQ(d.above.size(), 1u);
}

TEST(WseqDedup, OutOfOrderCatchUpDrainsAbove) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(3));
  EXPECT_TRUE(d.deliver(2));
  EXPECT_EQ(d.above.size(), 2u);
  EXPECT_EQ(d.floor, 0u);
  EXPECT_TRUE(d.deliver(1));  // fills the gap: floor jumps past the parked run
  EXPECT_EQ(d.floor, 3u);
  EXPECT_TRUE(d.above.empty());
}

// Why the parked wseqs are a set and not a 64-bit bitmap over the
// floor: a parked wseq may sit any distance above the floor. A 64-wide
// window would have to move its floor past 37 to hold 101, and would
// then drop the late retransmission of frame 1 as a duplicate, losing
// a message.
TEST(WseqDedup, GapFrameFarBelowAParkedWseqStillDelivers) {
  WseqDedup d;
  EXPECT_TRUE(d.deliver(101));
  EXPECT_TRUE(d.deliver(1));
  EXPECT_EQ(d.floor, 1u);
}

TEST(WseqDedup, PermanentHoleNoLongerBalloonsParkedSet) {
  // The ballooning pattern: wseq 1 abandoned (never delivered), every
  // later frame delivered. Before the bound, `above` grew by one entry
  // per frame forever; now it stays within the retransmit window and
  // the floor advances past the dead gap.
  WseqDedup d;
  for (std::uint64_t w = 2; w <= 1000; ++w) {
    EXPECT_TRUE(d.deliver(w)) << "fresh frame " << w << " must deliver";
    EXPECT_LE(d.above.size(), WseqDedup::kRetransmitWindow);
  }
  EXPECT_GE(d.floor, 1000u - WseqDedup::kRetransmitWindow - 1);
  // The abandoned frame's wseq is now below the advanced floor: a
  // pathologically late copy is suppressed as a duplicate (the
  // documented trade for bounded memory).
  EXPECT_FALSE(d.deliver(1));
}

TEST(WseqDedup, ChaosProfileKeepsWindowBoundedEndToEnd) {
  // Network-level version of the balloon: lossy wireless with a mobile
  // host hopping cells abandons downlink frames mid-retry, punching
  // permanent holes in the (mss,mh) downlink channels. The run must
  // stay checker-clean with the bound in force.
  auto cfg = small_config(2, 2);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.wireless_loss = 0.3;
  profile.rto_base = 2;
  profile.rto_cap = 8;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  for (int i = 0; i < 40; ++i) {
    net.sched().schedule(static_cast<sim::Duration>(10 * i + 1), [&h, i] {
      h.mss[0]->do_send_to_mh(mh_id(0), i);
    });
    if (i % 4 == 3) {
      net.sched().schedule(static_cast<sim::Duration>(10 * i + 2), [&net, i] {
        net.mh(mh_id(0)).move_to(mss_id((i / 4 + 1) % 2), 3);
      });
    }
  }
  net.run();
  EXPECT_GT(h.mh[0]->received.size(), 0u);
  ExpectCleanEventStream(net);
}

// --------------------------------------------------------------------------
// Formation under faults
// --------------------------------------------------------------------------

TEST(Formation, PacketDeferredAcrossMssCrash) {
  auto cfg = batching_config(/*deadline=*/10, /*max_msgs=*/4);
  Network net(cfg);
  fault::FaultProfile profile;
  profile.crashes.push_back(fault::MssCrash{1, /*at=*/5, /*down_for=*/100});
  profile.evacuate_on_crash = false;
  net.install_fault_plane(profile);
  Harness h(net);
  net.start();
  for (int i = 0; i < 4; ++i) h.mss[0]->do_send_wired(mss_id(1), i);  // count flush at t=0
  net.run();
  // Packet arrives at t=5 into the crash window [5, 105): held at the
  // interface and disgorged at recovery.
  ASSERT_EQ(h.mss[1]->received.size(), 4u);
  for (const auto& r : h.mss[1]->received) EXPECT_EQ(r.at, 105u);
  ExpectCleanEventStream(net);
}

}  // namespace
}  // namespace mobidist::test
