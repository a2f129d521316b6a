// Unit tests for the structured event stream: id/seq/Lamport bookkeeping,
// bounded-buffer eviction accounting, the JSONL and Chrome trace-event
// exporters, and the invariant checkers — including one hand-built bad
// stream per checker, each rejected with a precise diagnostic.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "mutex/monitor.hpp"
#include "mutex/r2.hpp"
#include "obs/checkers.hpp"
#include "obs/events.hpp"
#include "obs/merge.hpp"
#include "test_support.hpp"

namespace mobidist::test {
namespace {

using obs::Entity;
using obs::Event;
using obs::EventId;
using obs::EventKind;
using obs::EventStream;
using mutex::CsMonitor;
using mutex::R2Mutex;
using mutex::RingVariant;

MssId mss_id(std::uint32_t i) { return static_cast<MssId>(i); }
MhId mh_id(std::uint32_t i) { return static_cast<MhId>(i); }

// --------------------------------------------------------------------------
// EventStream bookkeeping
// --------------------------------------------------------------------------

TEST(EventStream, AssignsDenseIdsAndPerEntitySequences) {
  EventStream stream;
  const auto a = stream.emit(10, {.kind = EventKind::kSend, .entity = Entity::mss(0)});
  const auto b = stream.emit(11, {.kind = EventKind::kSend, .entity = Entity::mss(0)});
  const auto c = stream.emit(12, {.kind = EventKind::kRecv, .entity = Entity::mss(1)});
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
  EXPECT_EQ(stream.event_at(0).seq, 1u);
  EXPECT_EQ(stream.event_at(1).seq, 2u);
  EXPECT_EQ(stream.event_at(2).seq, 1u);  // per-entity, not global
  EXPECT_EQ(stream.emitted(), 3u);
  EXPECT_EQ(stream.dropped(), 0u);
}

TEST(EventStream, LamportAdvancesAcrossCausalEdges) {
  EventStream stream;
  const auto send = stream.emit(5, {.kind = EventKind::kSend, .entity = Entity::mss(0)});
  EXPECT_EQ(stream.lamport_of(send), 1u);
  // The recv at a fresh entity must jump past its cause's clock.
  const auto recv =
      stream.emit(9, {.kind = EventKind::kRecv, .entity = Entity::mss(1), .cause = send});
  EXPECT_EQ(stream.lamport_of(recv), 2u);
  // A follow-up on the receiver keeps climbing.
  const auto next =
      stream.emit(9, {.kind = EventKind::kSend, .entity = Entity::mss(1), .cause = recv});
  EXPECT_EQ(stream.lamport_of(next), 3u);
  // An unrelated entity starts back at 1.
  const auto other = stream.emit(9, {.kind = EventKind::kSend, .entity = Entity::mh(4)});
  EXPECT_EQ(stream.lamport_of(other), 1u);
}

TEST(EventStream, CauseScopeSuppliesAmbientCause) {
  EventStream stream;
  const auto root = stream.emit(1, {.kind = EventKind::kRecv, .entity = Entity::mh(0)});
  EXPECT_EQ(stream.current_cause(), 0u);
  {
    obs::CauseScope scope(stream, root);
    EXPECT_EQ(stream.current_cause(), root);
    const auto child = stream.emit(1, {.kind = EventKind::kCsEnter, .entity = Entity::mh(0)});
    EXPECT_EQ(stream.snapshot().back().cause, root);
    // An explicit cause wins over the ambient one.
    stream.emit(1, {.kind = EventKind::kCsExit, .entity = Entity::mh(0), .cause = child});
    EXPECT_EQ(stream.snapshot().back().cause, child);
  }
  EXPECT_EQ(stream.current_cause(), 0u);
}

TEST(EventStream, EvictsFromTheFrontAndCountsDrops) {
  EventStream stream(4);
  for (int i = 0; i < 10; ++i) {
    stream.emit(i, {.kind = EventKind::kSend, .entity = Entity::mss(0)});
  }
  EXPECT_EQ(stream.emitted(), 10u);
  EXPECT_EQ(stream.dropped(), 6u);
  ASSERT_EQ(stream.retained(), 4u);
  EXPECT_EQ(stream.event_at(0).id, 7u);  // ids stay contiguous
  EXPECT_EQ(stream.event_at(3).id, 10u);
  EXPECT_EQ(stream.lamport_of(3), 0u);   // evicted -> unknown
  EXPECT_EQ(stream.lamport_of(10), 10u);
}

// --------------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// Canonical merge (the sharded engine's trace spine)
// --------------------------------------------------------------------------

TEST(MergeCanonical, CrossRefEncodingRoundTrips) {
  const auto ref = obs::make_cross_ref(5, 1234);
  EXPECT_TRUE(obs::is_cross_ref(ref));
  EXPECT_EQ(obs::cross_ref_stream(ref), 5u);
  EXPECT_EQ(obs::cross_ref_id(ref), 1234u);
  EXPECT_FALSE(obs::is_cross_ref(1234));
}

TEST(MergeCanonical, OrdersByTimeThenLaneAndRewritesCauses) {
  // Two shard streams; lane = the mss index. Stream 1's recv at t=7
  // references stream 0's send (id 1) through an encoded cross ref.
  obs::EventStream s0;
  obs::EventStream s1;
  const auto send_id = s0.emit(3, {.kind = obs::EventKind::kSend,
                                   .entity = obs::Entity::mss(0),
                                   .peer = obs::Entity::mss(1)});
  s0.emit(9, {.kind = obs::EventKind::kDisconnect, .entity = obs::Entity::mss(0)});
  s1.emit(7, {.kind = obs::EventKind::kRecv,
              .entity = obs::Entity::mss(1),
              .peer = obs::Entity::mss(0),
              .cause = obs::make_cross_ref(0, send_id),
              .cause_clock = s0.lamport_of(send_id)});

  const obs::EventStream* streams[] = {&s0, &s1};
  const auto merged = obs::merge_canonical(
      streams, [](obs::Entity e) { return e.idx; });
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].at, 3u);
  EXPECT_EQ(merged[1].at, 7u);
  EXPECT_EQ(merged[2].at, 9u);
  // Dense renumbering in merge order, causes resolved across streams.
  EXPECT_EQ(merged[0].id, 1u);
  EXPECT_EQ(merged[1].id, 2u);
  EXPECT_EQ(merged[1].cause, 1u);
  // The cross-edge Lamport relation survived the merge: recv > send.
  EXPECT_GT(merged[1].lamport, merged[0].lamport);
}

TEST(MergeCanonical, SameInstantTieBreaksByLaneThenLanePosition) {
  // One stream holding two lanes vs. the same events split across two
  // streams: identical bytes — the grouping-invariance property the
  // shard_independence gate relies on.
  const auto run = [](bool split) {
    obs::EventStream a;
    obs::EventStream b;
    obs::EventStream& lane1 = split ? b : a;
    a.emit(5, {.kind = obs::EventKind::kDisconnect, .entity = obs::Entity::mss(0)});
    lane1.emit(5, {.kind = obs::EventKind::kDisconnect, .entity = obs::Entity::mss(1)});
    lane1.emit(5, {.kind = obs::EventKind::kSend, .entity = obs::Entity::mss(1)});
    a.emit(5, {.kind = obs::EventKind::kSend, .entity = obs::Entity::mss(0)});
    std::vector<const obs::EventStream*> streams{&a};
    if (split) streams.push_back(&b);
    return obs::to_jsonl(std::span<const obs::Event>(obs::merge_canonical(
        streams, [](obs::Entity e) { return e.idx; })));
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(MergeCanonical, EvictedCauseResolvesToZero) {
  obs::EventStream tiny(2);  // ring keeps only the 2 most recent events
  const auto first = tiny.emit(1, {.kind = obs::EventKind::kSend,
                                   .entity = obs::Entity::mss(0)});
  tiny.emit(2, {.kind = obs::EventKind::kDisconnect, .entity = obs::Entity::mss(0)});
  tiny.emit(3, {.kind = obs::EventKind::kRecv,
                .entity = obs::Entity::mss(0),
                .cause = first});  // parent now evicted
  const obs::EventStream* streams[] = {&tiny};
  const auto merged = obs::merge_canonical(
      streams, [](obs::Entity) { return 0u; });
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.back().cause, 0u);
}

TEST(EventJson, RoundTripsEveryField) {
  Event ev;
  ev.id = 42;
  ev.at = 1234;
  ev.kind = EventKind::kTokenDepart;
  ev.entity = Entity::mss(3);
  ev.peer = Entity::mh(7);
  ev.seq = 9;
  ev.lamport = 21;
  ev.cause = 40;
  ev.channel = 0x123456789abcdefULL;
  ev.arg = 5;
  ev.detail = "R2' \"quoted\"\\\n\ttab";
  const std::string line = obs::event_json(ev);
  obs::InternTable strings;
  const auto back = obs::event_from_json(line, strings);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, ev.id);
  EXPECT_EQ(back->at, ev.at);
  EXPECT_EQ(back->kind, ev.kind);
  EXPECT_EQ(back->entity, ev.entity);
  EXPECT_EQ(back->peer, ev.peer);
  EXPECT_EQ(back->seq, ev.seq);
  EXPECT_EQ(back->lamport, ev.lamport);
  EXPECT_EQ(back->cause, ev.cause);
  EXPECT_EQ(back->channel, ev.channel);
  EXPECT_EQ(back->arg, ev.arg);
  EXPECT_EQ(back->detail, ev.detail);
  // Accepts a trailing newline (the JSONL line form).
  EXPECT_TRUE(obs::event_from_json(line + "\n", strings).has_value());
}

TEST(EventJson, RejectsMalformedLines) {
  obs::InternTable strings;
  EXPECT_FALSE(obs::event_from_json("", strings).has_value());
  EXPECT_FALSE(obs::event_from_json("not json", strings).has_value());
  EXPECT_FALSE(obs::event_from_json("{\"id\":1}", strings).has_value());  // missing fields
  Event ev;
  ev.id = 1;
  ev.entity = Entity::mh(0);
  std::string line = obs::event_json(ev);
  const auto pos = line.find("\"send\"");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, 6, "\"nope\"");
  EXPECT_FALSE(obs::event_from_json(line, strings).has_value());
}

TEST(EventJson, KindAndEntityNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMssRecover); ++k) {
    const auto kind = static_cast<EventKind>(k);
    const auto parsed = obs::parse_kind(obs::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << obs::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::parse_kind("bogus").has_value());
  EXPECT_EQ(obs::to_string(Entity::mss(3)), "mss:3");
  EXPECT_EQ(obs::to_string(Entity::mh(7)), "mh:7");
  EXPECT_EQ(obs::to_string(Entity{}), "?");
  EXPECT_EQ(obs::parse_entity("mss:3"), Entity::mss(3));
  EXPECT_EQ(obs::parse_entity("mh:7"), Entity::mh(7));
  EXPECT_EQ(obs::parse_entity("?"), Entity{});
  EXPECT_FALSE(obs::parse_entity("cow:1").has_value());
}

TEST(ChromeTrace, EmitsTracksSpansAndInstants) {
  std::vector<Event> events;
  Event enter;
  enter.id = 1;
  enter.at = 100;
  enter.kind = EventKind::kCsEnter;
  enter.entity = Entity::mh(2);
  enter.detail = "L1";
  events.push_back(enter);
  Event exit = enter;
  exit.id = 2;
  exit.at = 250;
  exit.kind = EventKind::kCsExit;
  events.push_back(exit);
  Event search;
  search.id = 3;
  search.at = 300;
  search.kind = EventKind::kSearchRound;
  search.entity = Entity::mss(0);
  search.peer = Entity::mh(2);
  search.arg = 1;
  events.push_back(search);

  const std::string trace = obs::to_chrome_trace(events);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  // Track naming metadata for both processes and the two entities.
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"mh:2\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"mss:0\""), std::string::npos);
  // The CS occupancy renders as a B/E span, the search round as an instant.
  EXPECT_NE(trace.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Checkers on a real scenario + determinism of the exported stream
// --------------------------------------------------------------------------

std::string run_r2_and_export() {
  Network net(small_config(4, 8));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kCounter);
  net.start();
  for (std::uint32_t i = 0; i < 6; ++i) r2.request(mh_id(i));
  net.sched().schedule(3, [&] { net.mh(mh_id(1)).move_to(mss_id(2), 2); });
  net.sched().schedule(5, [&] { r2.start_token(2); });
  net.run();
  ExpectCleanEventStream(net);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_GT(net.events().emitted(), 0u);
  EXPECT_EQ(net.events().dropped(), 0u);
  return obs::to_jsonl(net.events());
}

TEST(Checkers, PassOnRealRunAndStreamIsDeterministic) {
  const std::string first = run_r2_and_export();
  const std::string second = run_r2_and_export();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed runs must export byte-identical JSONL";
}

TEST(EventStream, RecordsTokenAndCriticalSectionEvents) {
  Network net(small_config(3, 6));
  CsMonitor monitor;
  R2Mutex r2(net, monitor, RingVariant::kBasic);
  net.start();
  r2.request(mh_id(0));
  net.sched().schedule(5, [&] { r2.start_token(1); });
  net.run();
  ExpectCleanEventStream(net);
  std::size_t departs = 0;
  std::size_t enters = 0;
  net.events().for_each([&](const obs::Event& ev) {
    if (ev.kind == obs::EventKind::kTokenDepart) ++departs;
    if (ev.kind == obs::EventKind::kCsEnter) ++enters;
  });
  EXPECT_GT(departs, 0u);
  EXPECT_EQ(enters, 1u);  // one request, one grant
}

// --------------------------------------------------------------------------
// Hand-built bad streams: each checker rejects its counterexample with a
// precise diagnostic.
// --------------------------------------------------------------------------

Event make(EventId id, sim::SimTime at, EventKind kind, Entity entity,
           std::string_view detail = {}) {
  // Callers pass string literals, so the view's storage outlives the test.
  Event ev;
  ev.id = id;
  ev.at = at;
  ev.kind = kind;
  ev.entity = entity;
  ev.detail = detail;
  return ev;
}

/// check_all's failures from one checker.
std::vector<obs::CheckFailure> failures_of(std::span<const Event> events,
                                           std::string_view checker) {
  std::vector<obs::CheckFailure> picked;
  for (auto& failure : obs::check_all(events)) {
    if (failure.checker == checker) picked.push_back(std::move(failure));
  }
  return picked;
}

TEST(Checkers, TwoHostsInsideTheCriticalSection) {
  std::vector<Event> events;
  events.push_back(make(1, 10, EventKind::kCsEnter, Entity::mh(0), "L1"));
  events.push_back(make(2, 12, EventKind::kCsEnter, Entity::mh(1), "L1"));
  events.push_back(make(3, 14, EventKind::kCsExit, Entity::mh(1), "L1"));
  const auto failures = failures_of(events, "cs_exclusion");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "cs_exclusion");
  EXPECT_EQ(failures[0].event, 2u);
  EXPECT_NE(failures[0].diagnostic.find("mh:1 entered the CS"), std::string::npos);
  EXPECT_NE(failures[0].diagnostic.find("while mh:0 still holds it"), std::string::npos);

  // The same stream with distinct instance labels is two separate
  // algorithms sharing a network: no violation.
  events[1].detail = "R2";
  events[2].detail = "R2";
  EXPECT_TRUE(failures_of(events, "cs_exclusion").empty());
}

TEST(Checkers, ReorderedFifoDelivery) {
  constexpr std::uint64_t kChannel = 77;
  std::vector<Event> events;
  auto send = [&](obs::EventId id) {
    Event ev = make(id, id, EventKind::kSend, Entity::mss(0));
    ev.peer = Entity::mss(1);
    ev.channel = kChannel;
    return ev;
  };
  auto recv = [&](obs::EventId id, obs::EventId cause) {
    Event ev = make(id, id, EventKind::kRecv, Entity::mss(1));
    ev.cause = cause;
    ev.channel = kChannel;
    return ev;
  };
  events.push_back(send(1));
  events.push_back(send(2));
  events.push_back(recv(3, 2));  // second send overtakes the first
  events.push_back(recv(4, 1));
  const auto failures = failures_of(events, "channel_fifo");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "channel_fifo");
  EXPECT_EQ(failures[0].event, 4u);
  EXPECT_NE(failures[0].diagnostic.find("FIFO violation on channel 77"), std::string::npos);
  EXPECT_NE(failures[0].diagnostic.find("position 1"), std::string::npos);

  // In-order consumption of the same sends is clean, and losses (sends
  // never consumed) are tolerated.
  std::vector<Event> ok;
  ok.push_back(send(1));
  ok.push_back(send(2));
  ok.push_back(send(3));
  ok.push_back(recv(4, 1));
  ok.push_back(recv(5, 3));  // send 2 lost: allowed
  EXPECT_TRUE(failures_of(ok, "channel_fifo").empty());
}

TEST(Checkers, DuplicateToken) {
  std::vector<Event> events;
  events.push_back(make(1, 10, EventKind::kTokenArrive, Entity::mss(0), "R2"));
  events.push_back(make(2, 15, EventKind::kTokenArrive, Entity::mss(1), "R2"));
  const auto failures = failures_of(events, "token_circulation");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "token_circulation");
  EXPECT_EQ(failures[0].event, 2u);
  EXPECT_NE(failures[0].diagnostic.find("duplicate token"), std::string::npos);
  EXPECT_NE(failures[0].diagnostic.find("already held by mss:0"), std::string::npos);

  // Departures from a non-holder are flagged too.
  std::vector<Event> forged;
  forged.push_back(make(1, 10, EventKind::kTokenArrive, Entity::mss(0), "R1"));
  Event depart = make(2, 12, EventKind::kTokenDepart, Entity::mss(2), "R1");
  depart.peer = Entity::mss(3);
  forged.push_back(depart);
  const auto forged_failures = failures_of(forged, "token_circulation");
  ASSERT_EQ(forged_failures.size(), 1u);
  EXPECT_NE(forged_failures[0].diagnostic.find("mss:0 holds it"), std::string::npos);

  // The decorated variants share one family token with plain R2: a
  // legal depart/arrive alternation across tags is clean.
  std::vector<Event> family;
  family.push_back(make(1, 10, EventKind::kTokenArrive, Entity::mss(0), "R2"));
  Event hop = make(2, 12, EventKind::kTokenDepart, Entity::mss(0), "R2'");
  hop.peer = Entity::mh(4);
  family.push_back(hop);
  family.push_back(make(3, 14, EventKind::kTokenArrive, Entity::mh(4), "R2'"));
  EXPECT_TRUE(failures_of(family, "token_circulation").empty());
}

TEST(Checkers, StaleAccessCountReplay) {
  std::vector<Event> events;
  auto grant = [&](obs::EventId id, std::uint64_t token_val, std::uint32_t mh) {
    Event ev = make(id, id, EventKind::kTokenDepart, Entity::mss(0), "R2'");
    ev.peer = Entity::mh(mh);
    ev.arg = token_val;
    return ev;
  };
  events.push_back(grant(1, 7, 3));
  events.push_back(grant(2, 7, 5));  // different MH, same traversal: fine
  events.push_back(grant(3, 7, 3));  // second grant to mh:3 in traversal 7
  events.push_back(grant(4, 8, 3));  // next traversal: fine again
  const auto failures = failures_of(events, "traversal_cap");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "traversal_cap");
  EXPECT_EQ(failures[0].event, 3u);
  EXPECT_NE(failures[0].diagnostic.find("granted the token to mh:3 twice"),
            std::string::npos);
  EXPECT_NE(failures[0].diagnostic.find("stale access_count replay"), std::string::npos);

  // Plain R2 departures (racing allowed), malicious-run grants (R2'!),
  // and stale-snapshot repeats (R2'~) are exempt by construction.
  for (auto& ev : events) ev.detail = "R2";
  EXPECT_TRUE(failures_of(events, "traversal_cap").empty());
  for (auto& ev : events) ev.detail = "R2'!";
  EXPECT_TRUE(failures_of(events, "traversal_cap").empty());
  for (auto& ev : events) ev.detail = "R2'~";
  EXPECT_TRUE(failures_of(events, "traversal_cap").empty());
}

TEST(Checkers, StuckLamportClockAcrossCausalEdge) {
  std::vector<Event> events;
  Event parent = make(1, 10, EventKind::kSend, Entity::mss(0));
  parent.seq = 1;
  parent.lamport = 5;
  events.push_back(parent);
  Event child = make(2, 12, EventKind::kRecv, Entity::mss(1));
  child.seq = 1;
  child.lamport = 5;  // must be > 5
  child.cause = 1;
  events.push_back(child);
  const auto failures = failures_of(events, "causal_clocks");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "causal_clocks");
  EXPECT_EQ(failures[0].event, 2u);
  EXPECT_NE(failures[0].diagnostic.find("clock did not advance"), std::string::npos);

  // Non-increasing per-entity seq is the other half of this checker.
  std::vector<Event> seqs;
  Event first = make(1, 10, EventKind::kSend, Entity::mh(0));
  first.seq = 2;
  first.lamport = 1;
  seqs.push_back(first);
  Event second = make(2, 12, EventKind::kSend, Entity::mh(0));
  second.seq = 2;  // repeated
  second.lamport = 2;
  seqs.push_back(second);
  const auto seq_failures = failures_of(seqs, "causal_clocks");
  ASSERT_EQ(seq_failures.size(), 1u);
  EXPECT_NE(seq_failures[0].diagnostic.find("sequence not strictly increasing"),
            std::string::npos);
}

TEST(Checkers, GhostDeliveryFromDroppedSend) {
  std::vector<Event> events;
  Event send = make(1, 10, EventKind::kSend, Entity::mss(0));
  send.peer = Entity::mh(0);
  send.channel = 9;
  events.push_back(send);
  Event drop = make(2, 10, EventKind::kMsgDropped, Entity::mss(0), "loss");
  drop.cause = 1;
  drop.channel = 9;
  events.push_back(drop);
  Event recv = make(3, 12, EventKind::kRecv, Entity::mh(0));
  recv.cause = 1;  // consumes the very send the plane killed
  recv.channel = 9;
  events.push_back(recv);
  const auto failures = failures_of(events, "fault_delivery");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "fault_delivery");
  EXPECT_EQ(failures[0].event, 3u);
  EXPECT_NE(failures[0].diagnostic.find("ghost delivery"), std::string::npos);

  // A recv consuming a *different* (retransmitted) send is clean.
  events[2].cause = 4;
  EXPECT_TRUE(failures_of(events, "fault_delivery").empty());
}

TEST(Checkers, CrashRecoverMustAlternatePerMss) {
  std::vector<Event> events;
  events.push_back(make(1, 100, EventKind::kMssCrash, Entity::mss(1)));
  events.push_back(make(2, 120, EventKind::kMssCrash, Entity::mss(1)));  // still down
  const auto failures = failures_of(events, "fault_delivery");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].checker, "fault_delivery");
  EXPECT_NE(failures[0].diagnostic.find("while already down"), std::string::npos);

  std::vector<Event> twice;
  twice.push_back(make(1, 100, EventKind::kMssCrash, Entity::mss(1)));
  twice.push_back(make(2, 150, EventKind::kMssRecover, Entity::mss(1)));
  twice.push_back(make(3, 160, EventKind::kMssRecover, Entity::mss(1)));
  const auto double_up = failures_of(twice, "fault_delivery");
  ASSERT_EQ(double_up.size(), 1u);
  EXPECT_NE(double_up[0].diagnostic.find("was not down"), std::string::npos);

  // Alternation over two windows — and crashes on distinct MSSs — pass;
  // a bare recover on an entity with no retained history is tolerated
  // (the stream may have evicted its crash).
  std::vector<Event> ok;
  ok.push_back(make(1, 50, EventKind::kMssRecover, Entity::mss(2)));
  ok.push_back(make(2, 100, EventKind::kMssCrash, Entity::mss(1)));
  ok.push_back(make(3, 150, EventKind::kMssRecover, Entity::mss(1)));
  ok.push_back(make(4, 400, EventKind::kMssCrash, Entity::mss(1)));
  ok.push_back(make(5, 425, EventKind::kMssRecover, Entity::mss(1)));
  EXPECT_TRUE(failures_of(ok, "fault_delivery").empty());
}

TEST(Checkers, BrokenIdsStopTheCheckWithOneFailure) {
  // A clean CS hand-off whose ids break once: every state the checker
  // keeps is indexed by id - first id, so a break must stop it, loudly.
  const auto trace = [](std::vector<EventId> ids) {
    std::vector<Event> events;
    const EventKind kinds[] = {EventKind::kCsEnter, EventKind::kCsExit,
                               EventKind::kCsEnter, EventKind::kCsExit};
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Event ev = make(ids[i], 10 + i, kinds[i], Entity::mh(i < 2 ? 0 : 1), "L1");
      ev.seq = 1 + i % 2;
      events.push_back(ev);
    }
    return events;
  };
  // A suffix may start at any id.
  EXPECT_TRUE(obs::check_all(trace({5, 6, 7, 8})).empty());

  const auto gap = obs::check_all(trace({5, 6, 8, 9}));
  ASSERT_EQ(gap.size(), 1u);
  EXPECT_EQ(gap[0].checker, "event_ids");
  EXPECT_EQ(gap[0].event, 8u);
  EXPECT_NE(gap[0].diagnostic.find("event id 8 follows event id 6"), std::string::npos);
  EXPECT_NE(gap[0].diagnostic.find("checking stopped here"), std::string::npos);

  const auto repeat = obs::check_all(trace({5, 6, 6, 7}));
  ASSERT_EQ(repeat.size(), 1u);
  EXPECT_EQ(repeat[0].checker, "event_ids");
  EXPECT_EQ(repeat[0].event, 6u);
  EXPECT_NE(repeat[0].diagnostic.find("event id 6 follows event id 6"),
            std::string::npos);

  const auto zero = obs::check_all(trace({0, 1, 2, 3}));
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero[0].checker, "event_ids");
}

TEST(Checkers, CheckAllConcatenatesEveryChecker) {
  std::vector<Event> events;
  events.push_back(make(1, 10, EventKind::kCsEnter, Entity::mh(0), "L1"));
  events.push_back(make(2, 12, EventKind::kCsEnter, Entity::mh(1), "L1"));
  events.push_back(make(3, 14, EventKind::kTokenArrive, Entity::mss(0), "R1"));
  events.push_back(make(4, 16, EventKind::kTokenArrive, Entity::mss(1), "R1"));
  for (auto& ev : events) ev.seq = 1;  // distinct entities: causal_clocks stays quiet
  const auto failures = obs::check_all(events);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].checker, "cs_exclusion");
  EXPECT_EQ(failures[1].checker, "token_circulation");
  EXPECT_NE(obs::to_string(failures[0]).find("cs_exclusion @ event 2"), std::string::npos);
}

}  // namespace
}  // namespace mobidist::test
