// Differential tests for the trace pipeline: obs::TraceChecker (check_all)
// against the seven map-based checkers it replaced, and
// obs::for_each_canonical (merge_canonical) against the sort-and-remap
// merge it replaced. Both references are kept here verbatim, the way
// mutex_core_test keeps the node-based Lamport engine.
//
// Checker inputs are real traces from small L2, R2', path-reversal, echo
// and lossy-commuter runs, their suffixes (evicted causes), and seeded
// mutations of them; every mutation class must make the reference fire.
// Merge inputs are random multi-stream rings small enough to evict.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/checkers.hpp"
#include "obs/events.hpp"
#include "obs/merge.hpp"
#include "sim/rng.hpp"

namespace mobidist::test {
namespace {

using obs::CheckFailure;
using obs::Entity;
using obs::Event;
using obs::EventId;
using obs::EventKind;

// --------------------------------------------------------------------------
// Reference: the seven map-based checkers and the sort-and-remap merge.
// --------------------------------------------------------------------------

namespace reference {

void fail(std::vector<CheckFailure>& out, std::string checker, EventId event,
          std::string diagnostic) {
  out.push_back(CheckFailure{std::move(checker), event, std::move(diagnostic)});
}

std::string_view token_family(std::string_view detail) {
  const auto cut = detail.find_first_of("'~");
  return cut == std::string_view::npos ? detail : detail.substr(0, cut);
}

std::vector<CheckFailure> check_cs_exclusion(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  struct Holder {
    Entity who;
    EventId since = 0;
  };
  std::map<std::string, Holder, std::less<>> holders;
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kCsEnter) {
      auto [it, inserted] = holders.try_emplace(std::string(ev.detail));
      if (!inserted && it->second.since != 0) {
        std::ostringstream os;
        os << to_string(ev.entity) << " entered the CS of instance \"" << ev.detail
           << "\" at t=" << ev.at << " while " << to_string(it->second.who)
           << " still holds it (enter event " << it->second.since << ")";
        fail(failures, "cs_exclusion", ev.id, os.str());
      }
      it->second = Holder{ev.entity, ev.id};
    } else if (ev.kind == EventKind::kCsExit) {
      const auto it = holders.find(ev.detail);
      if (it == holders.end()) continue;
      if (it->second.since != 0 && !(it->second.who == ev.entity)) {
        std::ostringstream os;
        os << to_string(ev.entity) << " exited the CS of instance \"" << ev.detail
           << "\" at t=" << ev.at << " but " << to_string(it->second.who)
           << " is the recorded holder";
        fail(failures, "cs_exclusion", ev.id, os.str());
      }
      it->second.since = 0;
    }
  }
  return failures;
}

std::vector<CheckFailure> check_token_circulation(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  struct TokenState {
    enum class Where { kUnknown, kHeld, kInFlight } where = Where::kUnknown;
    Entity holder;
    Entity depart_from;
    Entity depart_to;
    EventId last_event = 0;
  };
  std::map<std::string, TokenState, std::less<>> tokens;
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kTokenDepart && ev.kind != EventKind::kTokenArrive) continue;
    auto& state = tokens[std::string(token_family(ev.detail))];
    using Where = TokenState::Where;
    if (ev.kind == EventKind::kTokenArrive) {
      switch (state.where) {
        case Where::kUnknown:
          break;
        case Where::kHeld: {
          std::ostringstream os;
          os << "token \"" << token_family(ev.detail) << "\" arrived at "
             << to_string(ev.entity) << " at t=" << ev.at << " while already held by "
             << to_string(state.holder) << " (event " << state.last_event
             << ") -- duplicate token";
          fail(failures, "token_circulation", ev.id, os.str());
          break;
        }
        case Where::kInFlight:
          if (!(ev.entity == state.depart_to) && !(ev.entity == state.depart_from)) {
            std::ostringstream os;
            os << "token \"" << token_family(ev.detail) << "\" arrived at "
               << to_string(ev.entity) << " at t=" << ev.at << " but event "
               << state.last_event << " sent it from " << to_string(state.depart_from)
               << " to " << to_string(state.depart_to);
            fail(failures, "token_circulation", ev.id, os.str());
          }
          break;
      }
      state.where = Where::kHeld;
      state.holder = ev.entity;
      state.last_event = ev.id;
    } else {
      switch (state.where) {
        case Where::kUnknown:
          break;
        case Where::kHeld:
          if (!(state.holder == ev.entity)) {
            std::ostringstream os;
            os << "token \"" << token_family(ev.detail) << "\" departed from "
               << to_string(ev.entity) << " at t=" << ev.at << " but "
               << to_string(state.holder) << " holds it (event " << state.last_event << ")";
            fail(failures, "token_circulation", ev.id, os.str());
          }
          break;
        case Where::kInFlight: {
          std::ostringstream os;
          os << "token \"" << token_family(ev.detail) << "\" departed from "
             << to_string(ev.entity) << " at t=" << ev.at
             << " while still in flight from " << to_string(state.depart_from) << " (event "
             << state.last_event << ") -- duplicate token";
          fail(failures, "token_circulation", ev.id, os.str());
          break;
        }
      }
      state.where = Where::kInFlight;
      state.depart_from = ev.entity;
      state.depart_to = ev.peer;
      state.last_event = ev.id;
    }
  }
  return failures;
}

std::vector<CheckFailure> check_channel_fifo(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  struct SendPos {
    std::uint64_t channel = 0;
    std::uint64_t position = 0;
  };
  std::unordered_map<EventId, SendPos> send_positions;
  std::unordered_map<std::uint64_t, std::uint64_t> send_counts;
  struct Consumed {
    std::uint64_t position = 0;
    EventId recv = 0;
    EventId send = 0;
  };
  std::unordered_map<std::uint64_t, Consumed> last_consumed;
  for (const auto& ev : events) {
    if (ev.channel == 0) continue;
    if (ev.kind == EventKind::kSend) {
      send_positions[ev.id] = SendPos{ev.channel, ++send_counts[ev.channel]};
    } else if (ev.kind == EventKind::kRecv) {
      const auto sent = send_positions.find(ev.cause);
      if (sent == send_positions.end()) continue;
      if (sent->second.channel != ev.channel) {
        std::ostringstream os;
        os << "recv at " << to_string(ev.entity) << " on channel " << ev.channel
           << " consumed send event " << ev.cause << " from channel "
           << sent->second.channel;
        fail(failures, "channel_fifo", ev.id, os.str());
        continue;
      }
      auto& consumed = last_consumed[ev.channel];
      if (consumed.recv != 0 && sent->second.position <= consumed.position) {
        std::ostringstream os;
        os << "FIFO violation on channel " << ev.channel << ": recv at "
           << to_string(ev.entity) << " t=" << ev.at << " consumed send event " << ev.cause
           << " (position " << sent->second.position << ") after recv event "
           << consumed.recv << " already consumed send event " << consumed.send
           << " (position " << consumed.position << ")";
        fail(failures, "channel_fifo", ev.id, os.str());
        continue;
      }
      consumed = Consumed{sent->second.position, ev.id, ev.cause};
    }
  }
  return failures;
}

std::vector<CheckFailure> check_traversal_cap(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, EventId> grants;
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kTokenDepart) continue;
    if (ev.detail != "R2'" && ev.detail != "R2''") continue;
    if (ev.peer.kind != Entity::Kind::kMh) continue;
    const auto key = std::make_tuple(std::string(ev.detail), ev.arg,
                                     static_cast<std::uint64_t>(ev.peer.idx));
    const auto [it, inserted] = grants.try_emplace(key, ev.id);
    if (!inserted) {
      std::ostringstream os;
      os << ev.detail << " granted the token to " << to_string(ev.peer)
         << " twice in traversal token_val=" << ev.arg << " (events " << it->second
         << " and " << ev.id << ") -- stale access_count replay";
      fail(failures, "traversal_cap", ev.id, os.str());
    }
  }
  return failures;
}

std::vector<CheckFailure> check_causal_clocks(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  std::unordered_map<EventId, std::uint64_t> lamports;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, EventId>> last_seq;
  lamports.reserve(events.size());
  for (const auto& ev : events) {
    if (ev.cause != 0) {
      const auto parent = lamports.find(ev.cause);
      if (parent != lamports.end() && ev.lamport <= parent->second) {
        std::ostringstream os;
        os << "event " << ev.id << " at " << to_string(ev.entity) << " has lamport "
           << ev.lamport << " but its causal parent event " << ev.cause << " has lamport "
           << parent->second << " -- clock did not advance across the causal edge";
        fail(failures, "causal_clocks", ev.id, os.str());
      }
    }
    lamports.emplace(ev.id, ev.lamport);
    if (ev.entity.valid()) {
      const auto [it, inserted] =
          last_seq.try_emplace(ev.entity.key(), std::make_pair(ev.seq, ev.id));
      if (!inserted) {
        if (ev.seq <= it->second.first) {
          std::ostringstream os;
          os << "event " << ev.id << " at " << to_string(ev.entity) << " has seq " << ev.seq
             << " but the entity's previous event " << it->second.second << " has seq "
             << it->second.first << " -- per-entity sequence not strictly increasing";
          fail(failures, "causal_clocks", ev.id, os.str());
        }
        it->second = std::make_pair(ev.seq, ev.id);
      }
    }
  }
  return failures;
}

std::vector<CheckFailure> check_fault_delivery(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  std::unordered_set<EventId> dropped_sends;
  std::unordered_map<std::uint64_t, std::pair<bool, EventId>> down;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case EventKind::kMsgDropped:
        if (ev.cause != 0) dropped_sends.insert(ev.cause);
        break;
      case EventKind::kRecv:
        if (ev.cause != 0 && dropped_sends.contains(ev.cause)) {
          std::ostringstream os;
          os << "recv at " << to_string(ev.entity) << " t=" << ev.at
             << " consumed send event " << ev.cause
             << " that the fault plane dropped -- ghost delivery";
          fail(failures, "fault_delivery", ev.id, os.str());
        }
        break;
      case EventKind::kMssCrash: {
        const auto [it, inserted] =
            down.try_emplace(ev.entity.key(), std::make_pair(true, ev.id));
        if (!inserted) {
          if (it->second.first) {
            std::ostringstream os;
            os << to_string(ev.entity) << " crashed at t=" << ev.at
               << " while already down (event " << it->second.second << ")";
            fail(failures, "fault_delivery", ev.id, os.str());
          }
          it->second = std::make_pair(true, ev.id);
        }
        break;
      }
      case EventKind::kMssRecover: {
        const auto it = down.find(ev.entity.key());
        if (it != down.end() && !it->second.first) {
          std::ostringstream os;
          os << to_string(ev.entity) << " recovered at t=" << ev.at
             << " but was not down (event " << it->second.second << ")";
          fail(failures, "fault_delivery", ev.id, os.str());
        }
        down[ev.entity.key()] = std::make_pair(false, ev.id);
        break;
      }
      default:
        break;
    }
  }
  return failures;
}

std::vector<CheckFailure> check_packet_fifo(std::span<const Event> events) {
  std::vector<CheckFailure> failures;
  struct PacketPos {
    std::uint64_t channel = 0;
    std::uint64_t position = 0;
    std::uint64_t msgs = 0;
  };
  std::unordered_map<EventId, PacketPos> packet_positions;
  std::unordered_map<std::uint64_t, std::uint64_t> packet_counts;
  struct Consumed {
    std::uint64_t position = 0;
    EventId flush = 0;
    EventId send = 0;
  };
  std::unordered_map<std::uint64_t, Consumed> last_consumed;
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kPacketSend) {
      if (ev.channel == 0) {
        fail(failures, "packet_fifo", ev.id,
             "packet send from " + to_string(ev.entity) + " carries no channel key");
        continue;
      }
      packet_positions[ev.id] = PacketPos{ev.channel, ++packet_counts[ev.channel], ev.arg};
    } else if (ev.kind == EventKind::kPacketFlush) {
      const auto sent = packet_positions.find(ev.cause);
      if (sent == packet_positions.end()) continue;
      if (sent->second.channel != ev.channel) {
        std::ostringstream os;
        os << "packet flush at " << to_string(ev.entity) << " on channel " << ev.channel
           << " consumed packet send event " << ev.cause << " from channel "
           << sent->second.channel;
        fail(failures, "packet_fifo", ev.id, os.str());
        continue;
      }
      if (sent->second.msgs != ev.arg) {
        std::ostringstream os;
        os << "packet flush event " << ev.id << " at " << to_string(ev.entity)
           << " delivered " << ev.arg << " messages but packet send event " << ev.cause
           << " carried " << sent->second.msgs << " -- messages lost or grown in flight";
        fail(failures, "packet_fifo", ev.id, os.str());
        continue;
      }
      auto& consumed = last_consumed[ev.channel];
      if (consumed.flush != 0 && sent->second.position <= consumed.position) {
        std::ostringstream os;
        os << "packet FIFO violation on channel " << ev.channel << ": flush at "
           << to_string(ev.entity) << " t=" << ev.at << " consumed packet send event "
           << ev.cause << " (position " << sent->second.position << ") after flush event "
           << consumed.flush << " already consumed packet send event " << consumed.send
           << " (position " << consumed.position << ")";
        fail(failures, "packet_fifo", ev.id, os.str());
        continue;
      }
      consumed = Consumed{sent->second.position, ev.id, ev.cause};
    }
  }
  return failures;
}

std::vector<CheckFailure> check_all(std::span<const Event> events) {
  std::vector<CheckFailure> failures = check_cs_exclusion(events);
  auto append = [&failures](std::vector<CheckFailure> more) {
    failures.insert(failures.end(), std::make_move_iterator(more.begin()),
                    std::make_move_iterator(more.end()));
  };
  append(check_token_circulation(events));
  append(check_channel_fifo(events));
  append(check_traversal_cap(events));
  append(check_causal_clocks(events));
  append(check_fault_delivery(events));
  append(check_packet_fifo(events));
  return failures;
}

std::vector<Event> merge_canonical(std::span<const obs::EventStream* const> streams,
                                   const obs::LaneOf& lane_of) {
  struct Rec {
    Event ev;
    std::uint32_t stream = 0;
    std::uint32_t lane = 0;
    std::uint64_t lane_pos = 0;
  };
  std::vector<Rec> recs;
  std::vector<std::uint64_t> lane_pos;
  for (std::uint32_t s = 0; s < streams.size(); ++s) {
    streams[s]->for_each([&](const Event& ev) {
      const std::uint32_t lane = lane_of(ev.entity);
      if (lane >= lane_pos.size()) lane_pos.resize(lane + 1, 0);
      recs.push_back(Rec{ev, s, lane, lane_pos[lane]++});
    });
  }
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    if (a.ev.at != b.ev.at) return a.ev.at < b.ev.at;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.lane_pos < b.lane_pos;
  });
  std::vector<std::unordered_map<EventId, EventId>> remap(streams.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    remap[recs[i].stream].emplace(recs[i].ev.id, static_cast<EventId>(i + 1));
  }
  const auto resolve = [&](std::uint32_t stream, EventId cause) -> EventId {
    if (cause == 0) return 0;
    if (obs::is_cross_ref(cause)) {
      const auto src = obs::cross_ref_stream(cause);
      if (src >= remap.size()) return 0;
      stream = src;
      cause = obs::cross_ref_id(cause);
    }
    const auto it = remap[stream].find(cause);
    return it == remap[stream].end() ? 0 : it->second;
  };
  std::vector<Event> merged;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    Event ev = recs[i].ev;
    ev.id = static_cast<EventId>(i + 1);
    ev.cause = resolve(recs[i].stream, ev.cause);
    merged.push_back(ev);
  }
  return merged;
}

}  // namespace reference

// --------------------------------------------------------------------------
// Real traces
// --------------------------------------------------------------------------

/// One run's checked trace, copied out of the network; `strings` backs
/// every detail view.
struct Trace {
  std::string name;
  obs::InternTable strings{obs::InternTable::kMaxCapacity};
  std::vector<Event> events;
};

/// Run `spec` through exp::run_scenario and copy the trace it checked:
/// the workload's builder is wrapped so a post-run metric reads the
/// network's trace through Network::for_each_event before teardown.
void capture(const exp::ScenarioSpec& spec, Trace& out) {
  out.name = spec.name;
  const auto& builtin = exp::WorkloadLibrary::builtin();
  exp::WorkloadLibrary library;
  library.add(
      spec.workload,
      [&](exp::ScenarioContext& ctx) {
        (*builtin.find(spec.workload))(ctx);
        ctx.metric("captured", [&out, &net = ctx.net()] {
          net.for_each_event([&out](const Event& ev) {
            Event copy = ev;
            copy.detail = out.strings.view(out.strings.intern(ev.detail));
            out.events.push_back(copy);
          });
          return static_cast<double>(out.events.size());
        });
      },
      builtin.shard_safe(spec.workload));
  exp::RunPlan plan;
  plan.spec = spec;
  plan.seed = spec.net.seed;
  const auto result = exp::run_scenario(plan, library);
  ASSERT_TRUE(result.ok) << spec.name << ": " << result.error;
  ASSERT_FALSE(out.events.empty()) << spec.name;
}

exp::ScenarioSpec small_spec(std::string name, std::string workload, std::string variant,
                             std::uint32_t mss, std::uint32_t mh, std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.workload = std::move(workload);
  spec.variant = std::move(variant);
  spec.net.num_mss = mss;
  spec.net.num_mh = mh;
  spec.net.seed = seed;
  return spec;
}

/// L2 with formation batching and an MSS crash, R2', path reversal, a
/// two-shard echo, and a lossy commuter group run.
const std::vector<std::unique_ptr<Trace>>& real_traces() {
  static const auto traces = [] {
    std::vector<exp::ScenarioSpec> specs;
    auto l2 = small_spec("l2", "mutex", "l2", 6, 24, 3);
    l2.net.formation.max_packet_msgs = 4;
    l2.net.formation.flush_deadline = 4;
    l2.params["requests"] = 60;
    l2.params["request_start"] = 1;
    l2.params["request_gap"] = 3;
    l2.params["chaos_moves"] = 10;
    l2.fault.crashes.push_back(fault::MssCrash{2, 40, 30});
    l2.fault.crashes.push_back(fault::MssCrash{2, 150, 20});
    specs.push_back(l2);
    auto r2p = small_spec("r2p", "ring", "r2p", 4, 12, 5);
    r2p.params["requests"] = 24;
    r2p.params["traversals"] = 4;
    r2p.params["request_gap"] = 2;
    specs.push_back(r2p);
    auto nt = small_spec("pathrev", "mutex", "pathrev", 5, 15, 9);
    nt.params["requests"] = 30;
    nt.params["request_start"] = 1;
    nt.params["request_gap"] = 4;
    specs.push_back(nt);
    auto echo = small_spec("echo", "scale", "echo", 8, 128, 11);
    echo.net.shards = 2;
    echo.params["pings"] = 4;
    specs.push_back(echo);
    auto commuter = small_spec("commuter", "group_mobility", "location_view", 8, 160, 13);
    commuter.mobility = true;
    commuter.mob.pattern = mobility::MovePattern::kCommuter;
    commuter.mob.regions = 4;
    commuter.mob.max_moves_per_host = 2;
    commuter.mob.mean_pause = 150.0;
    commuter.mob.mean_transit = 8.0;
    commuter.fault.wireless_loss = 0.05;
    commuter.params["group_size"] = 16;
    commuter.params["messages"] = 12;
    specs.push_back(commuter);

    std::vector<std::unique_ptr<Trace>> out;
    for (const auto& spec : specs) {
      out.push_back(std::make_unique<Trace>());
      capture(spec, *out.back());
    }
    return out;
  }();
  return traces;
}

void expect_same_failures(std::span<const Event> events, const std::string& label) {
  const auto want = reference::check_all(events);
  const auto got = obs::check_all(events);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].checker, want[i].checker) << label << " failure " << i;
    EXPECT_EQ(got[i].event, want[i].event) << label << " failure " << i;
    EXPECT_EQ(got[i].diagnostic, want[i].diagnostic) << label << " failure " << i;
  }
}

TEST(TraceCheckerDiff, RealTracesAndTheirSuffixesMatchTheReference) {
  for (const auto& trace : real_traces()) {
    SCOPED_TRACE(trace->name);
    const std::span<const Event> events(trace->events);
    EXPECT_TRUE(obs::check_all(events).empty());
    expect_same_failures(events, trace->name);
    // Suffixes stand in for evicted rings: causes before the first
    // retained event must be skipped alike.
    for (const std::size_t denominator : {7u, 3u, 2u}) {
      const std::size_t cut = events.size() / denominator;
      expect_same_failures(events.subspan(cut),
                           trace->name + " from " + std::to_string(cut));
    }
  }
}

TEST(TraceCheckerDiff, RealTracesCoverEveryCheckedKind) {
  std::map<EventKind, std::size_t> kinds;
  for (const auto& trace : real_traces()) {
    for (const auto& ev : trace->events) ++kinds[ev.kind];
  }
  for (const auto kind :
       {EventKind::kSend, EventKind::kRecv, EventKind::kCsEnter, EventKind::kCsExit,
        EventKind::kTokenDepart, EventKind::kTokenArrive, EventKind::kMsgDropped,
        EventKind::kMssCrash, EventKind::kMssRecover, EventKind::kPacketSend,
        EventKind::kPacketFlush}) {
    EXPECT_GT(kinds[kind], 0u) << to_string(kind);
  }
}

// --------------------------------------------------------------------------
// Mutations
// --------------------------------------------------------------------------

/// One class of seeded trace corruption, and the reference checker it
/// must trip.
struct Mutation {
  const char* name;
  const char* checker;
  /// Corrupt `events` in place at a position drawn from `rng`; false when
  /// the trace offers no eligible position.
  bool (*apply)(std::vector<Event>& events, sim::Rng& rng);
};

/// Uniform draw from [lo, hi].
std::uint64_t draw(sim::Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.below(hi - lo + 1);
}

/// A random element of `candidates` (indices into the trace).
std::size_t pick(const std::vector<std::size_t>& candidates, sim::Rng& rng) {
  return candidates[draw(rng, 0, candidates.size() - 1)];
}

/// Index of the event with id `id`, when the trace holds it.
std::optional<std::size_t> index_of(const std::vector<Event>& events, EventId id) {
  if (events.empty() || id < events.front().id || id > events.back().id) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(id - events.front().id);
}

bool fifo_swap(std::vector<Event>& events, sim::Rng& rng) {
  // Two recvs on one channel whose sends are both retained: swapping
  // their causes makes the later recv consume the earlier send.
  std::map<std::uint64_t, std::size_t> last_recv;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.kind != EventKind::kRecv || ev.channel == 0) continue;
    const auto sent = index_of(events, ev.cause);
    if (!sent || events[*sent].kind != EventKind::kSend) continue;
    if (const auto it = last_recv.find(ev.channel); it != last_recv.end()) {
      pairs.emplace_back(it->second, i);
    }
    last_recv[ev.channel] = i;
  }
  if (pairs.empty()) return false;
  const auto [a, b] = pairs[draw(rng, 0, pairs.size() - 1)];
  std::swap(events[a].cause, events[b].cause);
  return true;
}

/// A consumer (recv or packet flush) re-parented to the send the
/// previous consumer on its channel already took: a duplicate delivery.
bool repeated_delivery(std::vector<Event>& events, sim::Rng& rng, EventKind consumer) {
  std::map<std::uint64_t, std::size_t> last;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.kind != consumer || ev.channel == 0 || !index_of(events, ev.cause)) continue;
    if (const auto it = last.find(ev.channel); it != last.end()) {
      pairs.emplace_back(it->second, i);
    }
    last[ev.channel] = i;
  }
  if (pairs.empty()) return false;
  const auto [a, b] = pairs[draw(rng, 0, pairs.size() - 1)];
  events[b].cause = events[a].cause;
  events[b].arg = events[a].arg;  // a flush's message count stays intact
  return true;
}

bool repeated_recv(std::vector<Event>& events, sim::Rng& rng) {
  return repeated_delivery(events, rng, EventKind::kRecv);
}

bool repeated_flush(std::vector<Event>& events, sim::Rng& rng) {
  return repeated_delivery(events, rng, EventKind::kPacketFlush);
}

bool double_cs_enter(std::vector<Event>& events, sim::Rng& rng) {
  // An exit turned into another host's enter: the holder never left.
  std::vector<std::size_t> exits;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kCsExit) exits.push_back(i);
  }
  if (exits.empty()) return false;
  auto& ev = events[pick(exits, rng)];
  ev.kind = EventKind::kCsEnter;
  ev.entity.idx += 1;
  return true;
}

bool duplicate_token(std::vector<Event>& events, sim::Rng& rng) {
  // A departure turned into an arrival: a second token appears.
  std::vector<std::size_t> departs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kTokenDepart) departs.push_back(i);
  }
  if (departs.empty()) return false;
  events[pick(departs, rng)].kind = EventKind::kTokenArrive;
  return true;
}

bool double_r2p_grant(std::vector<Event>& events, sim::Rng& rng) {
  // A later R2' grant re-aimed at an earlier grant's (traversal, MH).
  std::vector<std::size_t> grants;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.kind == EventKind::kTokenDepart && ev.detail == "R2'" &&
        ev.peer.kind == Entity::Kind::kMh) {
      grants.push_back(i);
    }
  }
  if (grants.size() < 2) return false;
  const std::size_t k = draw(rng, 1, grants.size() - 1);
  const auto& first = events[grants[draw(rng, 0, k - 1)]];
  events[grants[k]].arg = first.arg;
  events[grants[k]].peer = first.peer;
  return true;
}

bool stuck_clock(std::vector<Event>& events, sim::Rng& rng) {
  std::vector<std::size_t> children;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (index_of(events, events[i].cause)) children.push_back(i);
  }
  if (children.empty()) return false;
  auto& ev = events[pick(children, rng)];
  ev.lamport = events[*index_of(events, ev.cause)].lamport;
  return true;
}

bool repeated_seq(std::vector<Event>& events, sim::Rng& rng) {
  std::map<std::uint64_t, std::size_t> last;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].entity.valid()) continue;
    const auto key = events[i].entity.key();
    if (const auto it = last.find(key); it != last.end()) {
      pairs.emplace_back(it->second, i);
    }
    last[key] = i;
  }
  if (pairs.empty()) return false;
  const auto [a, b] = pairs[draw(rng, 0, pairs.size() - 1)];
  events[b].seq = events[a].seq;
  return true;
}

bool ghost_delivery(std::vector<Event>& events, sim::Rng& rng) {
  // A later recv re-parented to a send the fault plane dropped.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t first_drop = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kMsgDropped && events[i].cause != 0) {
      first_drop = std::min(first_drop, i);
    } else if (events[i].kind == EventKind::kRecv && first_drop < i) {
      pairs.emplace_back(first_drop, i);
    }
  }
  if (pairs.empty()) return false;
  const auto [drop, recv] = pairs[draw(rng, 0, pairs.size() - 1)];
  events[recv].cause = events[drop].cause;
  return true;
}

bool repeated_crash_or_recover(std::vector<Event>& events, sim::Rng& rng) {
  // A recover turned into a crash (still down at the next crash), or a
  // crash turned into a recover (not down at the next recover).
  std::vector<std::size_t> faults;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto kind = events[i].kind;
    if (kind == EventKind::kMssCrash || kind == EventKind::kMssRecover) {
      faults.push_back(i);
    }
  }
  if (faults.empty()) return false;
  auto& ev = events[pick(faults, rng)];
  ev.kind =
      ev.kind == EventKind::kMssCrash ? EventKind::kMssRecover : EventKind::kMssCrash;
  return true;
}

bool packet_message_count(std::vector<Event>& events, sim::Rng& rng) {
  std::vector<std::size_t> flushes;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kPacketFlush && index_of(events, events[i].cause)) {
      flushes.push_back(i);
    }
  }
  if (flushes.empty()) return false;
  events[pick(flushes, rng)].arg += 1;
  return true;
}

bool channel_mismatch(std::vector<Event>& events, sim::Rng& rng) {
  // A recv or packet flush re-labelled onto another channel.
  std::vector<std::size_t> consumers;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const bool consumer = (ev.kind == EventKind::kRecv && ev.channel != 0) ||
                          ev.kind == EventKind::kPacketFlush;
    if (consumer && index_of(events, ev.cause)) consumers.push_back(i);
  }
  if (consumers.empty()) return false;
  auto& ev = events[pick(consumers, rng)];
  ev.channel ^= std::uint64_t{1} << draw(rng, 0, 40);
  if (ev.channel == 0) ev.channel = 1;
  return true;
}

constexpr Mutation kMutations[] = {
    {"fifo_swap", "channel_fifo", fifo_swap},
    {"repeated_recv", "channel_fifo", repeated_recv},
    {"repeated_flush", "packet_fifo", repeated_flush},
    {"double_cs_enter", "cs_exclusion", double_cs_enter},
    {"duplicate_token", "token_circulation", duplicate_token},
    {"double_r2p_grant", "traversal_cap", double_r2p_grant},
    {"stuck_clock", "causal_clocks", stuck_clock},
    {"repeated_seq", "causal_clocks", repeated_seq},
    {"ghost_delivery", "fault_delivery", ghost_delivery},
    {"repeated_crash_or_recover", "fault_delivery", repeated_crash_or_recover},
    {"packet_message_count", "packet_fifo", packet_message_count},
    {"channel_mismatch", "channel_fifo", channel_mismatch},
};

TEST(TraceCheckerDiff, SeededMutationsMatchTheReferenceAndEveryClassFires) {
  std::map<std::string, std::size_t> fired;
  for (const auto& trace : real_traces()) {
    for (const auto& mutation : kMutations) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        sim::Rng rng(seed * 7919 + trace->events.size());
        auto events = trace->events;
        if (!mutation.apply(events, rng)) break;
        const std::string label =
            trace->name + "/" + mutation.name + "/seed " + std::to_string(seed);
        expect_same_failures(events, label);
        for (const auto& failure : reference::check_all(events)) {
          if (failure.checker == mutation.checker) {
            ++fired[mutation.name];
            break;
          }
        }
      }
    }
  }
  for (const auto& mutation : kMutations) {
    EXPECT_GT(fired[mutation.name], 0u) << mutation.name << " never fired";
  }
}

TEST(TraceCheckerDiff, ViolationsAgainstTheFirstRetainedEventMatchTheReference) {
  // Cut each trace right at a parent whose child is retained, then
  // corrupt the child: the first retained event must count as retained.
  std::size_t fired = 0;
  for (const auto& trace : real_traces()) {
    const std::span<const Event> all(trace->events);
    for (const auto kind : {EventKind::kRecv, EventKind::kPacketFlush}) {
      for (std::size_t c = all.size() / 2; c < all.size(); ++c) {
        const auto& child = all[c];
        const bool retained = child.cause >= all.front().id && child.cause < child.id;
        if (child.kind != kind || !retained) continue;
        const auto p = static_cast<std::size_t>(child.cause - all.front().id);
        for (int variant = 0; variant < 3; ++variant) {
          const auto suffix = all.subspan(p);
          std::vector<Event> events(suffix.begin(), suffix.end());
          auto& corrupt = events[c - p];
          if (variant == 0) corrupt.lamport = events.front().lamport;
          if (variant == 1) corrupt.channel ^= std::uint64_t{1} << 20;
          if (variant == 2) corrupt.arg += 1;
          expect_same_failures(events, trace->name + "/" + std::string(to_string(kind)) +
                                           " variant " + std::to_string(variant));
          if (!reference::check_all(events).empty()) ++fired;
        }
        break;
      }
    }
  }
  EXPECT_GT(fired, 0u);
}

TEST(TraceCheckerDiff, RandomFieldCorruptionMatchesTheReference) {
  // Blind corruption of kinds, causes, channels, clocks, entities and
  // args — ids stay contiguous — over whole traces and their suffixes.
  constexpr EventKind kKinds[] = {EventKind::kSend,        EventKind::kRecv,
                                  EventKind::kCsEnter,     EventKind::kCsExit,
                                  EventKind::kTokenDepart, EventKind::kTokenArrive,
                                  EventKind::kMsgDropped,  EventKind::kMssCrash,
                                  EventKind::kMssRecover,  EventKind::kPacketSend,
                                  EventKind::kPacketFlush};
  for (const auto& trace : real_traces()) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      sim::Rng rng(seed);
      auto events = trace->events;
      const std::size_t edits = 1 + draw(rng, 0, 8);
      for (std::size_t e = 0; e < edits; ++e) {
        auto& ev = events[draw(rng, 0, events.size() - 1)];
        const auto& other = events[draw(rng, 0, events.size() - 1)];
        switch (draw(rng, 0, 6)) {
          case 0: ev.kind = kKinds[draw(rng, 0, std::size(kKinds) - 1)]; break;
          case 1: ev.cause = other.id; break;
          case 2: ev.channel = other.channel; break;
          case 3: ev.lamport = other.lamport; break;
          case 4: ev.seq = other.seq; break;
          case 5: ev.entity = other.entity; break;
          default: ev.arg = other.arg; break;
        }
      }
      const std::span<const Event> all(events);
      expect_same_failures(all, trace->name + "/random " + std::to_string(seed));
      expect_same_failures(all.subspan(all.size() / 4),
                           trace->name + "/random suffix " + std::to_string(seed));
    }
  }
}

// --------------------------------------------------------------------------
// Canonical merge
// --------------------------------------------------------------------------

TEST(CanonicalMergeDiff, RandomRingsMatchTheReferenceByteForByte) {
  // Lanes 0..7 spread over the streams; few distinct instants, so
  // cross-lane ties are the norm; rings of 8–64 records, so most causes
  // (local and cross-stream) point at evicted parents.
  constexpr std::uint32_t kLanes = 8;
  const obs::LaneOf lane_of = [](Entity e) {
    return e.kind == Entity::Kind::kMh ? e.idx % kLanes : e.idx;
  };
  // Coverage of the three hard cases, summed over every input.
  std::size_t evicted_records = 0;
  std::size_t evicted_cross_parents = 0;
  std::size_t cross_lane_ties = 0;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " seed=" + std::to_string(seed));
      sim::Rng rng(seed * 131 + shards);
      std::vector<std::unique_ptr<obs::EventStream>> owned;
      std::vector<const obs::EventStream*> streams;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const std::size_t capacity = std::size_t{8} << draw(rng, 0, 3);
        owned.push_back(std::make_unique<obs::EventStream>(capacity));
        streams.push_back(owned.back().get());
      }
      std::vector<sim::SimTime> now(shards, 0);
      struct CrossRef {
        std::uint32_t stream;
        EventId id;
        std::uint32_t parent_stream;
        EventId parent;
      };
      std::vector<CrossRef> cross_refs;
      const std::size_t emits = 50 + draw(rng, 0, 250);
      for (std::size_t i = 0; i < emits; ++i) {
        const auto s = static_cast<std::uint32_t>(draw(rng, 0, shards - 1));
        auto& stream = *owned[s];
        now[s] += draw(rng, 0, 2);
        obs::EventStream::Emit spec;
        spec.kind = static_cast<EventKind>(draw(rng, 0, 5));
        // Entities whose lane lives on this stream (lane % shards == s),
        // plus the occasional stray lane.
        std::uint32_t lane = s + shards * static_cast<std::uint32_t>(draw(rng, 0, 3));
        if (lane >= kLanes || draw(rng, 0, 19) == 0) {
          lane = static_cast<std::uint32_t>(draw(rng, 0, kLanes - 1));
        }
        spec.entity = draw(rng, 0, 1) == 0
                          ? Entity::mss(lane)
                          : Entity::mh(lane + kLanes * static_cast<std::uint32_t>(
                                                       draw(rng, 0, 3)));
        spec.channel = draw(rng, 0, 3);
        spec.detail = draw(rng, 0, 1) == 0 ? "a" : "bb";
        switch (draw(rng, 0, 3)) {
          case 0:
            break;  // no cause
          case 1:
            if (stream.emitted() > 0) spec.cause = 1 + draw(rng, 0, stream.emitted() - 1);
            break;
          case 2: {
            const auto from = static_cast<std::uint32_t>(draw(rng, 0, shards - 1));
            if (owned[from]->emitted() > 0) {
              const auto id = 1 + draw(rng, 0, owned[from]->emitted() - 1);
              spec.cause = obs::make_cross_ref(from, id);
              spec.cause_clock = 1 + draw(rng, 0, 50);
            }
            break;
          }
          default:
            spec.cause = obs::make_cross_ref(shards + 3, 1);  // unknown stream
            spec.cause_clock = 1;
            break;
        }
        const EventId id = stream.emit(now[s], spec);
        if (obs::is_cross_ref(spec.cause) && obs::cross_ref_stream(spec.cause) < shards) {
          cross_refs.push_back(CrossRef{s, id, obs::cross_ref_stream(spec.cause),
                                        obs::cross_ref_id(spec.cause)});
        }
      }
      for (const auto* stream : streams) evicted_records += stream->dropped();
      for (const auto& ref : cross_refs) {
        if (ref.id > owned[ref.stream]->dropped() &&
            ref.parent <= owned[ref.parent_stream]->dropped()) {
          ++evicted_cross_parents;
        }
      }
      const auto want = reference::merge_canonical(streams, lane_of);
      for (std::size_t i = 1; i < want.size(); ++i) {
        const bool tie = want[i].at == want[i - 1].at;
        if (tie && lane_of(want[i].entity) != lane_of(want[i - 1].entity)) {
          ++cross_lane_ties;
        }
      }
      const auto got = obs::merge_canonical(streams, lane_of);
      EXPECT_EQ(obs::to_jsonl(std::span<const Event>(got)),
                obs::to_jsonl(std::span<const Event>(want)));
      // The visitor itself hands out the same records.
      std::vector<Event> visited;
      obs::for_each_canonical(streams, lane_of,
                              [&visited](const Event& ev) { visited.push_back(ev); });
      EXPECT_EQ(obs::to_jsonl(std::span<const Event>(visited)),
                obs::to_jsonl(std::span<const Event>(want)));
    }
  }
  EXPECT_GT(evicted_records, 0u);
  EXPECT_GT(evicted_cross_parents, 0u);
  EXPECT_GT(cross_lane_ties, 0u);
}

}  // namespace
}  // namespace mobidist::test
