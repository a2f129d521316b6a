#include "obs/checkers.hpp"

#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mobidist::obs {

std::string to_string(const CheckFailure& failure) {
  std::ostringstream os;
  os << failure.checker << " @ event " << failure.event << ": " << failure.diagnostic;
  return os.str();
}

namespace {

/// Ring family of a token event: the algorithm tag up to the first
/// apostrophe/tilde decoration, so "R2", "R2'", "R2''", and "R2~" all
/// share one token.
std::string_view token_family(std::string_view detail) {
  const auto cut = detail.find_first_of("'~");
  return cut == std::string_view::npos ? detail : detail.substr(0, cut);
}

constexpr const char* kGroupNames[] = {
    "event_ids",      "cs_exclusion",  "token_circulation", "channel_fifo",
    "traversal_cap",  "causal_clocks", "fault_delivery",    "packet_fifo",
};

}  // namespace

// --- SlotTable --------------------------------------------------------------

std::uint32_t TraceChecker::SlotTable::slot_of(std::uint64_t key) {
  if (2 * (keys_.size() + 1) > buckets_.size()) grow();
  const std::size_t mask = buckets_.size() - 1;
  // Fibonacci hashing: the multiply spreads structured keys (packed
  // channel fields, kind<<32|idx entities) over the top bits.
  for (std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;; i = (i + 1) & mask) {
    const std::uint32_t bucket = buckets_[i];
    if (bucket == 0) {
      keys_.push_back(key);
      buckets_[i] = static_cast<std::uint32_t>(keys_.size());
      return static_cast<std::uint32_t>(keys_.size() - 1);
    }
    if (keys_[bucket - 1] == key) return bucket - 1;
  }
}

void TraceChecker::SlotTable::grow() {
  const std::size_t size = buckets_.empty() ? 64 : 2 * buckets_.size();
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  buckets_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
    std::size_t i = (keys_[slot] * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (buckets_[i] != 0) i = (i + 1) & mask;
    buckets_[i] = static_cast<std::uint32_t>(slot + 1);
  }
}

// --- TraceChecker -----------------------------------------------------------

void TraceChecker::reserve(std::size_t events) { fed_.reserve(events); }

const TraceChecker::Fed* TraceChecker::fed_before(EventId cause) const noexcept {
  // Causes before the first fed event were evicted; causes at or after
  // the current one are not known yet (a ref into another stream, or a
  // forward reference).
  if (cause < first_id_ || cause - first_id_ >= fed_.size()) return nullptr;
  return &fed_[offset_of(cause)];
}

void TraceChecker::fail(Group group, EventId event, std::string diagnostic) {
  failures_[group].push_back(
      CheckFailure{kGroupNames[group], event, std::move(diagnostic)});
}

void TraceChecker::feed(const Event& ev) {
  if (stopped_) return;
  if (fed_.empty()) first_id_ = ev.id;
  if (ev.id == 0 || ev.id != first_id_ + fed_.size()) {
    std::ostringstream os;
    if (ev.id == 0) {
      os << "event id 0 -- ids are 1-based";
    } else {
      os << "event id " << ev.id << " follows event id " << first_id_ + fed_.size() - 1
         << " -- ids must be contiguous (a record was deleted, repeated or reordered)";
    }
    os << "; checking stopped here";
    fail(kIds, ev.id, os.str());
    stopped_ = true;
    return;
  }
  if (fed_.size() == std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("TraceChecker: more than 2^32 - 1 events");
  }

  Fed fed;
  fed.lamport = ev.lamport;
  check_cs(ev);
  check_token(ev);
  check_channel(ev, fed);
  check_traversal(ev);
  check_clocks(ev);
  check_faults(ev);
  check_packet(ev, fed);
  fed_.push_back(fed);
}

std::vector<CheckFailure> TraceChecker::finish() {
  std::vector<CheckFailure> out;
  for (auto& group : failures_) {
    out.insert(out.end(), std::make_move_iterator(group.begin()),
               std::make_move_iterator(group.end()));
  }
  *this = TraceChecker{};
  return out;
}

void TraceChecker::check_cs(const Event& ev) {
  // Per mutual-exclusion instance (detail label): who is inside, and the
  // enter event that put them there.
  if (ev.kind == EventKind::kCsEnter) {
    auto it = cs_holders_.find(ev.detail);
    if (it == cs_holders_.end()) {
      it = cs_holders_.emplace(std::string(ev.detail), Holder{}).first;
    } else if (it->second.since != 0) {
      std::ostringstream os;
      os << to_string(ev.entity) << " entered the CS of instance \"" << ev.detail
         << "\" at t=" << ev.at << " while " << to_string(it->second.who)
         << " still holds it (enter event " << it->second.since << ")";
      fail(kCsExclusion, ev.id, os.str());
    }
    it->second = Holder{ev.entity, ev.id};
  } else if (ev.kind == EventKind::kCsExit) {
    const auto it = cs_holders_.find(ev.detail);
    if (it == cs_holders_.end()) return;  // enter evicted from a truncated stream
    if (it->second.since != 0 && !(it->second.who == ev.entity)) {
      std::ostringstream os;
      os << to_string(ev.entity) << " exited the CS of instance \"" << ev.detail
         << "\" at t=" << ev.at << " but " << to_string(it->second.who)
         << " is the recorded holder";
      fail(kCsExclusion, ev.id, os.str());
    }
    it->second.since = 0;
  }
}

void TraceChecker::check_token(const Event& ev) {
  if (ev.kind != EventKind::kTokenDepart && ev.kind != EventKind::kTokenArrive) return;
  const std::string_view family = token_family(ev.detail);
  auto it = tokens_.find(family);
  if (it == tokens_.end()) it = tokens_.emplace(std::string(family), TokenState{}).first;
  auto& state = it->second;
  using Where = TokenState::Where;
  if (ev.kind == EventKind::kTokenArrive) {
    switch (state.where) {
      case Where::kUnknown:
        break;  // injection, or a truncated stream's first sighting
      case Where::kHeld: {
        std::ostringstream os;
        os << "token \"" << family << "\" arrived at " << to_string(ev.entity)
           << " at t=" << ev.at << " while already held by " << to_string(state.holder)
           << " (event " << state.last_event << ") -- duplicate token";
        fail(kTokenCirculation, ev.id, os.str());
        break;
      }
      case Where::kInFlight:
        // The legal destinations are the announced peer and, when the
        // peer was unreachable, the sender itself (the bounce path).
        if (!(ev.entity == state.depart_to) && !(ev.entity == state.depart_from)) {
          std::ostringstream os;
          os << "token \"" << family << "\" arrived at " << to_string(ev.entity)
             << " at t=" << ev.at << " but event " << state.last_event << " sent it from "
             << to_string(state.depart_from) << " to " << to_string(state.depart_to);
          fail(kTokenCirculation, ev.id, os.str());
        }
        break;
    }
    state.where = Where::kHeld;
    state.holder = ev.entity;
    state.last_event = ev.id;
  } else {  // kTokenDepart
    switch (state.where) {
      case Where::kUnknown:
        break;  // the matching arrival predates the retained suffix
      case Where::kHeld:
        if (!(state.holder == ev.entity)) {
          std::ostringstream os;
          os << "token \"" << family << "\" departed from " << to_string(ev.entity)
             << " at t=" << ev.at << " but " << to_string(state.holder)
             << " holds it (event " << state.last_event << ")";
          fail(kTokenCirculation, ev.id, os.str());
        }
        break;
      case Where::kInFlight: {
        std::ostringstream os;
        os << "token \"" << family << "\" departed from " << to_string(ev.entity)
           << " at t=" << ev.at << " while still in flight from "
           << to_string(state.depart_from) << " (event " << state.last_event
           << ") -- duplicate token";
        fail(kTokenCirculation, ev.id, os.str());
        break;
      }
    }
    state.where = Where::kInFlight;
    state.depart_from = ev.entity;
    state.depart_to = ev.peer;
    state.last_event = ev.id;
  }
}

void TraceChecker::check_channel(const Event& ev, Fed& fed) {
  if (ev.channel == 0) return;
  if (ev.kind == EventKind::kSend) {
    const std::uint32_t slot = channel_slots_.slot_of(ev.channel);
    if (slot == channels_.size()) channels_.emplace_back();
    fed.send = slot + 1;
    fed.position = ++channels_[slot].sends;
  } else if (ev.kind == EventKind::kRecv) {
    const Fed* sent = fed_before(ev.cause);
    if (sent == nullptr || sent->send == 0 || (sent->send & kPacketSend) != 0) {
      return;  // send predates the suffix
    }
    const std::uint32_t slot = sent->send - 1;
    if (channel_slots_.key(slot) != ev.channel) {
      std::ostringstream os;
      os << "recv at " << to_string(ev.entity) << " on channel " << ev.channel
         << " consumed send event " << ev.cause << " from channel "
         << channel_slots_.key(slot);
      fail(kChannelFifo, ev.id, os.str());
      return;
    }
    auto& channel = channels_[slot];
    if (channel.consumed != 0 && sent->position <= channel.consumed) {
      std::ostringstream os;
      os << "FIFO violation on channel " << ev.channel << ": recv at "
         << to_string(ev.entity) << " t=" << ev.at << " consumed send event " << ev.cause
         << " (position " << sent->position << ") after recv event " << id_at(channel.by)
         << " already consumed send event " << id_at(channel.send) << " (position "
         << channel.consumed << ")";
      fail(kChannelFifo, ev.id, os.str());
      return;
    }
    channel.consumed = sent->position;
    channel.by = offset_of(ev.id);
    channel.send = offset_of(ev.cause);
  }
}

void TraceChecker::check_traversal(const Event& ev) {
  if (ev.kind != EventKind::kTokenDepart) return;
  if (ev.detail != "R2'" && ev.detail != "R2''") return;
  if (ev.peer.kind != Entity::Kind::kMh) return;  // ring forwarding, not a grant
  const auto key = std::make_tuple(std::string(ev.detail), ev.arg,
                                   static_cast<std::uint64_t>(ev.peer.idx));
  const auto [it, inserted] = grants_.try_emplace(key, ev.id);
  if (!inserted) {
    std::ostringstream os;
    os << ev.detail << " granted the token to " << to_string(ev.peer)
       << " twice in traversal token_val=" << ev.arg << " (events " << it->second
       << " and " << ev.id << ") -- stale access_count replay";
    fail(kTraversalCap, ev.id, os.str());
  }
}

void TraceChecker::check_clocks(const Event& ev) {
  if (ev.cause != 0) {
    const Fed* parent = fed_before(ev.cause);
    if (parent != nullptr && ev.lamport <= parent->lamport) {
      std::ostringstream os;
      os << "event " << ev.id << " at " << to_string(ev.entity) << " has lamport "
         << ev.lamport << " but its causal parent event " << ev.cause << " has lamport "
         << parent->lamport << " -- clock did not advance across the causal edge";
      fail(kCausalClocks, ev.id, os.str());
    }
  }
  if (!ev.entity.valid()) return;
  const std::uint32_t slot = entity_slots_.slot_of(ev.entity.key());
  if (slot == last_seq_.size()) {
    last_seq_.push_back(LastSeq{ev.seq, ev.id});
    return;
  }
  auto& last = last_seq_[slot];
  if (ev.seq <= last.seq) {
    std::ostringstream os;
    os << "event " << ev.id << " at " << to_string(ev.entity) << " has seq " << ev.seq
       << " but the entity's previous event " << last.event << " has seq " << last.seq
       << " -- per-entity sequence not strictly increasing";
    fail(kCausalClocks, ev.id, os.str());
  }
  last = LastSeq{ev.seq, ev.id};
}

void TraceChecker::check_faults(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kMsgDropped:
      if (ev.cause != 0) dropped_sends_.insert(ev.cause);
      break;
    case EventKind::kRecv:
      if (ev.cause != 0 && dropped_sends_.contains(ev.cause)) {
        std::ostringstream os;
        os << "recv at " << to_string(ev.entity) << " t=" << ev.at
           << " consumed send event " << ev.cause
           << " that the fault plane dropped -- ghost delivery";
        fail(kFaultDelivery, ev.id, os.str());
      }
      break;
    case EventKind::kMssCrash: {
      const auto [it, inserted] = down_.try_emplace(ev.entity.key(), true, ev.id);
      if (!inserted) {
        if (it->second.first) {
          std::ostringstream os;
          os << to_string(ev.entity) << " crashed at t=" << ev.at
             << " while already down (event " << it->second.second << ")";
          fail(kFaultDelivery, ev.id, os.str());
        }
        it->second = std::make_pair(true, ev.id);
      }
      break;
    }
    case EventKind::kMssRecover: {
      const auto it = down_.find(ev.entity.key());
      if (it != down_.end() && !it->second.first) {
        std::ostringstream os;
        os << to_string(ev.entity) << " recovered at t=" << ev.at
           << " but was not down (event " << it->second.second << ")";
        fail(kFaultDelivery, ev.id, os.str());
      }
      down_[ev.entity.key()] = std::make_pair(false, ev.id);
      break;
    }
    default:
      break;
  }
}

void TraceChecker::check_packet(const Event& ev, Fed& fed) {
  if (ev.kind == EventKind::kPacketSend) {
    if (ev.channel == 0) {
      fail(kPacketFifo, ev.id,
           "packet send from " + to_string(ev.entity) + " carries no channel key");
      return;
    }
    const std::uint32_t slot = packet_slots_.slot_of(ev.channel);
    if (slot == packet_channels_.size()) packet_channels_.emplace_back();
    fed.send = (slot + 1) | kPacketSend;
    fed.position = ++packet_channels_[slot].sends;
    packet_msgs_.resize(fed_.size() + 1);
    packet_msgs_.back() = ev.arg;
  } else if (ev.kind == EventKind::kPacketFlush) {
    const Fed* sent = fed_before(ev.cause);
    if (sent == nullptr || (sent->send & kPacketSend) == 0) {
      return;  // send predates the suffix
    }
    const std::uint32_t slot = (sent->send & ~kPacketSend) - 1;
    if (packet_slots_.key(slot) != ev.channel) {
      std::ostringstream os;
      os << "packet flush at " << to_string(ev.entity) << " on channel " << ev.channel
         << " consumed packet send event " << ev.cause << " from channel "
         << packet_slots_.key(slot);
      fail(kPacketFifo, ev.id, os.str());
      return;
    }
    const std::uint64_t msgs = packet_msgs_[offset_of(ev.cause)];
    if (msgs != ev.arg) {
      std::ostringstream os;
      os << "packet flush event " << ev.id << " at " << to_string(ev.entity)
         << " delivered " << ev.arg << " messages but packet send event " << ev.cause
         << " carried " << msgs << " -- messages lost or grown in flight";
      fail(kPacketFifo, ev.id, os.str());
      return;
    }
    auto& channel = packet_channels_[slot];
    if (channel.consumed != 0 && sent->position <= channel.consumed) {
      std::ostringstream os;
      os << "packet FIFO violation on channel " << ev.channel << ": flush at "
         << to_string(ev.entity) << " t=" << ev.at << " consumed packet send event "
         << ev.cause << " (position " << sent->position << ") after flush event "
         << id_at(channel.by) << " already consumed packet send event "
         << id_at(channel.send) << " (position " << channel.consumed << ")";
      fail(kPacketFifo, ev.id, os.str());
      return;
    }
    channel.consumed = sent->position;
    channel.by = offset_of(ev.id);
    channel.send = offset_of(ev.cause);
  }
}

// --- check_all --------------------------------------------------------------

std::vector<CheckFailure> check_all(std::span<const Event> events) {
  TraceChecker checker;
  checker.reserve(events.size());
  for (const auto& ev : events) checker.feed(ev);
  return checker.finish();
}

std::vector<CheckFailure> check_all(const EventStream& stream) {
  TraceChecker checker;
  checker.reserve(stream.retained());
  stream.for_each([&checker](const Event& ev) { checker.feed(ev); });
  return checker.finish();
}

}  // namespace mobidist::obs
