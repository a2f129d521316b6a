#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/binlog.hpp"
#include "sim/time.hpp"

namespace mobidist::obs {

/// What happened. One value per paper-level event class; the substrate
/// and the algorithm layers emit these, the checkers and exporters in
/// checkers.hpp / the JSONL+Chrome writers consume them.
enum class EventKind : std::uint8_t {
  kSend,            ///< a message entered a channel (wired / downlink / uplink)
  kRecv,            ///< a message left its channel at the destination host
  kDeliver,         ///< a relay payload reached its MH agent (post-resequencing)
  kHandoffBegin,    ///< new MSS asked the previous MSS for per-MH state
  kHandoffEnd,      ///< the handoff state landed at the new MSS
  kDisconnect,      ///< a MH's "disconnected" flag was set at its cell
  kReconnect,       ///< a disconnected MH rejoined (at `peer`'s cell)
  kSearchRound,     ///< one search round resolved / was launched for a MH
  kCsRequest,       ///< a MH asked for the critical section
  kCsEnter,         ///< a MH entered the critical section
  kCsExit,          ///< a MH left the critical section
  kTokenDepart,     ///< a mutual-exclusion token left `entity` towards `peer`
  kTokenArrive,     ///< a token arrived at `entity` (first arrival = injection)
  kLocationUpdate,  ///< a group strategy recorded / propagated a member location
  kViewChange,      ///< the location-view coordinator advanced the view version
  kMsgDropped,      ///< the fault plane killed a wireless frame (cause = its send)
  kMsgDuplicated,   ///< the fault plane scheduled a link-layer copy (cause = the send)
  kMssCrash,        ///< an MSS crashed per the fault schedule; arg = down_for
  kMssRecover,      ///< a crashed MSS came back up
  kPacketSend,      ///< a formation packet entered a wired channel; arg = msg count
  kPacketFlush,     ///< a formation packet disgorged at the destination (cause = its send)
  kReqForward,      ///< a CS claim hopped from `entity` to `peer`; arg = origin MSS
  kPathReversal,    ///< `entity` re-pointed its probable-tail pointer at `peer`
};

/// Stable wire name of a kind ("send", "cs_enter", ...).
[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;
/// Inverse of to_string; nullopt on unknown text.
[[nodiscard]] std::optional<EventKind> parse_kind(std::string_view text) noexcept;

/// The emitting (or peer) entity of an event. Mirrors net::NodeRef
/// without depending on the net layer, so obs stays below net in the
/// dependency order.
struct Entity {
  /// Which of the two host classes (or none, for "no peer").
  enum class Kind : std::uint8_t { kNone, kMss, kMh };

  Kind kind = Kind::kNone;
  std::uint32_t idx = 0;

  /// The idx-th mobile support station.
  [[nodiscard]] static constexpr Entity mss(std::uint32_t idx) noexcept {
    return Entity{Kind::kMss, idx};
  }
  /// The idx-th mobile host.
  [[nodiscard]] static constexpr Entity mh(std::uint32_t idx) noexcept {
    return Entity{Kind::kMh, idx};
  }

  /// False for the default-constructed "no entity".
  [[nodiscard]] constexpr bool valid() const noexcept { return kind != Kind::kNone; }
  /// Dense map key: kind in the top bits, index below.
  [[nodiscard]] constexpr std::uint64_t key() const noexcept {
    return (static_cast<std::uint64_t>(kind) << 32) | idx;
  }

  friend constexpr bool operator==(Entity, Entity) = default;
};

/// "mss:3", "mh:7", or "?" for none.
[[nodiscard]] std::string to_string(Entity entity);
/// Inverse of to_string; nullopt on malformed text.
[[nodiscard]] std::optional<Entity> parse_entity(std::string_view text) noexcept;

/// Stream-unique event identifier, 1-based and dense; 0 means "none".
using EventId = std::uint64_t;

/// One structured event. Everything is a pure function of the
/// simulation, so two same-seed runs produce byte-identical streams.
/// `detail` is a non-owning view: for events decoded from a stream or a
/// binlog it points into the owning InternTable, for hand-built events
/// it is usually a string literal — either way the backing storage must
/// outlive the Event.
struct Event {
  EventId id = 0;          ///< dense, 1-based, assigned by EventStream
  sim::SimTime at = 0;     ///< virtual time of emission
  EventKind kind = EventKind::kSend;
  Entity entity;           ///< who this happened at
  Entity peer;             ///< the other endpoint, when there is one
  std::uint64_t seq = 0;     ///< per-entity emission counter (1-based)
  std::uint64_t lamport = 0; ///< per-entity Lamport clock, advanced across causes
  EventId cause = 0;       ///< causal parent (the send behind this recv, ...)
  std::uint64_t channel = 0; ///< FIFO channel key for send/recv; 0 = unordered
  std::uint64_t arg = 0;     ///< kind-specific payload (proto, token_val, round, ...)
  std::string_view detail;   ///< kind-specific tag ("R2'", "broadcast", "L2", ...)
};

/// Bounded, append-only stream of structured events for one simulated
/// system. Owns id assignment, per-entity sequence numbers, and the
/// per-entity Lamport clocks (advanced past the causal parent's clock on
/// every emission). Storage is a BinLog ring of 64-byte BinRecords plus
/// an InternTable for detail tags, so the steady-state emit path — warm
/// interner, per-entity counters grown — performs zero heap allocations
/// with tracing on. The ring keeps the most recent `capacity` events;
/// overwrites are counted in dropped() so artifact consumers can see
/// truncation instead of silently trusting a partial stream.
class EventStream {
 public:
  /// 16 MiB of retained telemetry at the default: kDefaultCapacity
  /// (2^18) × sizeof(BinRecord) (64 B) — big enough for every bench
  /// scenario, small enough to stay always-on. The arithmetic is pinned
  /// by a test in tests/binlog_test.cpp.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  /// `capacity` is rounded up to the next power of two (the ring masks
  /// ids into slots).
  explicit EventStream(std::size_t capacity = kDefaultCapacity) : binlog_(capacity) {}

  /// Emission spec: everything the emitter knows. `cause` 0 means "use
  /// the ambient CauseScope cause" (the message recv being dispatched).
  /// `detail` is only read during emit (it is interned into the
  /// stream's table), so any lifetime that survives the call is fine.
  struct Emit {
    EventKind kind = EventKind::kSend;
    Entity entity;
    Entity peer{};
    EventId cause = 0;
    std::uint64_t channel = 0;
    std::uint64_t arg = 0;
    std::string_view detail{};
    /// Lamport clock of the causal parent, for causes that live in
    /// *another* stream (cross-shard sends, see obs/merge.hpp): the
    /// receiver's clock must advance past the sender's, but lamport_of()
    /// can only resolve local ids. 0 (the default) means "look the cause
    /// up locally", which is the single-stream behaviour.
    std::uint64_t cause_clock = 0;
  };

  /// Append one event; returns its id (usable as a later cause).
  EventId emit(sim::SimTime at, const Emit& spec);

  /// Ambient causal parent for emissions that do not pass one
  /// explicitly; managed by CauseScope.
  [[nodiscard]] EventId current_cause() const noexcept { return current_cause_; }

  /// Decode all retained events, oldest first. Ids are contiguous:
  /// snapshot().front().id == dropped() + 1. Detail views point into
  /// the stream's intern table and stay valid until clear().
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Visit each retained event, oldest first, without materializing the
  /// vector (one stack Event per call).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = retained();
    for (std::size_t i = 0; i < n; ++i) fn(event_at(i));
  }

  /// Decode the pos-th retained event (0 = oldest).
  [[nodiscard]] Event event_at(std::size_t pos) const noexcept;

  /// Total events ever emitted (== the id of the newest event).
  [[nodiscard]] std::uint64_t emitted() const noexcept { return binlog_.head(); }
  /// Events evicted from the ring (truncation count).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return binlog_.dropped(); }
  /// Events currently held in the ring.
  [[nodiscard]] std::size_t retained() const noexcept { return binlog_.retained(); }

  /// Lamport clock of a retained event; 0 if unknown (evicted / none).
  [[nodiscard]] std::uint64_t lamport_of(EventId id) const noexcept;

  /// The binary ring behind the stream (serialization + stats).
  [[nodiscard]] const BinLog& binlog() const noexcept { return binlog_; }
  /// The detail-tag intern table (stable views, bounded growth).
  [[nodiscard]] const InternTable& interner() const noexcept { return interner_; }

  /// Forget all events, counters, and interned tags; invalidates every
  /// previously handed-out detail view.
  void clear();

 private:
  friend class CauseScope;

  struct EntityState {
    std::uint64_t seq = 0;
    std::uint64_t clock = 0;
  };

  /// Entity indices are dense small integers, so per-entity counters
  /// live in flat vectors (grown on demand) instead of a hash map —
  /// emit() is on the simulation hot path.
  [[nodiscard]] EntityState& state_of(Entity entity);

  BinLog binlog_;
  InternTable interner_;
  std::vector<EntityState> mss_state_;
  std::vector<EntityState> mh_state_;
  EntityState none_state_;
  EventId current_cause_ = 0;
};

/// RAII ambient-cause marker: while alive, events emitted without an
/// explicit cause inherit `cause`. The Network wraps every message
/// dispatch in one of these so algorithm-level events (CS grants, token
/// arrivals, follow-up sends) chain to the recv that triggered them.
class CauseScope {
 public:
  CauseScope(EventStream& stream, EventId cause) noexcept
      : stream_(stream), previous_(stream.current_cause_) {
    stream_.current_cause_ = cause;
  }
  ~CauseScope() { stream_.current_cause_ = previous_; }

  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

 private:
  EventStream& stream_;
  EventId previous_;
};

// --- export / import --------------------------------------------------------

/// Append `text` to `out` as a quoted JSON string literal, escaping
/// quotes, backslashes, and control characters. The one JSON string
/// escaper in the library: every artifact writer (event exporters, the
/// exp sweep report, scenario serialization) goes through it.
void append_json_string(std::string& out, std::string_view text);

/// One event as a single-line JSON object with a fixed key order, so
/// same-seed runs serialize byte-identically.
[[nodiscard]] std::string event_json(const Event& event);

/// Inverse of event_json (one line, optionally with trailing newline);
/// nullopt on malformed input. The detail text is interned into
/// `strings`, which backs the returned Event's view — keep the table
/// alive as long as the events. Used by the offline trace tools.
[[nodiscard]] std::optional<Event> event_from_json(std::string_view line,
                                                   InternTable& strings);

/// Whole stream as JSON Lines (one event_json per line).
[[nodiscard]] std::string to_jsonl(std::span<const Event> events);
[[nodiscard]] std::string to_jsonl(const EventStream& stream);

/// Chrome trace-event format (loadable in Perfetto / chrome://tracing):
/// one track per entity (pid 1 = MSSs, pid 2 = MHs), B/E spans for CS
/// occupancy and token holds on the owning entity's track, async spans
/// for handoffs, instants for the remaining kinds. Virtual ticks map to
/// microseconds.
[[nodiscard]] std::string to_chrome_trace(std::span<const Event> events);
[[nodiscard]] std::string to_chrome_trace(const EventStream& stream);

}  // namespace mobidist::obs
