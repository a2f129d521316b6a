#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/events.hpp"

namespace mobidist::obs {

/// One invariant violation found by a checker, with enough context to
/// point at the offending event in the exported JSONL.
struct CheckFailure {
  std::string checker;     ///< which checker fired ("cs_exclusion", ...)
  EventId event = 0;       ///< the event that completed the violation
  std::string diagnostic;  ///< precise human-readable explanation
};

/// "cs_exclusion @ event 42: ..." — suitable for assertion messages.
[[nodiscard]] std::string to_string(const CheckFailure& failure);

/// Every trace invariant in one pass: feed() the events in trace order,
/// then finish(). The seven checkers, in the order finish() reports
/// their failures (CheckFailure::checker in quotes):
///
///  1. "cs_exclusion" — at most one MH inside the critical section at
///     any sim time, per mutual-exclusion instance (instances are told
///     apart by the CS events' `detail` label, so scenarios running
///     several algorithms on one network check each independently).
///  2. "token_circulation" — exactly one live token per ring family
///     between depart/arrive pairs: an arrival while the family's token
///     is already held, or a departure from an entity that does not hold
///     it, is a duplicate / forged token. Families are the leading
///     algorithm tag of `detail` ("R1", "R2").
///  3. "channel_fifo" — on every ordered channel (channel != 0), recvs
///     consume sends in emission order. Sends whose recv never appears
///     (losses, in-flight at shutdown) may be skipped.
///  4. "traversal_cap" — R2'/R2'' at most once per traversal: within one
///     token traversal (token_val in `arg`), no MH is granted the token
///     twice. Applies only to token departures tagged "R2'" or "R2''";
///     plain R2 is exempt, and the two documented R2' holes emit
///     decorated tags — "R2'!" for runs with malicious reporters, "R2'~"
///     for repeats admitted by a stale access_count snapshot — so only
///     genuinely fresh-count R2' grants are held to the cap.
///  5. "causal_clocks" — Lamport clocks increase along every causal edge
///     whose parent is retained, and per-entity sequence numbers are
///     strictly increasing.
///  6. "fault_delivery" — no recv consumes a send the fault plane
///     dropped (retransmissions are fresh sends with fresh ids, so a
///     recv parented to a dropped send is a ghost delivery), and crash /
///     recover events alternate per MSS.
///  7. "packet_fifo" — per wired channel, packet flushes consume packet
///     sends in emission order, each flush's cause is a packet send on
///     the same channel, and the message count (arg) survives the flight
///     unchanged. Together with channel_fifo over the per-message
///     send/recv events this rules out reordering across a flush.
///
/// Truncated traces are fine: a cause older than the first fed event, or
/// state established before it, is skipped rather than reported, so a
/// bounded ring never causes false positives. Ids must be contiguous,
/// though, because everything the checker remembers about an event lives
/// in tables indexed by id − first id. The first break (a gap, a repeat,
/// an id 0) is reported once as "event_ids", ahead of the other
/// failures, and every later event is ignored.
///
/// Cost: 16 bytes per fed event (its Lamport clock and, for a send, its
/// channel slot and position), plus 8 per event for message counts once
/// the trace holds a packet send; 32–40 bytes per distinct channel and
/// per entity (key, hash buckets at load ≤ ½, state). Maps remain only
/// for the rare string-keyed kinds (CS instance, token family, R2'
/// traversal), for crashed MSSs and for dropped sends.
class TraceChecker {
 public:
  /// Pre-size the per-event tables for a trace of `events` records.
  void reserve(std::size_t events);

  /// Check the next event of the trace.
  void feed(const Event& ev);

  /// The failures found, grouped by checker in the order listed above
  /// (each group in trace order). Leaves the checker empty.
  [[nodiscard]] std::vector<CheckFailure> finish();

 private:
  /// Open-addressing map from a u64 key (a channel key, an entity key)
  /// to a dense slot, assigned in first-seen order; per-key state lives
  /// in vectors indexed by the slot.
  class SlotTable {
   public:
    /// The key's slot, assigning slot size() on first sight.
    [[nodiscard]] std::uint32_t slot_of(std::uint64_t key);
    /// The key behind a slot.
    [[nodiscard]] std::uint64_t key(std::uint32_t slot) const { return keys_[slot]; }

   private:
    void grow();

    std::vector<std::uint64_t> keys_;     ///< by slot
    std::vector<std::uint32_t> buckets_;  ///< slot + 1, 0 = empty; power-of-two size
    unsigned shift_ = 64;                 ///< 64 − log2(buckets_.size())
  };

  /// What later events may ask about a fed one, indexed by id − first id.
  struct Fed {
    std::uint64_t lamport = 0;
    /// A message send's channel slot + 1, or a packet send's packet
    /// channel slot + 1 with kPacketSend set; 0 for everything else.
    std::uint32_t send = 0;
    std::uint32_t position = 0;  ///< the send's 1-based position in its channel
  };
  static constexpr std::uint32_t kPacketSend = std::uint32_t{1} << 31;

  /// Per channel: the sends seen so far and the last one consumed.
  struct Channel {
    std::uint32_t sends = 0;
    std::uint32_t consumed = 0;  ///< position of the last consumed send; 0 = none
    std::uint32_t by = 0;        ///< offset of the recv / flush that consumed it
    std::uint32_t send = 0;      ///< offset of that send
  };

  /// Per entity: the last sequence number and the event that carried it.
  struct LastSeq {
    std::uint64_t seq = 0;
    EventId event = 0;
  };

  /// The failure groups, one per checker, in finish() order.
  enum Group : std::size_t {
    kIds,
    kCsExclusion,
    kTokenCirculation,
    kChannelFifo,
    kTraversalCap,
    kCausalClocks,
    kFaultDelivery,
    kPacketFifo,
    kGroups
  };

  /// The Fed entry of `cause` when it was fed before the current event.
  [[nodiscard]] const Fed* fed_before(EventId cause) const noexcept;
  /// An event's index in the per-event tables, and back.
  [[nodiscard]] std::uint32_t offset_of(EventId id) const noexcept {
    return static_cast<std::uint32_t>(id - first_id_);
  }
  [[nodiscard]] EventId id_at(std::uint32_t offset) const noexcept {
    return first_id_ + offset;
  }
  void fail(Group group, EventId event, std::string diagnostic);

  void check_cs(const Event& ev);
  void check_token(const Event& ev);
  void check_channel(const Event& ev, Fed& fed);
  void check_traversal(const Event& ev);
  void check_clocks(const Event& ev);
  void check_faults(const Event& ev);
  void check_packet(const Event& ev, Fed& fed);

  EventId first_id_ = 0;
  bool stopped_ = false;
  std::vector<Fed> fed_;
  std::vector<std::uint64_t> packet_msgs_;  ///< by offset, up to the last packet send

  SlotTable channel_slots_;
  std::vector<Channel> channels_;
  SlotTable packet_slots_;
  std::vector<Channel> packet_channels_;
  SlotTable entity_slots_;
  std::vector<LastSeq> last_seq_;

  struct Holder {
    Entity who;
    EventId since = 0;
  };
  std::map<std::string, Holder, std::less<>> cs_holders_;
  struct TokenState {
    enum class Where { kUnknown, kHeld, kInFlight } where = Where::kUnknown;
    Entity holder;       ///< valid when kHeld
    Entity depart_from;  ///< valid when kInFlight
    Entity depart_to;    ///< valid when kInFlight
    EventId last_event = 0;
  };
  std::map<std::string, TokenState, std::less<>> tokens_;
  /// (variant, token_val, mh) -> the grant event already charged.
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, EventId> grants_;
  std::unordered_set<EventId> dropped_sends_;
  /// Crash state per MSS entity key: (down, event). Entities with no
  /// retained crash history are left alone.
  std::unordered_map<std::uint64_t, std::pair<bool, EventId>> down_;

  std::array<std::vector<CheckFailure>, kGroups> failures_;
};

/// Run a TraceChecker over a finished trace.
[[nodiscard]] std::vector<CheckFailure> check_all(std::span<const Event> events);
/// The same over a stream's retained events, read from its ring in
/// place (no decoded copy).
[[nodiscard]] std::vector<CheckFailure> check_all(const EventStream& stream);

}  // namespace mobidist::obs
