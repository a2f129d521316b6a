#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/events.hpp"

namespace mobidist::obs {

// --- cross-stream cause references ------------------------------------------
//
// With one EventStream per shard, a cross-shard recv's causal parent (the
// send) lives in a *different* stream, so its plain EventId would be
// meaningless at the receiver. The sender instead hands over an encoded
// reference — bit 63 set, the sender's stream index, and the sender-local
// id — which for_each_canonical() resolves to the final merged id. Encoded
// refs never collide with real ids (streams are bounded far below 2^63),
// and lamport_of() on one simply misses (returns 0), which is why
// cross-shard emits carry the parent's clock via Emit::cause_clock.

/// Marks an EventId as a cross-stream reference.
inline constexpr EventId kCrossStreamBit = EventId{1} << 63;
/// Bits reserved for the sender-local id below the stream index.
inline constexpr unsigned kCrossStreamIdBits = 40;

/// Encode (stream, local id) into a cause reference for another stream.
[[nodiscard]] constexpr EventId make_cross_ref(std::uint32_t stream,
                                               EventId local_id) noexcept {
  return kCrossStreamBit | (static_cast<EventId>(stream) << kCrossStreamIdBits) |
         (local_id & ((EventId{1} << kCrossStreamIdBits) - 1));
}
/// True for ids produced by make_cross_ref.
[[nodiscard]] constexpr bool is_cross_ref(EventId id) noexcept {
  return (id & kCrossStreamBit) != 0;
}
/// The sender's stream index of an encoded reference.
[[nodiscard]] constexpr std::uint32_t cross_ref_stream(EventId id) noexcept {
  return static_cast<std::uint32_t>((id & ~kCrossStreamBit) >> kCrossStreamIdBits);
}
/// The sender-local event id of an encoded reference.
[[nodiscard]] constexpr EventId cross_ref_id(EventId id) noexcept {
  return id & ((EventId{1} << kCrossStreamIdBits) - 1);
}

// --- canonical merge --------------------------------------------------------

/// Maps an event's entity to its lane (the unit of single-threaded
/// execution; in the net layer, the owning cell's MSS index).
using LaneOf = std::function<std::uint32_t(Entity)>;

/// Visit the canonical merge of per-shard event streams: one trace whose
/// bytes are independent of the shard count.
///
/// The only ordering the sharded engine guarantees across shard counts is
/// the *per-lane* projection: each lane's events keep their relative
/// order, while the interleaving between lanes (scheduler seq tie-breaks
/// within a shared shard) varies with the grouping. The merge therefore
/// orders records by (at, lane, position-within-lane) — a total order
/// that is a pure function of the per-lane sequences. It sorts one
/// 16-byte key per retained record, (at, lane, global position), where
/// the global position is the stream's offset plus the record's ring
/// position: within one lane that orders records exactly as their
/// positions within the lane would. `fn` then sees every record in that
/// order, decoded once, with dense 1-based ids and every cause
/// (same-stream ids and encoded cross-stream refs alike) rewritten
/// through a u32 inverse permutation. Causes whose parent was evicted
/// from its ring resolve to 0.
///
/// Caveat: byte-stability across shard counts additionally requires that
/// no stream dropped events (per-shard rings fill at different rates for
/// different counts, so eviction truncates different prefixes). Callers
/// gating on byte-identity should check EventStream::dropped() == 0.
///
/// Event::detail views point into the source streams' intern tables —
/// keep the streams alive while using them.
void for_each_canonical(std::span<const EventStream* const> streams, const LaneOf& lane_of,
                        const std::function<void(const Event&)>& fn);

/// The canonical merge collected into a vector (see for_each_canonical).
[[nodiscard]] std::vector<Event> merge_canonical(
    std::span<const EventStream* const> streams, const LaneOf& lane_of);

}  // namespace mobidist::obs
