#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/envelope.hpp"
#include "net/ids.hpp"
#include "obs/events.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mobidist::net {

/// Tuning knobs for the wired-backbone formation (batching) layer,
/// modeled on RPC item/packet formation machinery: outbound wired
/// messages park in a per-(src,dst) queue and coalesce into packets.
/// A packet is cut when any trigger fires:
///
///   - count:    the queue reaches max_packet_msgs messages;
///   - bytes:    the queue's estimated wire size reaches max_packet_bytes
///               (a single oversized message still forms a 1-message
///               packet — messages are never split);
///   - deadline: flush_deadline sim-time has elapsed since the oldest
///               queued message arrived;
///   - barrier:  the substrate needs channel order pinned down before an
///               out-of-band send on the same channel (e.g. the
///               search/forward path), so it force-flushes the pair.
///
/// flush_deadline == 0 disables the layer entirely (passthrough): every
/// message is its own packet and the wire path is byte-identical to the
/// unbatched substrate, which is what the golden traces pin.
struct FormationConfig {
  /// Flush when this many messages have coalesced. Must be >= 1.
  std::uint32_t max_packet_msgs = 16;
  /// Flush when the estimated packet size reaches this many bytes.
  std::uint32_t max_packet_bytes = 4096;
  /// Maximum sim-time a message may wait in a formation queue; 0 means
  /// passthrough (no batching at all).
  sim::Duration flush_deadline = 0;

  /// True when the layer is disabled and sends bypass formation.
  [[nodiscard]] constexpr bool passthrough() const noexcept { return flush_deadline == 0; }
};

/// Nominal per-message framing overhead (headers, addressing) used by
/// the wire-size estimate; the model does not serialize for real.
inline constexpr std::size_t kWireHeaderBytes = 24;

/// Estimated on-wire size of one message: fixed framing plus the stored
/// payload type's size. Deterministic and cheap — good enough to drive
/// the bytes trigger, not a serialization format.
[[nodiscard]] inline std::size_t wire_size(const Envelope& env) noexcept {
  return kWireHeaderBytes + env.body.payload_size();
}

/// Per-(src,dst) formation queues for the wired mesh.
///
/// The layer owns queueing and trigger policy only; the substrate
/// supplies a transmit callback that charges the ledger, samples one
/// latency for the whole packet and schedules its arrival. Timers are
/// epoch-guarded: each flush bumps the pair's epoch, so a deadline timer
/// armed for an already-flushed generation finds a stale epoch and does
/// nothing (timers are never cancelled, just disarmed by the epoch).
class FormationLayer {
 public:
  /// One queued message plus the identity it already announced to the
  /// event stream (its kSend is emitted at enqueue time, so per-message
  /// causality is recorded even though the wire sees one packet).
  struct Item {
    Envelope env;                 ///< the message, ready to deliver
    obs::EventId send_id = 0;     ///< kSend emitted when it was enqueued
    std::size_t bytes = 0;        ///< wire_size() at enqueue time
  };

  /// A formed packet handed to the transmit callback.
  struct Packet {
    MssId from = kInvalidMss;     ///< sending MSS
    MssId to = kInvalidMss;       ///< receiving MSS
    std::vector<Item> items;      ///< coalesced messages, send order
    std::size_t bytes = 0;        ///< summed wire_size of the items
    const char* trigger = "";     ///< "count" | "bytes" | "deadline" | "barrier"
  };

  /// Transmit callback: put one formed packet on the wire.
  using TransmitFn = std::function<void(Packet)>;

  /// cfg must have max_packet_msgs >= 1; the mesh has `num_mss`
  /// stations; sched outlives the layer.
  FormationLayer(FormationConfig cfg, std::uint32_t num_mss, sim::Scheduler& sched,
                 TransmitFn transmit)
      : cfg_(cfg),
        num_mss_(num_mss),
        sched_(sched),
        transmit_(std::move(transmit)),
        queues_(std::size_t{num_mss} * num_mss) {}

  /// Park one message on the (from,to) queue; flushes synchronously if
  /// the count or bytes trigger fires, otherwise arms the deadline timer
  /// when the queue was empty.
  void enqueue(MssId from, MssId to, Item item);

  /// Barrier: force-flush the (from,to) queue now (no-op when empty).
  /// `trigger` labels the resulting packet event ("barrier" normally).
  void flush_pair(MssId from, MssId to, const char* trigger);

  /// Messages accepted by enqueue() so far.
  [[nodiscard]] std::uint64_t msgs_enqueued() const noexcept { return msgs_enqueued_; }
  /// Packets handed to the transmit callback so far.
  [[nodiscard]] std::uint64_t packets_formed() const noexcept { return packets_formed_; }
  /// Packets cut by the count/bytes triggers.
  [[nodiscard]] std::uint64_t size_flushes() const noexcept { return size_flushes_; }
  /// Packets cut by the deadline timer.
  [[nodiscard]] std::uint64_t deadline_flushes() const noexcept { return deadline_flushes_; }
  /// Packets cut by flush_pair barriers.
  [[nodiscard]] std::uint64_t barrier_flushes() const noexcept { return barrier_flushes_; }
  /// Messages currently parked across all queues.
  [[nodiscard]] std::size_t pending_msgs() const noexcept { return pending_msgs_; }

 private:
  struct Queue {
    std::vector<Item> items;
    std::size_t bytes = 0;
    std::uint64_t epoch = 0;  // bumped by every flush; disarms stale timers
  };

  [[nodiscard]] std::size_t slot_of(MssId from, MssId to) const noexcept {
    assert(index(from) < num_mss_ && index(to) < num_mss_);
    return std::size_t{index(from)} * num_mss_ + index(to);
  }

  void flush_queue(Queue& queue, MssId from, MssId to, const char* trigger);

  FormationConfig cfg_;
  std::uint32_t num_mss_;
  sim::Scheduler& sched_;
  TransmitFn transmit_;
  /// One queue per ordered (from, to) pair, row-major by sender.
  std::vector<Queue> queues_;
  std::uint64_t msgs_enqueued_ = 0;
  std::uint64_t packets_formed_ = 0;
  std::uint64_t size_flushes_ = 0;
  std::uint64_t deadline_flushes_ = 0;
  std::uint64_t barrier_flushes_ = 0;
  std::size_t pending_msgs_ = 0;
};

}  // namespace mobidist::net
