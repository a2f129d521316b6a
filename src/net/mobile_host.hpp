#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "net/agent.hpp"
#include "net/envelope.hpp"
#include "net/ids.hpp"
#include "net/messages.hpp"
#include "sim/time.hpp"

namespace mobidist::net {

class Network;

/// Connectivity state of a mobile host (Section 2).
enum class MhState : std::uint8_t {
  kConnected,     ///< local to exactly one cell
  kInTransit,     ///< between leave() and join(): unreachable but will rejoin
  kDisconnected,  ///< voluntarily disconnected; may never return
};

/// A mobile host. Owns the MH side of the §2 protocol: leave(r)/join,
/// disconnect(r)/reconnect, doze mode, and the FIFO resequencer for the
/// MH-to-MH relay service. Algorithm behaviour comes from MhAgents,
/// found through the Network's per-protocol agent tables.
///
/// One cache-line row of the Network's host array: on the sharded
/// engine a host is written only from its own shard, and no two hosts
/// share a line.
class alignas(64) MobileHost {
 public:
  MobileHost(Network& net, MhId id) noexcept;

  MobileHost(const MobileHost&) = delete;
  MobileHost& operator=(const MobileHost&) = delete;

  /// This host's identity.
  [[nodiscard]] MhId id() const noexcept { return id_; }
  /// Connectivity state (connected / in transit / disconnected).
  [[nodiscard]] MhState state() const noexcept { return state_; }
  /// Shorthand for state() == kConnected.
  [[nodiscard]] bool connected() const noexcept { return state_ == MhState::kConnected; }

  /// Current cell; kInvalidMss while in transit or disconnected.
  [[nodiscard]] MssId current_mss() const noexcept {
    return state_ == MhState::kConnected ? mss_ : kInvalidMss;
  }
  /// The cell this MH was last local to (valid while in transit /
  /// disconnected; it is where the "disconnected" flag lives).
  [[nodiscard]] MssId last_mss() const noexcept { return mss_; }

  /// Monotone count of completed joins (moves + reconnects). Protocols
  /// use it to order per-MH mobility events (e.g. the location-view
  /// coordinator discards stale view changes by this sequence).
  [[nodiscard]] std::uint64_t joins_completed() const noexcept { return joins_completed_; }

  /// Doze mode: the MH stays reachable but counts every delivery as an
  /// interruption (the R1-vs-R2 comparison metric of §3.1.2).
  void set_doze(bool dozing) noexcept { dozing_ = dozing; }
  /// True while doze mode is on.
  [[nodiscard]] bool dozing() const noexcept { return dozing_; }

  /// Register an agent for `proto`. Must happen before Network::start().
  /// The caller keeps ownership; `agent` must outlive every dispatch.
  /// Throws std::invalid_argument for a null agent or a second agent
  /// under the same protocol.
  void register_agent(ProtocolId proto, MhAgent* agent);
  /// The agent registered for `proto`; nullptr if none.
  [[nodiscard]] MhAgent* agent(ProtocolId proto) const noexcept;

  // --- mobility (driven by mobility models / tests) -----------------------

  /// Leave the current cell and join `target` after `transit` ticks:
  /// sends leave(r), goes unreachable, then sends join(mh, prev) at the
  /// new MSS. Requires connected(). `target` may equal the current cell
  /// (coverage lost and regained without crossing a boundary — the only
  /// way a single-MSS system sees an in-transit MH).
  void move_to(MssId target, sim::Duration transit);

  /// Voluntarily disconnect: sends disconnect(r); the local MSS keeps a
  /// "disconnected" flag for this MH. Requires connected().
  void disconnect();

  /// Reconnect in `target`'s cell after `delay`. `supply_prev` mirrors
  /// the paper: if false, the reconnect() message omits the previous MSS
  /// id and the new MSS must query every fixed host to find it.
  /// Requires state() == kDisconnected.
  void reconnect_at(MssId target, sim::Duration delay, bool supply_prev = true);

  // --- substrate hooks -----------------------------------------------------

  /// Wireless downlink arrival (called by Network on delivery).
  void deliver(const Envelope& env);

  /// Send to another MH through the relay service: assigns the FIFO
  /// sequence number and ships the wrapper uplink. Used by
  /// MhAgent::send_to_mh; requires connected().
  void send_relay(MhId dst, ProtocolId inner_proto, Body body, bool fifo);

 private:
  friend class Network;
  friend class Mss;

  void complete_join(MssId at);  ///< invoked when the MSS processes our join
  void dispatch_inner(ProtocolId proto, MhId from, const Body& body);
  void accept_relay(const msg::Relay& relay);

  Network& net_;
  MhId id_;
  MhState state_ = MhState::kConnected;
  MssId mss_ = kInvalidMss;       ///< current or last cell
  MssId prev_mss_ = kInvalidMss;  ///< previous cell (handoff source)
  bool dozing_ = false;
  std::uint64_t downlink_seq_seen_ = 0;  ///< r: last downlink seq received here
  std::uint64_t joins_completed_ = 0;

  /// Relay FIFO machinery: per-destination send sequence numbers and a
  /// per-source resequencing buffer (next expected seq + held payloads).
  struct RelayFifo {
    std::map<MhId, std::uint64_t> send_seq;
    struct Resequencer {
      std::uint64_t next_expected = 1;
      std::map<std::uint64_t, msg::Relay> held;
    };
    std::map<MhId, Resequencer> recv;
  };
  /// This host's relay FIFO state, made on its first FIFO relay send or
  /// receive: most hosts never relay.
  RelayFifo& relay_fifo();
  std::unique_ptr<RelayFifo> relay_fifo_;
};

}  // namespace mobidist::net
