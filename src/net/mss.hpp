#pragma once

#include <map>
#include <vector>

#include "net/agent.hpp"
#include "net/envelope.hpp"
#include "net/ids.hpp"
#include "net/messages.hpp"

namespace mobidist::net {

class Network;

/// A mobile support station (fixed host). Runs the join/leave/handoff
/// control protocol of Section 2 over its cell's bookkeeping: the
/// local-MH list and per-MH "disconnected" flags, which live in the
/// Network's per-slice cell records. Algorithm behaviour is supplied by
/// registered MssAgent instances, found through the Network's
/// per-protocol agent tables.
class Mss {
 public:
  Mss(Network& net, MssId id);

  Mss(const Mss&) = delete;
  Mss& operator=(const Mss&) = delete;

  /// This station's identity.
  [[nodiscard]] MssId id() const noexcept { return id_; }

  /// Register an agent for `proto`. Must happen before Network::start().
  /// The caller keeps ownership; `agent` must outlive every dispatch.
  /// Throws std::invalid_argument for a null agent or a second agent
  /// under the same protocol.
  void register_agent(ProtocolId proto, MssAgent* agent);

  /// The agent registered for `proto`; nullptr if none.
  [[nodiscard]] MssAgent* agent(ProtocolId proto) const noexcept;

  /// MHs currently local to this cell, in ascending id order. Scans
  /// every MH: meant for setup and verification, not the hot path.
  [[nodiscard]] std::vector<MhId> local_mhs() const;
  /// True when `mh` is currently local to this cell.
  [[nodiscard]] bool is_local(MhId mh) const;

  /// True when `mh` disconnected while local to this cell and has not
  /// yet reconnected elsewhere.
  [[nodiscard]] bool has_disconnected_flag(MhId mh) const;

  /// Inbound envelope dispatch (wired or wireless). Substrate protocols
  /// (kSystem control, kRelay) are handled here; everything else goes to
  /// the registered agent.
  void dispatch(const Envelope& env);

  /// Direct placement during setup (no protocol traffic); also used by
  /// tests to build fixtures.
  void place_local(MhId mh);

 private:
  friend class Network;

  void handle_join(const msg::Join& join);
  void handle_leave(const msg::Leave& leave);
  void handle_disconnect(const msg::Disconnect& disc);
  void handle_handoff_request(const msg::HandoffRequest& req);
  void handle_handoff_state(const msg::HandoffState& state);
  void handle_relay(const Envelope& env);

  /// Remove a MH from the local list with agent notification; used by
  /// leave processing and by handoff requests that overtake the leave.
  void remove_local(MhId mh);

  /// Collect per-protocol handoff state and reply to `new_mss`.
  void send_handoff_state(MhId mh, MssId new_mss);

  Network& net_;
  MssId id_;
  // Handoff races: a HandoffRequest that arrives while we are still
  // waiting for this MH's state from *its* previous MSS (the record's
  // awaiting_handoff_in flag) is deferred until that state lands.
  std::map<MhId, msg::HandoffRequest> deferred_handoff_requests_;
};

}  // namespace mobidist::net
