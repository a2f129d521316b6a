#pragma once

#include <cstdint>
#include <map>

#include "net/envelope.hpp"
#include "net/ids.hpp"

namespace mobidist::net::msg {

// ---------------------------------------------------------------------------
// Substrate control messages (Section 2 of the paper). All travel with
// proto == protocol::kSystem and are exempt from cost accounting.
// ---------------------------------------------------------------------------

/// MH -> new MSS when entering a cell. Per Section 2 the basic protocol
/// carries only the MH id; Section 4 requires the previous MSS id as
/// well (for handoff and location-view maintenance), so it is always
/// included here (kInvalidMss for the first join).
struct Join {
  MhId mh = kInvalidMh;
  MssId prev_mss = kInvalidMss;
  bool reconnect = false;  ///< true when this is a reconnect(mh, prev) message
};

/// MH -> current MSS just before leaving the cell. `last_seq` is r, the
/// sequence number of the last downlink message received; anything the
/// MSS sent beyond r was not (and will never be) delivered in this cell.
struct Leave {
  MhId mh = kInvalidMh;
  std::uint64_t last_seq = 0;
  /// The MH's monotone join counter when this leave was sent. A leave
  /// retransmitted over the lossy wireless hop can trail the MH's next
  /// join on the same channel; the MSS ignores it once its recorded
  /// arrival epoch for the MH is newer than this departure.
  std::uint64_t join_seq = 0;
};

/// MH -> current MSS on voluntary disconnection; identical shape to
/// Leave but sets the "disconnected" flag at the MSS instead of
/// implying an eventual rejoin.
struct Disconnect {
  MhId mh = kInvalidMh;
  std::uint64_t last_seq = 0;
  std::uint64_t join_seq = 0;  ///< same stale-retransmission guard as Leave
};

/// New MSS -> previous MSS after a join: asks for algorithm state held
/// on the MH's behalf and for any undelivered downlink traffic.
/// `join_seq` (the MH's monotone join counter at the triggering join)
/// lets the previous MSS ignore the implicit-leave side effect of a
/// request that arrives after the MH has already bounced back.
struct HandoffRequest {
  MhId mh = kInvalidMh;
  MssId new_mss = kInvalidMss;
  bool clears_disconnect = false;
  std::uint64_t join_seq = 0;
};

/// Previous MSS -> new MSS: per-protocol state blobs gathered from the
/// agents via MssAgent::on_handoff_out().
struct HandoffState {
  MhId mh = kInvalidMh;
  MssId prev_mss = kInvalidMss;
  std::map<ProtocolId, Body> state;
};

/// Broadcast search query (SearchMode::kBroadcast): "is `target` local
/// to you (or disconnected at you)?". `round` distinguishes retry rounds
/// of the same search so that late replies from an earlier round cannot
/// be double-counted toward the current round's quorum.
struct SearchQuery {
  MhId target = kInvalidMh;
  MssId origin = kInvalidMss;
  std::uint64_t token = 0;  ///< correlates replies with the request
  std::uint64_t round = 0;
};

/// Reply to SearchQuery.
struct SearchReply {
  MhId target = kInvalidMh;
  MssId from = kInvalidMss;   ///< the replying MSS
  std::uint64_t token = 0;
  std::uint64_t round = 0;
  bool here = false;          ///< target is local to the replying MSS
  bool disconnected = false;  ///< target disconnected in the replier's cell
};

/// Disconnect-flag MSS -> original sender: a send with
/// SendPolicy::kNotifyIfDisconnected hit a disconnected MH. Carries the
/// undelivered body back so the sending agent can react (L2 §3.1.1).
struct UnreachableNotice {
  MhId mh = kInvalidMh;
  ProtocolId proto = 0;
  Body body;
};

/// reconnect(mh) without a previous-MSS id: the new MSS "may have to
/// query each fixed host to determine the previous location of the MH".
struct FindDisconnect {
  MhId mh = kInvalidMh;
  MssId origin = kInvalidMss;
};

/// Reply to FindDisconnect.
struct FindDisconnectReply {
  MhId mh = kInvalidMh;
  MssId from = kInvalidMss;
  bool had_flag = false;
};

// ---------------------------------------------------------------------------
// Relay service (protocol::kRelay): gives L1/R1 their MH-to-MH channels.
// ---------------------------------------------------------------------------

/// Wrapper carried MH -> MSS -> MSS -> MH. `seq` numbers the (src_mh ->
/// dst_mh) logical channel so the destination can re-sequence and
/// provide the FIFO guarantee Lamport's algorithm needs — the
/// "additional burden on the underlying network protocols" of §3.1.1.
struct Relay {
  MhId src_mh = kInvalidMh;
  MhId dst_mh = kInvalidMh;
  ProtocolId inner_proto = 0;
  Body inner;  ///< nested payload (pushes the Relay itself to Body's heap path)
  std::uint64_t seq = 0;
  bool fifo = true;  ///< false: deliver in arrival order (no resequencing)
};

}  // namespace mobidist::net::msg
