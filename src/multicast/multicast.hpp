#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "group/group.hpp"
#include "net/network.hpp"

namespace mobidist::multicast {

/// Exactly-once multicast to mobile recipients — the companion protocol
/// the paper cites as [1] (Acharya & Badrinath, ICDCS '93) and the
/// canonical client of the §2 handoff procedure.
///
/// Scheme: every message is flooded once over the wired mesh (M-1 fixed
/// messages) and buffered at every MSS. Each MSS keeps, for each local
/// recipient, a per-source delivery watermark; it forwards buffered
/// messages beyond the watermark over the local wireless link. When a
/// recipient moves (or disconnects and reconnects), its watermark
/// travels to the new MSS **inside the handoff state** — so delivery
/// resumes exactly where it stopped, with no searches and no duplicates,
/// regardless of how often the recipient moves.
///
/// Cost per message: (M-1)*c_fixed + |R|*c_wireless, versus
/// |R|*(c_search + c_wireless) for naive per-recipient search delivery —
/// the trade the A4 bench quantifies.
///
/// A recipient-side watermark provides defence-in-depth: even if an MSS
/// re-sends after a partially failed burst, the MH suppresses the
/// duplicate.
class McastService {
 public:
  /// `recipients` is the static delivery list (any subset of the MHs).
  McastService(net::Network& net, group::Group recipients,
               net::ProtocolId proto = net::protocol::kUserBase + 7);
  ~McastService();

  /// Publish one message from `source` MSS. Returns the message id used
  /// with the delivery monitor. Callable from inside the simulation.
  std::uint64_t publish(net::MssId source);

  /// The static delivery list given at construction.
  [[nodiscard]] const group::Group& recipients() const noexcept { return recipients_; }
  /// Exactly-once delivery bookkeeping for every published message.
  [[nodiscard]] group::DeliveryMonitor& monitor() noexcept { return monitor_; }
  /// Read-only view of the delivery monitor.
  [[nodiscard]] const group::DeliveryMonitor& monitor() const noexcept { return monitor_; }

  /// Buffered log length at one MSS (GC is out of scope; the log is the
  /// replay source for late joiners).
  [[nodiscard]] std::size_t log_size(net::MssId at) const;
  /// Duplicates suppressed by recipient-side watermarks.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const noexcept {
    return monitor_.duplicates_suppressed();
  }

 private:
  class StationAgent;
  class HostAgent;
  friend class StationAgent;
  friend class HostAgent;

  net::Network& net_;
  group::Group recipients_;
  group::DeliveryMonitor monitor_;
  net::ProtocolId proto_;
  // Stations by MSS, hosts by recipient; sized once, so registered
  // pointers stay valid.
  std::vector<StationAgent> stations_;
  std::vector<HostAgent> hosts_;
  std::uint64_t next_msg_id_ = 1;  ///< global id for the monitor
};

}  // namespace mobidist::multicast
