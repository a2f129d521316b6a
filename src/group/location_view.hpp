#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "group/group.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mobidist::group {

/// §4.3 Location view: LV(G) is the set of MSSs currently hosting at
/// least one group member, replicated at exactly those MSSs (plus a
/// fixed coordinator MSS that serializes changes).
///
/// Only *significant* moves touch LV(G): entering a cell outside the
/// view, or vacating a cell as its last member. The change protocol is
/// the paper's, verbatim: the new MSS M tells the previous MSS M', M'
/// asks the coordinator (a combined add+delete when both apply), and the
/// coordinator fans the update to the view (full copy to a newly added
/// MSS, increments to the rest) — at most (|LV|+3) fixed messages.
///
/// Group send: one wireless uplink, (|LV|-1) fixed messages, one
/// wireless downlink per receiving member: (|LV|-1)*c_fixed +
/// |G|*c_wireless per message.
///
/// The paper assumes LV does not change while a message is in transit;
/// when it does anyway, a recipient MSS whose member just left chases it
/// with a search (counted in chases()), and member-side dedup keeps
/// delivery exactly-once.
class LocationViewGroup {
 public:
  LocationViewGroup(net::Network& net, Group group,
                    net::MssId coordinator = static_cast<net::MssId>(0),
                    net::ProtocolId proto = net::protocol::kGroupLocation);
  ~LocationViewGroup();

  /// Send one group message from `sender` (must be a member).
  std::uint64_t send_group_message(net::MhId sender);

  /// The members this strategy serves.
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  /// The delivery oracle this strategy reports to.
  [[nodiscard]] DeliveryMonitor& monitor() noexcept { return monitor_; }
  /// Read-only view of monitor().
  [[nodiscard]] const DeliveryMonitor& monitor() const noexcept { return monitor_; }

  /// Moves that actually changed LV(G) (the paper's f * MOB).
  [[nodiscard]] std::uint64_t significant_moves() const noexcept {
    return significant_moves_;
  }
  /// Largest |LV(G)| seen at the coordinator (the paper's |LV(G)^max|).
  [[nodiscard]] std::size_t max_view_size() const noexcept {
    return static_cast<std::size_t>(max_view_.value());
  }
  /// Coordinator's current master view.
  [[nodiscard]] const std::set<net::MssId>& current_view() const noexcept;
  /// Footnote-1 style chases of members that moved mid-delivery.
  [[nodiscard]] std::uint64_t chases() const noexcept { return chases_; }
  /// Duplicate deliveries suppressed at members.
  [[nodiscard]] std::uint64_t duplicates_suppressed() const noexcept;

 private:
  class StationAgent;
  class HostAgent;
  friend class StationAgent;
  friend class HostAgent;

  net::Network& net_;
  Group group_;
  net::MssId coordinator_;
  net::ProtocolId proto_;
  DeliveryMonitor monitor_;
  // Stations by MSS, hosts by member; sized once, so registered pointers
  // stay valid. A member's agent is found through its host.
  std::vector<StationAgent> stations_;
  std::vector<HostAgent> hosts_;
  std::uint64_t next_msg_ = 1;
  // Registry-backed metrics ("group.location_view.*"), bound to the
  // network's registry at construction.
  obs::Counter& significant_moves_;
  obs::Gauge& max_view_;
  obs::Counter& chases_;
};

}  // namespace mobidist::group
