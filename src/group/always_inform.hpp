#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "group/group.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mobidist::group {

/// §4.2 Always-inform strategy: every member MH keeps a full location
/// directory LD(G) (member -> MSS). Group messages go point-to-point to
/// each member's recorded MSS (2*c_wireless + c_fixed each, no search);
/// every move floods a location update to all members at the same cost.
///
/// Effective cost per group message: (MOB/MSG + 1) * (|G|-1) *
/// (2*c_wireless + c_fixed) — the mobility-to-message ratio is the whole
/// story, which E5 sweeps.
///
/// A stale directory entry (target moved while the message was in
/// flight) triggers the footnote-1 "second copy": the recorded MSS
/// chases the member with a real search. Those chases are counted.
class AlwaysInformGroup {
 public:
  AlwaysInformGroup(net::Network& net, Group group,
                    net::ProtocolId proto = net::protocol::kGroupData);

  /// Send one group message from `sender` (must be a member).
  std::uint64_t send_group_message(net::MhId sender);

  /// The members this strategy serves.
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  /// The delivery oracle this strategy reports to.
  [[nodiscard]] DeliveryMonitor& monitor() noexcept { return monitor_; }
  /// Read-only view of monitor().
  [[nodiscard]] const DeliveryMonitor& monitor() const noexcept { return monitor_; }

  /// Location-update fan-outs performed (one per completed member move).
  [[nodiscard]] std::uint64_t location_updates() const noexcept { return loc_updates_; }
  /// Stale-directory chases (footnote-1 second copies).
  [[nodiscard]] std::uint64_t stale_chases() const noexcept { return stale_chases_; }

 private:
  class HostAgent;
  class StationAgent;
  friend class HostAgent;
  friend class StationAgent;

  net::Network& net_;
  Group group_;
  DeliveryMonitor monitor_;
  std::vector<std::shared_ptr<HostAgent>> host_agents_;  // indexed by MH
  std::uint64_t next_msg_ = 1;
  // Registry-backed counters ("group.always_inform.*"), bound to the
  // network's registry at construction.
  obs::Counter& loc_updates_;
  obs::Counter& stale_chases_;
};

}  // namespace mobidist::group
