#pragma once

#include <cstdint>
#include <vector>

#include "group/group.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace mobidist::group {

/// §4.1 Pure-search strategy: no location state at all. A sender fires a
/// point-to-point MH-to-MH message at every other member; each one
/// incurs a full search.
///
/// Cost per group message: (|G|-1) * (2*c_wireless + c_search) —
/// independent of mobility (MOB never appears), which is exactly what
/// the E5 bench shows against always-inform and location-view.
class PureSearchGroup {
 public:
  PureSearchGroup(net::Network& net, Group group,
                  net::ProtocolId proto = net::protocol::kGroupData);
  ~PureSearchGroup();

  /// Send one group message from `sender` (must be a member). Callable
  /// from inside the simulation. Returns the message id.
  std::uint64_t send_group_message(net::MhId sender);

  /// The members this strategy serves.
  [[nodiscard]] const Group& group() const noexcept { return group_; }
  /// The delivery oracle this strategy reports to.
  [[nodiscard]] DeliveryMonitor& monitor() noexcept { return monitor_; }
  /// Read-only view of monitor().
  [[nodiscard]] const DeliveryMonitor& monitor() const noexcept { return monitor_; }

 private:
  class Agent;
  net::Network& net_;
  Group group_;
  net::ProtocolId proto_;
  DeliveryMonitor monitor_;
  // One per member; sized once, so registered pointers stay valid. A
  // member's agent is found through its host.
  std::vector<Agent> agents_;
  std::uint64_t next_msg_ = 1;
  obs::Counter& group_msgs_;  // "group.pure_search.group_msgs"
};

}  // namespace mobidist::group
