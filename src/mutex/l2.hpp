#pragma once

#include <cstdint>
#include <vector>

#include "mutex/lamport_engine.hpp"
#include "mutex/monitor.hpp"
#include "mutex/options.hpp"
#include "net/network.hpp"

namespace mobidist::mutex {

// Wire messages of algorithm L2.

/// MH -> local MSS: start a mutual-exclusion request on my behalf.
struct L2Init {
  net::MhId mh = net::kInvalidMh;
};

/// Granting MSS -> MH: you hold the lock (the paper's grant-request).
struct L2Grant {
  std::uint64_t req_id = 0;
  net::MssId home = net::kInvalidMss;  ///< the MSS running Lamport for this request
  std::uint64_t ts = 0;                ///< Lamport timestamp of the request
};

/// MH -> current local MSS (relayed to home if needed): release-resource.
struct L2ReleaseResource {
  std::uint64_t req_id = 0;
  net::MssId home = net::kInvalidMss;
};

/// MSS <-> MSS: a Lamport-engine message on behalf of some MH.
struct L2Wire {
  LamportMsg msg;
};

/// Algorithm L2 (§3.1.1): the paper's restructured Lamport mutex. The M
/// MSSs run Lamport's algorithm among themselves on behalf of requesting
/// MHs; MH participation shrinks to three wireless messages
/// (init, grant-request, release-resource).
///
/// Cost per execution: 3*c_wireless + c_search (grant must locate the
/// possibly-moved MH) + c_fixed (release relay) + 3*(M-1)*c_fixed
/// (request/reply/release among the MSSs).
///
/// Disconnect handling follows the paper: a grant that reaches a
/// disconnected MH comes back as an unreachable notice and the home MSS
/// releases on its behalf (the request is aborted); a MH that
/// disconnects while holding the lock sends release-resource when it
/// reconnects.
class L2Mutex {
 public:
  L2Mutex(net::Network& net, CsMonitor& monitor, MutexOptions opts = {});
  ~L2Mutex();

  /// Ask for one CS execution on behalf of `mh`.
  void request(net::MhId mh);

  /// Fully completed executions (granted, held, released).
  [[nodiscard]] std::uint64_t completed() const noexcept;
  /// Requests aborted because the MH was disconnected at grant time.
  [[nodiscard]] std::uint64_t aborted() const noexcept;

 private:
  class StationAgent;
  class HostAgent;
  net::Network& net_;
  CsMonitor& monitor_;
  // Indexed by MSS and by MH; sized once, so registered pointers stay valid.
  std::vector<StationAgent> stations_;
  std::vector<HostAgent> hosts_;
};

}  // namespace mobidist::mutex
