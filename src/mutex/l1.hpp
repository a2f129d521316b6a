#pragma once

#include <cstdint>
#include <vector>

#include "mutex/lamport_engine.hpp"
#include "mutex/monitor.hpp"
#include "mutex/options.hpp"
#include "net/network.hpp"

namespace mobidist::mutex {

/// Algorithm L1 (§3.1.1): Lamport's mutual exclusion executed *directly
/// on the N mobile hosts* — the paper's strawman.
///
/// Every engine message travels MH-to-MH over the relay service, so each
/// costs 2*c_wireless + c_search; one CS execution costs
/// 3*(N-1)*(2*c_wireless + c_search) and drains 6*(N-1) wireless-hop
/// energy units across the MHs. Every MH must participate in every
/// execution (it replies to every request), which is exactly why the
/// paper rejects this structuring: no doze mode, no disconnection.
///
/// Construct before Network::start(); call request() from inside the
/// simulation (scheduled events).
class L1Mutex {
 public:
  L1Mutex(net::Network& net, CsMonitor& monitor, MutexOptions opts = {});
  ~L1Mutex();

  /// Ask for one CS execution on behalf of `mh`. If the MH is between
  /// cells the request waits until it lands.
  void request(net::MhId mh);

  /// CS executions fully completed (entered and released).
  [[nodiscard]] std::uint64_t completed() const noexcept;

 private:
  class Agent;
  net::Network& net_;
  CsMonitor& monitor_;
  // Indexed by MH; sized once, so registered pointers stay valid.
  std::vector<Agent> agents_;
};

}  // namespace mobidist::mutex
