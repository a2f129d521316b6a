#pragma once

#include <cstdint>
#include <vector>

#include "mutex/monitor.hpp"
#include "mutex/options.hpp"
#include "net/network.hpp"

namespace mobidist::mutex {

/// The circulating token of algorithm R1.
struct R1Token {
  std::uint64_t traversal = 0;  ///< completed loops (counted at MH 0)
};

/// Algorithm R1 (§3.1.2): Le Lann's token ring threaded through the N
/// mobile hosts — the paper's second strawman.
///
/// Every hop is MH-to-MH (2*c_wireless + c_search), so one traversal of
/// the ring costs N*(2*c_wireless + c_search) *regardless of how many
/// requests it serves* — even an idle traversal drains every MH's
/// battery and interrupts every dozing MH. A disconnected MH halts the
/// ring (the token parks until it reconnects), which the tests
/// demonstrate.
///
/// The service injects the token at MH 0 and absorbs it after
/// `traversals` complete loops so simulations terminate.
class R1Mutex {
 public:
  R1Mutex(net::Network& net, CsMonitor& monitor, MutexOptions opts = {});
  ~R1Mutex();

  /// Launch the token for `traversals` loops, starting at MH 0.
  void start_token(std::uint64_t traversals);

  /// Mark `mh` as wanting the CS on the token's next visit.
  void request(net::MhId mh);

  /// CS executions completed so far.
  [[nodiscard]] std::uint64_t completed() const noexcept;
  /// Loops finished so far.
  [[nodiscard]] std::uint64_t traversals_done() const noexcept;
  /// True once the token finished its last traversal and was retired.
  [[nodiscard]] bool token_absorbed() const noexcept { return absorbed_; }

 private:
  class Agent;
  net::Network& net_;
  CsMonitor& monitor_;
  // Indexed by MH; sized once, so registered pointers stay valid.
  std::vector<Agent> agents_;
  std::uint64_t target_traversals_ = 0;
  std::uint64_t traversals_done_ = 0;
  bool absorbed_ = false;

  friend class Agent;
};

}  // namespace mobidist::mutex
