#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mutex/monitor.hpp"
#include "mutex/options.hpp"
#include "net/network.hpp"

namespace mobidist::mutex {

/// One node of the Naimi–Trehel path-reversal tree (ROADMAP item 4;
/// Lavault's average-case analysis in PAPERS.md), restructured per the
/// paper's principle: the node is a *fixed* host, so the dynamic
/// `last`/`next` pointer graph never touches a wireless link.
///
/// State per node: `father` — the probable current tail of the
/// distributed request queue (kNoNode means "this node is the probable
/// tail"); `next` — the node to hand the token to after the local queue
/// drains; a FIFO of local MH requests; and whether the token is here.
/// A request claim travels father-to-father until it reaches the tail,
/// and every node it crosses re-points its father at the claim's origin
/// — the path reversal that keeps the tree's average depth (and with it
/// the per-entry message bill) logarithmic.
///
/// The engine is transport-agnostic: it never sends anything itself but
/// invokes the Hooks, so the same state machine runs wired directly on
/// the MSSs (PathRevMutex below) and behind the §5 proxy strategies
/// (proxy::ProxiedPathRev).
class PathRevEngine {
 public:
  /// Dense node index (== MSS index in both current wirings).
  using NodeId = std::uint32_t;
  /// Sentinel for "no node" (father == kNoNode: I am the probable tail).
  static constexpr NodeId kNoNode = 0xffffffffu;

  /// Transport callbacks; all sends happen through these.
  struct Hooks {
    /// Send (or forward) the claim of `origin` one hop to `to`.
    std::function<void(NodeId to, NodeId origin)> forward_claim;
    /// Transfer the token to node `to`.
    std::function<void(NodeId to)> send_token;
    /// The token is here and idle: serve `mh`'s queued request.
    std::function<void(net::MhId mh)> grant;
    /// This node's father pointer was reversed onto `new_father`.
    std::function<void(NodeId new_father)> path_reversed;
  };

  /// Node `self` of an m-node tree. `has_token` for exactly one node
  /// (the initial root, whose father starts as kNoNode); every other
  /// node's father starts pointing at that root.
  PathRevEngine(NodeId self, bool has_token, NodeId initial_father, Hooks hooks)
      : self_(self),
        father_(initial_father),
        token_here_(has_token),
        hooks_(std::move(hooks)) {}

  /// Queue a local MH request and pump: grant immediately if the token
  /// is idle here, otherwise claim the token (once) from the tree.
  void local_request(net::MhId mh) {
    queue_.push_back(mh);
    pump();
  }

  /// A claim by `origin` arrived. Tail nodes capture it (hand the idle
  /// token over, or record `origin` as `next` when the token is busy or
  /// still inbound); interior nodes forward it toward their father.
  /// Either way the father pointer reverses onto `origin`.
  void on_claim(NodeId origin) {
    if (father_ == kNoNode) {
      if (token_here_ && !granting_ && queue_.empty()) {
        // Idle token at the tail: hand it over directly.
        token_here_ = false;
        hooks_.send_token(origin);
      } else if (next_ == kNoNode) {
        next_ = origin;
      } else {
        // Unreachable under the algorithm's invariant (a tail captures
        // at most one claim per epoch: the first capture re-points
        // father at its origin, so later claims forward instead);
        // chaining onto the recorded successor keeps the queue intact
        // if it ever fires.
        hooks_.forward_claim(next_, origin);
      }
    } else {
      hooks_.forward_claim(father_, origin);
    }
    father_ = origin;
    hooks_.path_reversed(origin);
  }

  /// The token arrived; serve the local queue (or park it idle).
  void on_token() {
    claiming_ = false;
    token_here_ = true;
    pump();
  }

  /// The token came back from the MH served last (CS done, grant
  /// bounced, or the unreachable-MH return): serve the next local
  /// request or pass the token to `next`.
  void grant_done() {
    granting_ = false;
    pump();
  }

  /// Drop every queued request of `mh` (it left this cell and will
  /// re-file at its new MSS); returns how many entries were withdrawn.
  std::size_t withdraw(net::MhId mh) {
    const auto before = queue_.size();
    std::erase(queue_, mh);
    return before - queue_.size();
  }

  /// True while the token is at this node (idle or out at a local MH).
  [[nodiscard]] bool token_here() const noexcept { return token_here_; }
  /// True while the token is visiting a MH this node granted it to.
  [[nodiscard]] bool granting() const noexcept { return granting_; }
  /// Local MH requests not yet granted.
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  /// Probable tail pointer (kNoNode: this node is the probable tail).
  [[nodiscard]] NodeId father() const noexcept { return father_; }
  /// Recorded successor awaiting the token (kNoNode: none).
  [[nodiscard]] NodeId next_node() const noexcept { return next_; }

 private:
  void pump() {
    if (!token_here_) {
      // Claim at most once per token acquisition. The dedicated flag —
      // not father_ == kNoNode — marks "claim in flight or token
      // inbound": a claim captured by this waiting node re-points
      // father_ at its origin, and a second claim issued then would
      // chase this node's own inbound token around the reversing tree
      // forever.
      if (!queue_.empty() && !claiming_ && father_ != kNoNode) {
        const NodeId to = father_;
        father_ = kNoNode;
        claiming_ = true;
        hooks_.forward_claim(to, self_);
      }
      return;
    }
    if (granting_) return;
    if (!queue_.empty()) {
      const net::MhId mh = queue_.front();
      queue_.pop_front();
      granting_ = true;
      hooks_.grant(mh);
      return;
    }
    if (next_ != kNoNode) {
      const NodeId to = next_;
      next_ = kNoNode;
      token_here_ = false;
      hooks_.send_token(to);
    }
  }

  NodeId self_;
  NodeId father_;
  NodeId next_ = kNoNode;
  bool token_here_;
  bool claiming_ = false;  ///< own claim in flight / token inbound
  bool granting_ = false;
  std::deque<net::MhId> queue_;
  Hooks hooks_;
};

// Wire messages.

/// MH -> local MSS: queue me for the critical section.
struct PathRevRequest {
  net::MhId mh = net::kInvalidMh;
};

/// MSS -> MSS: a token claim travelling father-to-father; `origin` is
/// the MSS that wants the token.
struct PathRevClaim {
  net::MssId origin = net::kInvalidMss;
};

/// MSS -> MSS: the token itself. `serial` counts transfers (grant legs
/// included) for trace readability.
struct PathRevTokenPass {
  std::uint64_t serial = 0;
};

/// MSS -> MH: the grant (the token visits the MH for one CS execution).
struct PathRevGrant {
  net::MssId home = net::kInvalidMss;  ///< who to return the token to
  std::uint64_t serial = 0;
};

/// MH -> current MSS (relayed to `home` if the MH moved): token return.
struct PathRevReturn {
  net::MssId home = net::kInvalidMss;
  std::uint64_t serial = 0;
};

/// Path-reversal token mutual exclusion on the MSS tier (ROADMAP item
/// 4): Naimi–Trehel's dynamic-tree token algorithm restructured per the
/// paper's principle. The `last`/`next` tree lives entirely on the M
/// MSSs; a MH participates with the same 3-wireless-message profile as
/// L2/R2 (request up, grant down, return up) while the tree-forwarding
/// traffic — O(log M) wired messages per entry on average (Lavault) —
/// stays on the fixed network, where FormationLayer batching applies.
///
/// Mobility: a MH re-files its outstanding requests at every cell it
/// joins and the cell it left withdraws them (MssAgent::on_mh_left), so
/// requests queued at a crashed-and-evacuated MSS re-home to the refuge
/// cell without a side channel. Over-filing is harmless: a MH accepts
/// at most `pending` grants and bounces any surplus token straight back
/// to its granting MSS. Token loss: none under the fail-stop model —
/// wired claims/transfers addressed to a crashed MSS are deferred until
/// recovery (stable storage), and a token visiting a MH rides the
/// reliable wireless path; see docs/ARCHITECTURE.md for the documented
/// crash-window latency cost.
class PathRevMutex {
 public:
  PathRevMutex(net::Network& net, CsMonitor& monitor, MutexOptions opts = {});
  ~PathRevMutex();

  /// Submit a CS request on behalf of `mh` at its current MSS.
  void request(net::MhId mh);

  /// CS executions completed (grant accepted, hold elapsed, token
  /// returned toward home).
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Grants that found the MH disconnected (token bounced at the MSS).
  [[nodiscard]] std::uint64_t skipped_disconnected() const noexcept {
    return skipped_disconnected_counter_.value();
  }
  /// Surplus grants a MH returned unused (re-homed request served twice).
  [[nodiscard]] std::uint64_t bounced_grants() const noexcept {
    return bounced_counter_.value();
  }
  /// Requests withdrawn from a cell the MH left (re-homed on re-join).
  [[nodiscard]] std::uint64_t rehomed() const noexcept {
    return rehomed_counter_.value();
  }
  /// Requests still queued across every station (0 once drained).
  [[nodiscard]] std::uint64_t queued_total() const;

  /// Event-stream tag for the direct MSS-tier wiring.
  [[nodiscard]] static constexpr const char* label() noexcept { return "NT"; }

 private:
  class StationAgent;
  class HostAgent;
  friend class StationAgent;
  friend class HostAgent;

  net::Network& net_;
  CsMonitor& monitor_;
  // Indexed by MSS and by MH; sized once, so registered pointers stay valid.
  std::vector<StationAgent> stations_;
  std::vector<HostAgent> hosts_;
  std::uint64_t completed_ = 0;
  std::uint64_t transfers_ = 0;  ///< token-movement serial (events' arg)
  // Registry-backed tree-path counters; the accessors above read them.
  obs::Counter& token_passes_counter_;
  obs::Counter& token_grants_counter_;
  obs::Counter& claim_hops_counter_;
  obs::Counter& path_reversals_counter_;
  obs::Counter& rehomed_counter_;
  obs::Counter& bounced_counter_;
  obs::Counter& skipped_disconnected_counter_;
};

}  // namespace mobidist::mutex
