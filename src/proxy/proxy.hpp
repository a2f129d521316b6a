#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"

namespace mobidist::proxy {

/// §5: which MSS acts as a MH's proxy (the "scope" parameter).
enum class ProxyScope : std::uint8_t {
  /// The proxy is always the MH's current local MSS (the L2/R2 choice):
  /// zero inform traffic, but deliveries to a moved MH need a search.
  kLocalMss,
  /// One fixed MSS per MH for its lifetime ("total separation of
  /// mobility from the algorithm"): the proxy is informed of every move
  /// (one fixed message each), deliveries never search.
  kFixedHome,
  /// The "less static solution" the paper calls for: a home proxy that
  /// is informed only on every k-th move. Deliveries use the (possibly
  /// stale) cached location and fall back to a search when it misses —
  /// the classic inform/search trade-off, tunable by k.
  kLazyHome,
};

/// Tuning knobs for the proxy layer (scope policy + inform rate).
struct ProxyOptions {
  ProxyScope scope = ProxyScope::kFixedHome;
  /// kLazyHome: inform the proxy on every k-th completed move.
  std::uint32_t inform_every = 2;
};

/// The mobility-decoupling layer of §5. It gives algorithm authors three
/// channels and hides every mobility concern behind them:
///
///   - client_send:  MH -> its proxy           (the MH's only API)
///   - proxy_send:   proxy -> one of its MHs   (never needs to know cells)
///   - peer_send:    proxy -> proxy            (the static algorithm's wire)
///
/// A distributed algorithm written for static hosts runs unchanged at
/// the proxies over peer_send; ProxiedLamport (static_algorithm.hpp) is
/// the worked example. The scope policy decides the inform/search cost
/// split; the obligation (what happens when a MH moved or disconnected
/// mid-computation) is expressed per send via net::SendPolicy plus the
/// unreachable callback.
class ProxyService {
 public:
  /// Invoked at the proxy MSS when one of its MHs sends something up.
  using ProxyHandler =
      std::function<void(net::MssId proxy, net::MhId from, const std::any& body)>;
  /// Invoked at a MH when its proxy sends something down.
  using ClientHandler = std::function<void(net::MhId self, const std::any& body)>;
  /// Invoked at a proxy when a peer proxy sends something over the wire.
  using PeerHandler =
      std::function<void(net::MssId self, net::MssId from, const std::any& body)>;
  /// Invoked at the proxy when a proxy_send with kNotifyIfDisconnected
  /// could not reach the MH.
  using UnreachableHandler =
      std::function<void(net::MssId proxy, net::MhId mh, const std::any& body)>;

  ProxyService(net::Network& net, ProxyOptions opts,
               net::ProtocolId proto = net::protocol::kProxy);
  ~ProxyService();

  /// Install the MH-to-proxy upcall handler.
  void set_proxy_handler(ProxyHandler handler) { proxy_handler_ = std::move(handler); }
  /// Install the proxy-to-MH downcall handler.
  void set_client_handler(ClientHandler handler) { client_handler_ = std::move(handler); }
  /// Install the proxy-to-proxy wire handler.
  void set_peer_handler(PeerHandler handler) { peer_handler_ = std::move(handler); }
  /// Install the handler for proxy_sends that found the MH unreachable.
  void set_unreachable_handler(UnreachableHandler handler) {
    unreachable_handler_ = std::move(handler);
  }

  /// The MSS currently acting as `mh`'s proxy. For kLocalMss this tracks
  /// the MH; for the home scopes it is the MH's initial cell.
  [[nodiscard]] net::MssId proxy_of(net::MhId mh) const;

  /// MH -> its proxy: one wireless uplink plus, if the local MSS is not
  /// the proxy, one fixed-network forward. Deferred while in transit.
  void client_send(net::MhId mh, std::any body);

  /// Proxy -> MH. Home scopes route via the cached location (fixed +
  /// wireless) and chase with a search only when the cache is stale;
  /// kLocalMss delivers locally or searches (the L2 obligation).
  void proxy_send(net::MssId proxy, net::MhId mh, std::any body,
                  net::SendPolicy policy = net::SendPolicy::kEventualDelivery);

  /// Proxy -> peer proxy over the wired mesh (the static algorithm's
  /// transport).
  void peer_send(net::MssId from, net::MssId to, std::any body);

  /// Location-inform messages proxies received (cost driver #1).
  [[nodiscard]] std::uint64_t informs() const noexcept { return informs_; }
  /// Deliveries that needed a search because the cached location was
  /// stale or the scope was local (cost driver #2).
  [[nodiscard]] std::uint64_t location_misses() const noexcept { return location_misses_; }

 private:
  class StationAgent;
  class HostAgent;
  friend class StationAgent;
  friend class HostAgent;

  net::Network& net_;
  ProxyOptions opts_;
  net::ProtocolId proto_;
  std::vector<net::MssId> home_;        ///< per-MH fixed/lazy home proxy
  std::vector<net::MssId> cached_loc_;  ///< proxy's view of the MH's cell
  // Indexed by MSS and by MH; sized once, so registered pointers stay valid.
  std::vector<StationAgent> stations_;
  std::vector<HostAgent> hosts_;
  ProxyHandler proxy_handler_;
  ClientHandler client_handler_;
  PeerHandler peer_handler_;
  UnreachableHandler unreachable_handler_;
  std::uint64_t informs_ = 0;
  std::uint64_t location_misses_ = 0;
};

}  // namespace mobidist::proxy
