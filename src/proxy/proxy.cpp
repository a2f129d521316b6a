#include "proxy/proxy.hpp"

#include <utility>

namespace mobidist::proxy {

using net::Envelope;
using net::MhId;
using net::MssId;

namespace {

/// MH -> proxy payload (possibly forwarded once over the wire).
struct Up {
  MhId mh = net::kInvalidMh;
  std::any body;
};

/// Proxy -> MH payload, routed via the cached location. `policy`
/// travels along so a stale-cache chase honours the algorithm's
/// disconnect obligation.
struct Down {
  MhId mh = net::kInvalidMh;
  MssId proxy = net::kInvalidMss;
  std::any body;
  net::SendPolicy policy = net::SendPolicy::kEventualDelivery;
};

/// Proxy <-> proxy payload (the static algorithm's messages).
struct Peer {
  std::any body;
};

/// New local MSS -> home proxy: the MH now lives in my cell.
struct Inform {
  MhId mh = net::kInvalidMh;
  MssId at = net::kInvalidMss;
};

}  // namespace

class ProxyService::StationAgent : public net::MssAgent {
 public:
  explicit StationAgent(ProxyService& owner) : owner_(owner) {}

  void on_message(const Envelope& env) override {
    if (const auto* up = net::body_as<Up>(env)) {
      const MssId proxy = owner_.proxy_of(up->mh);
      if (proxy != self()) {
        // Not ours (the MH moved between uplink and processing, or the
        // local MSS is just a relay for a home-scoped MH): forward.
        send_wired(proxy, *up);
        return;
      }
      if (owner_.proxy_handler_) owner_.proxy_handler_(self(), up->mh, up->body);
      return;
    }
    if (const auto* down = net::body_as<Down>(env)) {
      // We are (believed to be) the MH's current cell: last wireless hop.
      send_local(down->mh, *down);
      return;
    }
    if (const auto* peer = net::body_as<Peer>(env)) {
      if (owner_.peer_handler_) owner_.peer_handler_(self(), env.src.mss(), peer->body);
      return;
    }
    if (const auto* inform = net::body_as<Inform>(env)) {
      ++owner_.informs_;
      owner_.cached_loc_[net::index(inform->mh)] = inform->at;
      return;
    }
  }

  void on_mh_joined(MhId mh, MssId /*prev*/) override {
    switch (owner_.opts_.scope) {
      case ProxyScope::kLocalMss:
        return;  // the proxy moved with the MH; nothing to inform
      case ProxyScope::kFixedHome:
        break;  // inform on every move
      case ProxyScope::kLazyHome:
        if (net().mh(mh).joins_completed() % owner_.opts_.inform_every != 0) return;
        break;
    }
    const MssId home = owner_.home_[net::index(mh)];
    if (home == self()) {
      ++owner_.informs_;
      owner_.cached_loc_[net::index(mh)] = self();
      return;
    }
    send_wired(home, Inform{mh, self()});
  }

  /// A Down frame missed (stale cache / MH left this cell): chase.
  void on_local_send_failed(MhId mh, const net::Body& body) override {
    ++owner_.location_misses_;
    const auto* down = body.get<Down>();
    if (down == nullptr) return;
    send_to_mh(mh, *down, down->policy);
  }

  void on_mh_unreachable(MhId mh, const net::Body& body) override {
    const auto* down = body.get<Down>();
    if (down == nullptr) return;
    if (owner_.unreachable_handler_) {
      owner_.unreachable_handler_(down->proxy, mh, down->body);
    }
  }

  // Expose protected sends to the owning service.
  void do_send_wired(MssId to, net::Body body) { send_wired(to, std::move(body)); }
  void do_send_local(MhId mh, net::Body body) { send_local(mh, std::move(body)); }
  void do_send_to_mh(MhId mh, net::Body body, net::SendPolicy policy) {
    send_to_mh(mh, std::move(body), policy);
  }

 private:
  ProxyService& owner_;
};

class ProxyService::HostAgent : public net::MhAgent {
 public:
  explicit HostAgent(ProxyService& owner) : owner_(owner) {}

  void client_send(std::any body) {
    when_connected([this, body = std::move(body)] { send_uplink(Up{self(), body}); });
  }

  void on_message(const Envelope& env) override {
    const auto* down = net::body_as<Down>(env);
    if (down == nullptr) return;
    if (owner_.client_handler_) owner_.client_handler_(self(), down->body);
  }

 private:
  ProxyService& owner_;
};

ProxyService::ProxyService(net::Network& net, ProxyOptions opts, net::ProtocolId proto)
    : net_(net), opts_(opts), proto_(proto) {
  home_.resize(net.num_mh());
  cached_loc_.resize(net.num_mh());
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) {
    home_[i] = net.mh(static_cast<MhId>(i)).last_mss();  // initial cell
    cached_loc_[i] = home_[i];
  }
  stations_.reserve(net.num_mss());
  for (std::uint32_t i = 0; i < net.num_mss(); ++i) {
    auto agent = std::make_shared<StationAgent>(*this);
    stations_.push_back(agent);
    net.mss(static_cast<MssId>(i)).register_agent(proto, agent);
  }
  hosts_.reserve(net.num_mh());
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) {
    auto agent = std::make_shared<HostAgent>(*this);
    hosts_.push_back(agent);
    net.mh(static_cast<MhId>(i)).register_agent(proto, agent);
  }
}

MssId ProxyService::proxy_of(MhId mh) const {
  if (opts_.scope == ProxyScope::kLocalMss) {
    const MssId current = net_.mh(mh).current_mss();
    return current != net::kInvalidMss ? current : net_.mh(mh).last_mss();
  }
  return home_[net::index(mh)];
}

void ProxyService::client_send(MhId mh, std::any body) {
  hosts_[net::index(mh)]->client_send(std::move(body));
}

void ProxyService::proxy_send(MssId proxy, MhId mh, std::any body, net::SendPolicy policy) {
  auto& station = *stations_[net::index(proxy)];
  Down down{mh, proxy, std::move(body), policy};
  if (opts_.scope == ProxyScope::kLocalMss) {
    // The MH is supposed to be local; a miss triggers the search
    // obligation (or the notify path for disconnect-aware algorithms).
    if (net_.mh(mh).current_mss() == proxy) {
      station.do_send_local(mh, std::move(down));
    } else {
      ++location_misses_;
      station.do_send_to_mh(mh, std::move(down), policy);
    }
    return;
  }
  const MssId believed = cached_loc_[net::index(mh)];
  if (believed == proxy) {
    station.do_send_local(mh, std::move(down));
    return;
  }
  station.do_send_wired(believed, std::move(down));
}

void ProxyService::peer_send(MssId from, MssId to, std::any body) {
  stations_[net::index(from)]->do_send_wired(to, Peer{std::move(body)});
}

}  // namespace mobidist::proxy
