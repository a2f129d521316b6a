#pragma once

#include <any>
#include <functional>
#include <vector>

#include "net/envelope.hpp"
#include "net/ids.hpp"

namespace mobidist::net {

class Network;

/// How a send addressed to a (possibly moving / disconnected) MH behaves
/// when the MH cannot currently be reached.
enum class SendPolicy : std::uint8_t {
  /// Follow the MH across moves (each retry incurs a fresh search); if
  /// it disconnected, hold the message until it reconnects and deliver
  /// it from the new cell. This is the model's "eventual delivery"
  /// guarantee.
  kEventualDelivery,
  /// Follow the MH across moves, but if it disconnected notify the
  /// sending agent (MssAgent::on_mh_unreachable) instead of parking.
  /// This is what L2 needs: "its current local MSS ... will notify ml of
  /// h1's disconnected status".
  kNotifyIfDisconnected,
};

/// Algorithm code that lives on a fixed host (MSS). One agent instance
/// per (MSS, protocol); the substrate invokes the callbacks below.
///
/// All callbacks run inside the simulation loop; agents may send
/// messages and schedule timers from any of them.
class MssAgent {
 public:
  virtual ~MssAgent() = default;

  /// Wiring performed by Mss::register_agent(); not called by users.
  void attach(Network& net, MssId self, ProtocolId proto) noexcept {
    net_ = &net;
    self_ = self;
    proto_ = proto;
  }

  /// Called once after every agent in the system has been registered.
  virtual void on_start() {}

  /// An envelope for this protocol arrived (wired or wireless).
  virtual void on_message(const Envelope& env) = 0;

  /// A MH joined this MSS's cell (after handoff completed, if any).
  /// `prev` is kInvalidMss on first join.
  virtual void on_mh_joined(MhId /*mh*/, MssId /*prev*/) {}

  /// A MH left this cell (leave() processed or implied by handoff).
  virtual void on_mh_left(MhId /*mh*/) {}

  /// A MH disconnected in this cell.
  virtual void on_mh_disconnected(MhId /*mh*/) {}

  /// A MH reconnected in this cell (on_mh_joined is also invoked).
  virtual void on_mh_reconnected(MhId /*mh*/, MssId /*prev*/) {}

  /// A MH that had disconnected in this cell reconnected somewhere else;
  /// the substrate just cleared its "disconnected" flag here. Agents
  /// tracking disconnected-but-located members drop them now.
  virtual void on_disconnected_mh_migrated(MhId /*mh*/, MssId /*new_mss*/) {}

  /// Produce state to hand to the MH's next MSS; return an empty
  /// std::any if this protocol keeps no per-MH state.
  virtual std::any on_handoff_out(MhId /*mh*/) { return {}; }

  /// Receive state handed over from the MH's previous MSS.
  virtual void on_handoff_in(MhId /*mh*/, MssId /*from*/, const std::any& /*state*/) {}

  /// A send_to_mh with SendPolicy::kNotifyIfDisconnected found the MH
  /// disconnected; the undelivered body comes back.
  virtual void on_mh_unreachable(MhId /*mh*/, const Body& /*body*/) {}

  /// A send_local frame was lost because the MH left the cell before it
  /// landed; the undelivered body comes back.
  virtual void on_local_send_failed(MhId /*mh*/, const Body& /*body*/) {}

 protected:
  /// The substrate this agent is attached to.
  [[nodiscard]] Network& net() const noexcept { return *net_; }
  /// The MSS this agent instance lives on.
  [[nodiscard]] MssId self() const noexcept { return self_; }
  /// The protocol id this agent registered under.
  [[nodiscard]] ProtocolId proto() const noexcept { return proto_; }

  /// Send to another MSS over the wired network (FIFO, charged the wired
  /// cost terms; a self-send dispatches locally free of charge). With
  /// NetConfig::formation batching enabled the message may coalesce into
  /// a packet with other wired traffic on the same (src,dst) pair.
  void send_wired(MssId to, Body body);

  /// Send to a MH that must currently be local to this MSS (one
  /// wireless hop, charged c_wireless).
  void send_local(MhId mh, Body body);

  /// Locate a MH anywhere in the system and deliver (charged c_search +
  /// c_wireless in oracle mode; real messages in broadcast mode).
  void send_to_mh(MhId mh, Body body,
                  SendPolicy policy = SendPolicy::kEventualDelivery);

 private:
  Network* net_ = nullptr;
  MssId self_ = kInvalidMss;
  ProtocolId proto_ = 0;
};

/// Algorithm code that lives on a mobile host.
class MhAgent {
 public:
  virtual ~MhAgent() = default;

  /// Wiring performed by MobileHost::register_agent(); not called by users.
  void attach(Network& net, MhId self, ProtocolId proto) noexcept {
    net_ = &net;
    self_ = self;
    proto_ = proto;
  }

  /// Called once after every agent in the system has been registered.
  virtual void on_start() {}

  /// An envelope for this protocol was delivered over the wireless link.
  virtual void on_message(const Envelope& env) = 0;

  /// This MH completed a join into `mss`'s cell. The work parked by
  /// when_connected() runs right after this hook returns.
  virtual void on_joined_cell(MssId /*mss*/) {}

  /// This MH left its cell (move or disconnect initiated).
  virtual void on_left_cell() {}

 protected:
  /// The substrate this agent is attached to.
  [[nodiscard]] Network& net() const noexcept { return *net_; }
  /// The MH this agent instance lives on.
  [[nodiscard]] MhId self() const noexcept { return self_; }
  /// The protocol id this agent registered under.
  [[nodiscard]] ProtocolId proto() const noexcept { return proto_; }

  /// Send to this MH's current local MSS (one wireless hop). The MH must
  /// be connected and in a cell.
  void send_uplink(Body body);

  /// Send to another MH via the relay service: wireless uplink, then
  /// search + forward, then wireless downlink (the 2*c_wireless +
  /// c_search path of §2). `fifo` enables destination resequencing.
  void send_to_mh(MhId dst, Body body, bool fifo = true);

  /// Run `action` now if this MH is connected; otherwise park it until
  /// the MH next completes a join. A MH sends nothing between leave(r)
  /// and its next join, or while disconnected (§2), so an agent routes
  /// through here every send it may issue while its host is out of a cell.
  void when_connected(std::function<void()> action);

  /// Run the parked work, oldest first. The queue is swapped out before
  /// the first action runs, so work that parks again waits for the
  /// following join. MobileHost calls this right after on_joined_cell();
  /// a hook whose own sends must follow the parked work calls it first.
  void run_parked();

 private:
  friend class MobileHost;

  Network* net_ = nullptr;
  MhId self_ = kInvalidMh;
  ProtocolId proto_ = 0;
  /// Work issued while the MH could not send. Every MH agent carries it,
  /// so it must stay at 24 bytes and allocate nothing while empty (a
  /// libstdc++ std::deque allocates about 576 bytes when constructed).
  std::vector<std::function<void()>> parked_;
};

}  // namespace mobidist::net
