#include "net/mobile_host.hpp"

#include <stdexcept>
#include <utility>

#include "net/network.hpp"

namespace mobidist::net {

MobileHost::MobileHost(Network& net, MhId id) : net_(net), id_(id) {}

void MobileHost::register_agent(ProtocolId proto, std::shared_ptr<MhAgent> agent) {
  if (!agent) throw std::invalid_argument("MobileHost::register_agent: null agent");
  agent->attach(net_, id_, proto);
  if (!agents_.emplace(proto, std::move(agent)).second) {
    throw std::invalid_argument("MobileHost::register_agent: duplicate protocol " +
                                std::to_string(proto));
  }
}

MhAgent* MobileHost::agent(ProtocolId proto) const noexcept {
  const auto it = agents_.find(proto);
  return it == agents_.end() ? nullptr : it->second.get();
}

void MobileHost::start_agents() {
  for (auto& [proto, agent] : agents_) agent->on_start();
}

void MobileHost::move_to(MssId target, sim::Duration transit) {
  // Mobility re-homes the MH's lane mid-run; the sharded engine's lane
  // partition is fixed at construction, so moves are legacy-only.
  net_.require_legacy("MobileHost::move_to()");
  if (state_ != MhState::kConnected) {
    throw std::logic_error("MobileHost::move_to: " + to_string(id_) + " is not in a cell");
  }
  // leave(r): r is the last downlink sequence number received here. After
  // sending it the MH neither sends nor receives in this cell (§2).
  net_.send_wireless_uplink(
      id_, make_control(NodeRef(id_), NodeRef(mss_),
                        msg::Leave{id_, downlink_seq_seen_, joins_completed_}));
  prev_mss_ = mss_;
  state_ = MhState::kInTransit;
  downlink_seq_seen_ = 0;
  for (auto& [proto, agent] : agents_) agent->on_left_cell();
  net_.sched().schedule(transit, [this, target]() {
    net_.submit_join(id_, target, msg::Join{id_, prev_mss_, /*reconnect=*/false});
  });
}

void MobileHost::disconnect() {
  net_.require_legacy("MobileHost::disconnect()");
  if (state_ != MhState::kConnected) {
    throw std::logic_error("MobileHost::disconnect: " + to_string(id_) + " is not in a cell");
  }
  net_.send_wireless_uplink(
      id_, make_control(NodeRef(id_), NodeRef(mss_),
                        msg::Disconnect{id_, downlink_seq_seen_, joins_completed_}));
  state_ = MhState::kDisconnected;  // mss_ keeps the flag location
  downlink_seq_seen_ = 0;
  for (auto& [proto, agent] : agents_) agent->on_left_cell();
}

void MobileHost::reconnect_at(MssId target, sim::Duration delay, bool supply_prev) {
  if (state_ != MhState::kDisconnected) {
    throw std::logic_error("MobileHost::reconnect_at: " + to_string(id_) +
                           " is not disconnected");
  }
  prev_mss_ = mss_;
  const MssId prev = supply_prev ? mss_ : kInvalidMss;
  net_.sched().schedule(delay, [this, target, prev]() {
    net_.submit_join(id_, target, msg::Join{id_, prev, /*reconnect=*/true});
  });
}

void MobileHost::complete_join(MssId at) {
  state_ = MhState::kConnected;
  mss_ = at;
  downlink_seq_seen_ = 0;
  ++joins_completed_;
  for (auto& [proto, agent] : agents_) {
    agent->on_joined_cell(at);
    agent->run_parked();
  }
}

void MobileHost::send_relay(MhId dst, ProtocolId inner_proto, Body body, bool fifo) {
  if (state_ != MhState::kConnected) {
    throw std::logic_error("MobileHost::send_relay: " + to_string(id_) + " is not in a cell");
  }
  msg::Relay relay{id_, dst, inner_proto, std::move(body), 0, fifo};
  if (fifo) relay.seq = ++relay_send_seq_[dst];  // first seq is 1 = next_expected
  Envelope env;
  env.proto = protocol::kRelay;
  env.src = id_;
  env.dst = mss_;
  env.body = std::move(relay);
  env.control = false;  // uplink leg charges c_wireless
  net_.send_wireless_uplink(id_, std::move(env));
}

void MobileHost::deliver(const Envelope& env) {
  ++downlink_seq_seen_;
  if (env.proto == protocol::kRelay) {
    const auto* relay = body_as<msg::Relay>(env);
    if (relay == nullptr) throw std::logic_error("MobileHost::deliver: bad relay body");
    accept_relay(*relay);
    return;
  }
  if (auto* target = agent(env.proto)) {
    target->on_message(env);
    return;
  }
  throw std::logic_error("MobileHost::deliver: no agent for protocol " +
                         std::to_string(env.proto) + " at " + to_string(id_));
}

void MobileHost::accept_relay(const msg::Relay& relay) {
  if (!relay.fifo) {
    dispatch_inner(relay.inner_proto, relay.src_mh, relay.inner);
    return;
  }
  auto& rs = relay_recv_[relay.src_mh];
  if (relay.seq < rs.next_expected) return;  // duplicate; drop
  if (relay.seq > rs.next_expected) {
    // Out of order (the sender's earlier message is still chasing us
    // across cells): hold until the gap fills. This resequencer is the
    // "additional burden" §3.1.1 ascribes to MH-endpoint FIFO channels.
    ++net_.stats().relay_reordered;
    rs.held.emplace(relay.seq, relay);
    return;
  }
  dispatch_inner(relay.inner_proto, relay.src_mh, relay.inner);
  ++rs.next_expected;
  while (!rs.held.empty() && rs.held.begin()->first == rs.next_expected) {
    const msg::Relay next = std::move(rs.held.begin()->second);
    rs.held.erase(rs.held.begin());
    dispatch_inner(next.inner_proto, next.src_mh, next.inner);
    ++rs.next_expected;
  }
}

void MobileHost::dispatch_inner(ProtocolId proto, MhId from, const Body& body) {
  auto* target = agent(proto);
  if (target == nullptr) {
    throw std::logic_error("MobileHost: relay for unknown protocol " + std::to_string(proto) +
                           " at " + to_string(id_));
  }
  const auto deliver_id = net_.emit({.kind = obs::EventKind::kDeliver,
                                     .entity = entity_of(id_),
                                     .peer = entity_of(from),
                                     .arg = proto});
  obs::CauseScope scope(net_.events(), deliver_id);
  Envelope env;
  env.proto = proto;
  env.src = from;
  env.dst = id_;
  env.body = body;
  target->on_message(env);
}

}  // namespace mobidist::net
