#include "net/mss.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "net/network.hpp"

namespace mobidist::net {

Mss::Mss(Network& net, MssId id) : net_(net), id_(id) {}

void Mss::register_agent(ProtocolId proto, MssAgent* agent) {
  if (agent == nullptr) throw std::invalid_argument("Mss::register_agent: null agent");
  MssAgent*& slot = net_.agent_table(proto).mss[index(id_)];
  if (slot != nullptr) {
    throw std::invalid_argument("Mss::register_agent: duplicate protocol " +
                                std::to_string(proto));
  }
  agent->attach(net_, id_, proto);
  slot = agent;
}

MssAgent* Mss::agent(ProtocolId proto) const noexcept {
  const auto* table = net_.find_agent_table(proto);
  return table == nullptr ? nullptr : table->at(id_);
}

std::vector<MhId> Mss::local_mhs() const {
  std::vector<MhId> local;
  for (std::uint32_t i = 0; i < net_.num_mh(); ++i) {
    if (is_local(static_cast<MhId>(i))) local.push_back(static_cast<MhId>(i));
  }
  return local;
}

bool Mss::is_local(MhId mh) const {
  const auto* record = net_.find_cell_record(id_, mh);
  return record != nullptr && record->local;
}

bool Mss::has_disconnected_flag(MhId mh) const {
  const auto* record = net_.find_cell_record(id_, mh);
  return record != nullptr && record->disconnected;
}

void Mss::place_local(MhId mh) { net_.enter_cell(id_, mh).local = true; }

void Mss::dispatch(const Envelope& env) {
  if (env.proto == protocol::kSystem) {
    if (const auto* join = body_as<msg::Join>(env)) return handle_join(*join);
    if (const auto* leave = body_as<msg::Leave>(env)) return handle_leave(*leave);
    if (const auto* disc = body_as<msg::Disconnect>(env)) return handle_disconnect(*disc);
    if (const auto* req = body_as<msg::HandoffRequest>(env)) return handle_handoff_request(*req);
    if (const auto* state = body_as<msg::HandoffState>(env)) return handle_handoff_state(*state);
    if (const auto* query = body_as<msg::SearchQuery>(env)) {
      return net_.handle_search_query(id_, *query);
    }
    if (const auto* reply = body_as<msg::SearchReply>(env)) {
      return net_.handle_search_reply(*reply);
    }
    if (const auto* notice = body_as<msg::UnreachableNotice>(env)) {
      if (auto* target = agent(notice->proto)) target->on_mh_unreachable(notice->mh, notice->body);
      return;
    }
    if (const auto* find = body_as<msg::FindDisconnect>(env)) {
      msg::FindDisconnectReply reply{find->mh, id_, has_disconnected_flag(find->mh)};
      net_.send_wired(id_, find->origin, make_control(NodeRef(id_), NodeRef(find->origin), reply));
      return;
    }
    if (const auto* found = body_as<msg::FindDisconnectReply>(env)) {
      if (found->had_flag) {
        // Resume the reconnect handoff now that we know where the MH
        // disconnected.
        net_.emit({.kind = obs::EventKind::kHandoffBegin,
                   .entity = entity_of(id_),
                   .peer = entity_of(found->from),
                   .arg = index(found->mh),
                   .detail = "reconnect"});
        net_.cell_record(id_, found->mh).awaiting_handoff_in = true;
        msg::HandoffRequest req{found->mh, id_, /*clears_disconnect=*/true};
        net_.send_wired(id_, found->from, make_control(NodeRef(id_), NodeRef(found->from), req));
      }
      return;
    }
    throw std::logic_error("Mss::dispatch: unknown control message");
  }
  if (env.proto == protocol::kRelay) return handle_relay(env);
  if (auto* target = agent(env.proto)) {
    target->on_message(env);
    return;
  }
  throw std::logic_error("Mss::dispatch: no agent for protocol " + std::to_string(env.proto) +
                         " at " + to_string(id_));
}

void Mss::handle_join(const msg::Join& join) {
  // The record keeps the join count in 32 bits.
  if (net_.mh(join.mh).joins_completed() >= UINT32_MAX) {
    throw std::length_error("Mss: " + to_string(join.mh) + " joined too many times");
  }
  auto& record = net_.enter_cell(id_, join.mh);
  record.local = true;
  net_.mh(join.mh).complete_join(id_);
  record.arrival = static_cast<std::uint32_t>(net_.mh(join.mh).joins_completed());
  auto& stats = net_.stats();
  ++stats.joins;
  if (join.reconnect) {
    ++stats.reconnects;
    net_.emit({.kind = obs::EventKind::kReconnect,
               .entity = entity_of(join.mh),
               .peer = entity_of(id_)});
  }

  const bool needs_handoff = join.prev_mss != kInvalidMss && join.prev_mss != id_;
  if (needs_handoff) {
    ++stats.handoffs;
    net_.emit({.kind = obs::EventKind::kHandoffBegin,
               .entity = entity_of(id_),
               .peer = entity_of(join.prev_mss),
               .arg = index(join.mh)});
    record.awaiting_handoff_in = true;
    msg::HandoffRequest req{join.mh, id_, join.reconnect,
                            net_.mh(join.mh).joins_completed()};
    net_.send_wired(id_, join.prev_mss, make_control(NodeRef(id_), NodeRef(join.prev_mss), req));
  } else if (join.reconnect && join.prev_mss == kInvalidMss) {
    // The MH could not supply its previous MSS: query every fixed host.
    for (std::uint32_t i = 0; i < net_.num_mss(); ++i) {
      const auto dest = static_cast<MssId>(i);
      if (dest == id_) continue;
      msg::FindDisconnect find{join.mh, id_};
      net_.send_wired(id_, dest, make_control(NodeRef(id_), NodeRef(dest), find));
    }
  }

  net_.for_each_agent(id_, [&join](MssAgent& agent) {
    agent.on_mh_joined(join.mh, join.prev_mss);
    if (join.reconnect) agent.on_mh_reconnected(join.mh, join.prev_mss);
  });
  net_.on_mh_rejoined(join.mh, id_);
}

void Mss::handle_leave(const msg::Leave& leave) {
  // A handoff request from the next cell may have overtaken this leave;
  // in that case the MH is already gone and the leave is stale.
  const auto& record = net_.cell_record(id_, leave.mh);
  if (!record.local) return;
  // A leave retransmitted over the lossy wireless hop can also trail the
  // MH's re-join into this same cell (FIFO clamps the late copy behind
  // the join): the recorded arrival epoch being newer than the departure
  // this leave describes means the member here is alive, not leaving.
  if (record.arrival > leave.join_seq) return;
  ++net_.stats().leaves;
  remove_local(leave.mh);
}

void Mss::handle_disconnect(const msg::Disconnect& disc) {
  auto& record = net_.cell_record(id_, disc.mh);
  if (!record.local) return;
  // Same stale-retransmission guard as handle_leave: never set the
  // disconnected flag for a member whose re-join postdates this message.
  if (record.arrival > disc.join_seq) return;
  net_.emit({.kind = obs::EventKind::kDisconnect,
             .entity = entity_of(disc.mh),
             .peer = entity_of(id_)});
  ++net_.stats().disconnects;
  // Per §2: delete from the local list but set the "disconnected" flag;
  // the MH is still *located* here for search purposes, so agents get
  // on_mh_disconnected rather than on_mh_left.
  record.local = false;
  record.disconnected = true;
  net_.for_each_agent(id_,
                      [&disc](MssAgent& agent) { agent.on_mh_disconnected(disc.mh); });
}

void Mss::handle_handoff_request(const msg::HandoffRequest& req) {
  auto& record = net_.cell_record(id_, req.mh);
  if (record.local) {
    if (req.join_seq > record.arrival) {
      // The request overtook the MH's leave(): treat it as the leave.
      ++net_.stats().leaves;
      remove_local(req.mh);
    }
    // Otherwise the MH has already bounced back here (its re-arrival is
    // newer than the departure this request describes): keep it local
    // but still answer with state so the requester can unblock.
  }
  if (req.clears_disconnect && record.disconnected) {
    record.disconnected = false;
    net_.for_each_agent(id_, [&req](MssAgent& agent) {
      agent.on_disconnected_mh_migrated(req.mh, req.new_mss);
    });
  }
  if (record.awaiting_handoff_in) {
    // We have not yet received this MH's state from *its* previous MSS;
    // answering now would drop that state. Defer until it lands.
    deferred_handoff_requests_[req.mh] = req;
    return;
  }
  send_handoff_state(req.mh, req.new_mss);
}

void Mss::send_handoff_state(MhId mh, MssId new_mss) {
  msg::HandoffState state{mh, id_, {}};
  for (const auto& [proto, table] : net_.agent_tables_) {
    if (MssAgent* agent = table.at(id_)) {
      Body blob = agent->on_handoff_out(mh);
      if (blob.has_value()) state.state.emplace(proto, std::move(blob));
    }
  }
  net_.send_wired(id_, new_mss, make_control(NodeRef(id_), NodeRef(new_mss), std::move(state)));
}

void Mss::handle_handoff_state(const msg::HandoffState& state) {
  net_.emit({.kind = obs::EventKind::kHandoffEnd,
             .entity = entity_of(id_),
             .peer = entity_of(state.prev_mss),
             .arg = index(state.mh)});
  net_.cell_record(id_, state.mh).awaiting_handoff_in = false;
  for (const auto& [proto, blob] : state.state) {
    if (auto* target = agent(proto)) target->on_handoff_in(state.mh, state.prev_mss, blob);
  }
  if (auto it = deferred_handoff_requests_.find(state.mh);
      it != deferred_handoff_requests_.end()) {
    const msg::HandoffRequest req = it->second;
    deferred_handoff_requests_.erase(it);
    send_handoff_state(req.mh, req.new_mss);
  }
}

void Mss::handle_relay(const Envelope& env) {
  const auto* relay = body_as<msg::Relay>(env);
  if (relay == nullptr) throw std::logic_error("Mss::handle_relay: bad relay body");
  net_.relay_to_mh(id_, *relay);
}

void Mss::remove_local(MhId mh) {
  net_.cell_record(id_, mh).local = false;
  net_.for_each_agent(id_, [mh](MssAgent& agent) { agent.on_mh_left(mh); });
}

}  // namespace mobidist::net
