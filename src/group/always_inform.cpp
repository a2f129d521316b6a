#include "group/always_inform.hpp"

#include <any>
#include <stdexcept>
#include <map>

namespace mobidist::group {

using net::Envelope;
using net::MhId;
using net::MssId;

namespace {

struct GroupMsg {
  std::uint64_t msg_id = 0;
  MhId sender = net::kInvalidMh;
};

struct LocUpdate {
  MhId mover = net::kInvalidMh;
  MssId new_mss = net::kInvalidMss;
};

/// Source-routed unit: "send to dst_mh via dst_mss" (the LD(G) lookup
/// already happened at the sender).
struct Directed {
  MhId dst_mh = net::kInvalidMh;
  MssId dst_mss = net::kInvalidMss;
  net::Body inner;  // GroupMsg or LocUpdate
};

}  // namespace

/// Member-side: holds LD(G), sends group messages and move updates.
class AlwaysInformGroup::HostAgent : public net::MhAgent {
 public:
  explicit HostAgent(AlwaysInformGroup& owner) : owner_(owner) {}

  void on_start() override {
    // Seed the directory from the initial placement (setup knowledge,
    // like the membership list itself).
    for (const auto member : owner_.group_.members) {
      directory_[member] = net().mh(member).last_mss();
    }
  }

  void send_group(std::uint64_t msg_id) {
    when_connected([this, msg_id] { fan_out(net::Body(GroupMsg{msg_id, self()})); });
  }

  void on_message(const Envelope& env) override {
    if (const auto* msg = net::body_as<GroupMsg>(env)) {
      owner_.monitor_.delivered(msg->msg_id, self());
      return;
    }
    if (const auto* update = net::body_as<LocUpdate>(env)) {
      directory_[update->mover] = update->new_mss;
      return;
    }
  }

  void on_joined_cell(MssId mss) override {
    directory_[self()] = mss;
    // "After a move, a MH sends a location update message to the current
    // location of each group member."
    ++owner_.loc_updates_;
    net().emit({.kind = obs::EventKind::kLocationUpdate,
                .entity = net::entity_of(self()),
                .peer = net::entity_of(mss),
                .detail = "always_inform"});
    // The parked group messages go out after this hook returns, so they
    // follow the location updates.
    fan_out(net::Body(LocUpdate{self(), mss}));
  }

 private:
  /// One Directed uplink per other member: 2*c_wireless + c_fixed each.
  void fan_out(const net::Body& inner) {
    for (const auto member : owner_.group_.members) {
      if (member == self()) continue;
      send_uplink(Directed{member, directory_[member], inner});
    }
  }

  AlwaysInformGroup& owner_;
  std::map<MhId, MssId> directory_;  ///< LD(G)
};

/// MSS-side: pure forwarding of Directed units plus the footnote-1 chase
/// when the directory entry was stale.
class AlwaysInformGroup::StationAgent : public net::MssAgent {
 public:
  explicit StationAgent(AlwaysInformGroup& owner) : owner_(owner) {}

  void on_message(const Envelope& env) override {
    const auto* directed = net::body_as<Directed>(env);
    if (directed == nullptr) return;
    if (directed->dst_mss != self()) {
      // First leg: relay over the fixed network to the recorded MSS.
      send_wired(directed->dst_mss, *directed);
      return;
    }
    // Final leg: one wireless hop. Stale entries fail over to a chase.
    send_local(directed->dst_mh, directed->inner);
  }

  void on_local_send_failed(MhId mh, const net::Body& body) override {
    ++owner_.stale_chases_;
    send_to_mh(mh, body, net::SendPolicy::kEventualDelivery);
  }

 private:
  AlwaysInformGroup& owner_;
};

AlwaysInformGroup::AlwaysInformGroup(net::Network& net, Group group, net::ProtocolId proto)
    : net_(net),
      group_(std::move(group)),
      loc_updates_(net.metrics().counter("group.always_inform.loc_updates")),
      stale_chases_(net.metrics().counter("group.always_inform.stale_chases")) {
  for (std::uint32_t i = 0; i < net.num_mss(); ++i) {
    net.mss(static_cast<MssId>(i))
        .register_agent(proto, std::make_shared<StationAgent>(*this));
  }
  host_agents_.resize(net.num_mh());
  for (const auto member : group_.members) {
    auto agent = std::make_shared<HostAgent>(*this);
    host_agents_[net::index(member)] = agent;
    net.mh(member).register_agent(proto, agent);
  }
}

std::uint64_t AlwaysInformGroup::send_group_message(MhId sender) {
  if (!group_.contains(sender)) {
    throw std::invalid_argument("AlwaysInformGroup: sender is not a member");
  }
  const std::uint64_t msg_id = next_msg_++;
  monitor_.sent(msg_id, sender);
  host_agents_[net::index(sender)]->send_group(msg_id);
  return msg_id;
}

}  // namespace mobidist::group
