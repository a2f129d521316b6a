#include "group/pure_search.hpp"

#include <stdexcept>

namespace mobidist::group {

using net::Envelope;
using net::MhId;

namespace {
/// The group payload: id + original sender (dedup key and attribution).
struct GroupMsg {
  std::uint64_t msg_id = 0;
  MhId sender = net::kInvalidMh;
};
}  // namespace

class PureSearchGroup::Agent : public net::MhAgent {
 public:
  Agent(PureSearchGroup& owner) : owner_(owner) {}

  void send(std::uint64_t msg_id) {
    when_connected([this, msg_id] {
      for (const auto member : owner_.group_.members) {
        if (member == self()) continue;
        send_to_mh(member, GroupMsg{msg_id, self()}, /*fifo=*/false);
      }
    });
  }

  void on_message(const Envelope& env) override {
    const auto* msg = net::body_as<GroupMsg>(env);
    if (msg == nullptr) return;
    owner_.monitor_.delivered(msg->msg_id, self());
  }

 private:
  PureSearchGroup& owner_;
};

PureSearchGroup::PureSearchGroup(net::Network& net, Group group, net::ProtocolId proto)
    : net_(net),
      group_(std::move(group)),
      proto_(proto),
      group_msgs_(net.metrics().counter("group.pure_search.group_msgs")) {
  agents_.reserve(group_.size());
  for (const auto member : group_.members) {
    net.mh(member).register_agent(proto, &agents_.emplace_back(*this));
  }
}

PureSearchGroup::~PureSearchGroup() = default;

std::uint64_t PureSearchGroup::send_group_message(MhId sender) {
  if (!group_.contains(sender)) {
    throw std::invalid_argument("PureSearchGroup: sender is not a member");
  }
  const std::uint64_t msg_id = next_msg_++;
  ++group_msgs_;
  monitor_.sent(msg_id, sender);
  static_cast<Agent*>(net_.mh(sender).agent(proto_))->send(msg_id);
  return msg_id;
}

}  // namespace mobidist::group
