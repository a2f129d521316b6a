#include "multicast/multicast.hpp"

#include <algorithm>
#include <set>

namespace mobidist::multicast {

using net::Envelope;
using net::MhId;
using net::MssId;

namespace {

/// One multicast message: (source, seq) is the dedup key; msg_id is the
/// monitor's global identifier.
struct McastData {
  MssId source = net::kInvalidMss;
  std::uint64_t seq = 0;
  std::uint64_t msg_id = 0;
};

/// Per-recipient delivery watermarks, keyed by source index. This is the
/// state that rides the handoff.
struct Watermarks {
  std::map<std::uint32_t, std::uint64_t> delivered_up_to;
};

}  // namespace

class McastService::StationAgent : public net::MssAgent {
 public:
  explicit StationAgent(McastService& owner) : owner_(owner) {}

  /// Setup-time registration of an initially-placed recipient.
  void seed(MhId mh) { watermarks_[mh]; }

  void publish_local(std::uint64_t msg_id) {
    const std::uint64_t seq = ++next_seq_;
    const McastData data{self(), seq, msg_id};
    accept(data);
    for (std::uint32_t i = 0; i < net().num_mss(); ++i) {
      const auto dest = static_cast<MssId>(i);
      if (dest == self()) continue;
      send_wired(dest, data);
    }
  }

  void on_message(const Envelope& env) override {
    const auto* data = net::body_as<McastData>(env);
    if (data == nullptr) return;
    accept(*data);
  }

  void on_mh_joined(MhId mh, MssId prev) override {
    if (!owner_.recipients_.contains(mh)) return;
    if (prev != net::kInvalidMss && prev != self()) {
      // Wait for the watermark to arrive with the handoff; replaying the
      // full log now would flood the MH with duplicates.
      awaiting_watermark_.insert(mh);
      return;
    }
    // First join (setup) — deliver the whole history.
    watermarks_[mh];  // default zeros
    deliver_pending(mh);
  }

  net::Body on_handoff_out(MhId mh) override {
    if (!owner_.recipients_.contains(mh)) return {};
    Watermarks state;
    if (const auto it = watermarks_.find(mh); it != watermarks_.end()) {
      state = it->second;
      watermarks_.erase(it);
    }
    return state;
  }

  void on_handoff_in(MhId mh, MssId /*from*/, const net::Body& state) override {
    const auto* marks = state.get<Watermarks>();
    if (marks == nullptr) return;
    watermarks_[mh] = *marks;
    awaiting_watermark_.erase(mh);
    if (net().mh(mh).current_mss() == self()) deliver_pending(mh);
  }

  void on_local_send_failed(MhId mh, const net::Body& body) override {
    // The recipient left mid-burst: roll its watermark back so the next
    // MSS (via handoff) resumes from the first undelivered message.
    const auto* data = body.get<McastData>();
    if (data == nullptr) return;
    const auto it = watermarks_.find(mh);
    if (it == watermarks_.end()) return;
    auto& mark = it->second.delivered_up_to[net::index(data->source)];
    mark = std::min(mark, data->seq - 1);
  }

  [[nodiscard]] std::size_t log_size() const noexcept { return log_.size(); }

 private:
  void accept(const McastData& data) {
    log_.push_back(data);
    for (const auto& [mh, marks] : watermarks_) {
      (void)marks;
      if (net().mh(mh).current_mss() == self()) deliver_pending(mh);
    }
  }

  void deliver_pending(MhId mh) {
    auto& marks = watermarks_[mh];
    // Replay, per source, everything beyond the watermark, in log order.
    for (const auto& data : log_) {
      auto& mark = marks.delivered_up_to[net::index(data.source)];
      if (data.seq <= mark) continue;
      mark = data.seq;  // optimistic; rolled back by on_local_send_failed
      send_local(mh, data);
    }
  }

  McastService& owner_;
  std::uint64_t next_seq_ = 0;
  std::vector<McastData> log_;
  std::map<MhId, Watermarks> watermarks_;
  std::set<MhId> awaiting_watermark_;
};

class McastService::HostAgent : public net::MhAgent {
 public:
  explicit HostAgent(McastService& owner) : owner_(owner) {}

  void on_message(const Envelope& env) override {
    const auto* data = net::body_as<McastData>(env);
    if (data == nullptr) return;
    auto& mark = seen_up_to_[net::index(data->source)];
    if (data->seq <= mark) {
      owner_.monitor_.duplicate();
      return;
    }
    mark = data->seq;
    owner_.monitor_.delivered(data->msg_id, self());
  }

 private:
  McastService& owner_;
  std::map<std::uint32_t, std::uint64_t> seen_up_to_;
};

McastService::McastService(net::Network& net, group::Group recipients, net::ProtocolId proto)
    : net_(net), recipients_(std::move(recipients)), proto_(proto) {
  stations_.reserve(net.num_mss());
  for (std::uint32_t i = 0; i < net.num_mss(); ++i) {
    net.mss(static_cast<MssId>(i)).register_agent(proto, &stations_.emplace_back(*this));
  }
  hosts_.reserve(recipients_.size());
  for (const auto recipient : recipients_.members) {
    net.mh(recipient).register_agent(proto, &hosts_.emplace_back(*this));
  }
  for (const auto recipient : recipients_.members) {
    const auto at = net.mh(recipient).last_mss();
    // Direct seeding mirrors Network's placement (no protocol traffic).
    stations_[net::index(at)].seed(recipient);
  }
}

McastService::~McastService() = default;

std::uint64_t McastService::publish(net::MssId source) {
  const std::uint64_t msg_id = next_msg_id_++;
  // The monitor treats the source MSS as "no sender MH": every recipient
  // must get it exactly once.
  monitor_.sent(msg_id, net::kInvalidMh);
  stations_[net::index(source)].publish_local(msg_id);
  return msg_id;
}

std::size_t McastService::log_size(net::MssId at) const {
  return stations_[net::index(at)].log_size();
}

}  // namespace mobidist::multicast
