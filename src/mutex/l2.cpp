#include "mutex/l2.hpp"

#include <map>

namespace mobidist::mutex {

using net::Envelope;
using net::MhId;
using net::MssId;

/// MSS-side participant: runs the Lamport engine over the wired mesh on
/// behalf of local MHs' requests.
class L2Mutex::StationAgent : public net::MssAgent {
 public:
  StationAgent(std::uint32_t self, std::uint32_t m, CsMonitor& monitor)
      : engine_(self, m), monitor_(monitor) {
    engine_.set_send([this](std::uint32_t peer, const LamportMsg& msg) {
      send_wired(static_cast<MssId>(peer), L2Wire{msg});
    });
    engine_.set_on_acquired([this](std::uint64_t req_id, std::uint64_t ts) {
      grant(req_id, ts);
    });
  }

  void on_message(const Envelope& env) override {
    if (const auto* wire = net::body_as<L2Wire>(env)) {
      engine_.on_message(net::index(env.src.mss()), wire->msg);
      return;
    }
    if (const auto* init = net::body_as<L2Init>(env)) {
      // Timestamp the request on receipt of init() — this is "the
      // timestamp of hl's request" in the paper's correctness argument.
      const std::uint64_t req_id = next_req_id_++;
      pending_.emplace(req_id, init->mh);
      engine_.submit(req_id);
      return;
    }
    if (const auto* release = net::body_as<L2ReleaseResource>(env)) {
      if (release->home == self()) {
        finish(release->req_id);
      } else {
        // Relay the MH's release-resource to its home MSS (c_fixed).
        send_wired(release->home, *release);
      }
      return;
    }
  }

  /// Grant-request bounced: the MH disconnected before it arrived. Per
  /// the paper the request cannot be satisfied; release on its behalf.
  void on_mh_unreachable(MhId /*mh*/, const net::Body& body) override {
    const auto* grant_msg = body.get<L2Grant>();
    if (grant_msg == nullptr) return;
    if (pending_.erase(grant_msg->req_id) > 0) {
      ++aborted_;
      engine_.release(grant_msg->req_id);
    }
  }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t aborted() const noexcept { return aborted_; }
  [[nodiscard]] std::size_t queue_size() const noexcept { return engine_.queue_size(); }

 private:
  void grant(std::uint64_t req_id, std::uint64_t ts) {
    const auto it = pending_.find(req_id);
    if (it == pending_.end()) return;  // aborted concurrently
    // The MH may have moved since init(): locate it (c_search) and make
    // the disconnect case come back to us instead of parking forever.
    send_to_mh(it->second, L2Grant{req_id, self(), ts},
               net::SendPolicy::kNotifyIfDisconnected);
  }

  void finish(std::uint64_t req_id) {
    if (pending_.erase(req_id) == 0) return;  // duplicate release
    ++completed_;
    engine_.release(req_id);
  }

  LamportEngine engine_;
  CsMonitor& monitor_;
  std::map<std::uint64_t, MhId> pending_;  ///< req_id -> initiating MH
  std::uint64_t next_req_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
};

/// MH-side participant: init on request, enter/hold/release on grant.
class L2Mutex::HostAgent : public net::MhAgent {
 public:
  HostAgent(CsMonitor& monitor, MutexOptions opts) : monitor_(monitor), opts_(opts) {}

  void local_request() {
    when_connected([this] { send_uplink(L2Init{self()}); });
  }

  void on_message(const Envelope& env) override {
    const auto* grant_msg = net::body_as<L2Grant>(env);
    if (grant_msg == nullptr) return;
    // Order key: (lamport ts, home) — the global order the paper's
    // correctness argument promises grants follow.
    const std::uint64_t key = (grant_msg->ts << 20) | net::index(grant_msg->home);
    const std::size_t grant = monitor_.enter(self(), key, net().sched().now());
    net().sched().schedule(opts_.cs_hold, [this, grant, msg = *grant_msg] {
      monitor_.exit(grant, net().sched().now());
      // If we disconnected during the hold, the release goes out when we
      // reconnect (the paper: "L2 requires that it reconnect to send the
      // release-resource message").
      when_connected(
          [this, msg] { send_uplink(L2ReleaseResource{msg.req_id, msg.home}); });
    });
  }

 private:
  CsMonitor& monitor_;
  MutexOptions opts_;
};

L2Mutex::L2Mutex(net::Network& net, CsMonitor& monitor, MutexOptions opts)
    : net_(net), monitor_(monitor) {
  monitor.bind_metrics(net.metrics());
  monitor.bind_stream(net.events(), "L2");
  const std::uint32_t m = net.num_mss();
  stations_.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    auto& agent = stations_.emplace_back(i, m, monitor);
    net.mss(static_cast<MssId>(i)).register_agent(net::protocol::kMutexL2, &agent);
  }
  hosts_.reserve(net.num_mh());
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) {
    auto& agent = hosts_.emplace_back(monitor, opts);
    net.mh(static_cast<MhId>(i)).register_agent(net::protocol::kMutexL2, &agent);
  }
}

L2Mutex::~L2Mutex() = default;

void L2Mutex::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  hosts_[net::index(mh)].local_request();
}

std::uint64_t L2Mutex::completed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& station : stations_) total += station.completed();
  return total;
}

std::uint64_t L2Mutex::aborted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& station : stations_) total += station.aborted();
  return total;
}

}  // namespace mobidist::mutex
