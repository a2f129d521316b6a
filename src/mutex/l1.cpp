#include "mutex/l1.hpp"

namespace mobidist::mutex {

using net::Envelope;
using net::MhId;

/// Per-MH participant: wraps a LamportEngine whose transport is the
/// MH-to-MH relay (FIFO mode). Sends attempted while the host is between
/// cells are parked until the next join (MhAgent::when_connected).
class L1Mutex::Agent : public net::MhAgent {
 public:
  Agent(std::uint32_t self, std::uint32_t n, CsMonitor& monitor, MutexOptions opts)
      : engine_(self, n), monitor_(monitor), opts_(opts) {
    engine_.set_send([this](std::uint32_t peer, const LamportMsg& msg) {
      when_connected(
          [this, peer, msg] { send_to_mh(static_cast<MhId>(peer), msg, /*fifo=*/true); });
    });
    engine_.set_on_acquired([this](std::uint64_t req_id, std::uint64_t ts) {
      enter_cs(req_id, ts);
    });
  }

  void local_request() {
    when_connected([this] { engine_.submit(next_req_id_++); });
  }

  void on_message(const Envelope& env) override {
    const auto* msg = net::body_as<LamportMsg>(env);
    if (msg == nullptr) return;
    engine_.on_message(net::index(env.src.mh()), *msg);
  }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  void enter_cs(std::uint64_t req_id, std::uint64_t ts) {
    // Order key: (timestamp, participant) — the total order Lamport's
    // algorithm serves requests in.
    const std::uint64_t key = (ts << 20) | net::index(self());
    const std::size_t grant = monitor_.enter(self(), key, net().sched().now());
    net().sched().schedule(opts_.cs_hold, [this, req_id, grant] {
      monitor_.exit(grant, net().sched().now());
      when_connected([this, req_id] {
        engine_.release(req_id);
        ++completed_;
      });
    });
  }

  LamportEngine engine_;
  CsMonitor& monitor_;
  MutexOptions opts_;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t completed_ = 0;
};

L1Mutex::L1Mutex(net::Network& net, CsMonitor& monitor, MutexOptions opts)
    : net_(net), monitor_(monitor) {
  monitor.bind_metrics(net.metrics());
  monitor.bind_stream(net.events(), "L1");
  const std::uint32_t n = net.num_mh();
  agents_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto agent = std::make_shared<Agent>(i, n, monitor, opts);
    agents_.push_back(agent);
    net.mh(static_cast<MhId>(i)).register_agent(net::protocol::kMutexL1, agent);
  }
}

void L1Mutex::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  agents_[net::index(mh)]->local_request();
}

std::uint64_t L1Mutex::completed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& agent : agents_) total += agent->completed();
  return total;
}

}  // namespace mobidist::mutex
