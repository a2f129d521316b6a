#include "mutex/r1.hpp"

namespace mobidist::mutex {

using net::Envelope;
using net::MhId;

/// Ring participant: wait for token; enter CS if a request is pending;
/// forward to the successor. Forwarding while between cells waits for
/// the next join (the sender cannot transmit in transit).
class R1Mutex::Agent : public net::MhAgent {
 public:
  Agent(R1Mutex& owner, std::uint32_t self_index, std::uint32_t n, CsMonitor& monitor,
        MutexOptions opts)
      : owner_(owner), index_(self_index), n_(n), monitor_(monitor), opts_(opts) {}

  void want_cs() { wants_ = true; }

  void inject(std::uint64_t traversals_target) {
    (void)traversals_target;
    handle_token(R1Token{0});
  }

  void on_message(const Envelope& env) override {
    const auto* token = net::body_as<R1Token>(env);
    if (token == nullptr) return;
    handle_token(*token);
  }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  void handle_token(R1Token token) {
    const auto arrive_id = net().emit({.kind = obs::EventKind::kTokenArrive,
                                       .entity = net::entity_of(self()),
                                       .arg = token.traversal,
                                       .detail = "R1"});
    if (index_ == 0 && token.traversal > 0 &&
        owner_.traversals_done_ < token.traversal) {
      owner_.traversals_done_ = token.traversal;
      if (token.traversal >= owner_.target_traversals_) {
        owner_.absorbed_ = true;  // stop circulating
        return;
      }
    }
    if (wants_) {
      wants_ = false;
      // Order key: traversal-major, position-minor — the ring's service
      // order within a loop.
      const std::uint64_t key = (token.traversal << 24) | index_;
      const std::size_t grant = monitor_.enter(self(), key, net().sched().now());
      net().sched().schedule(opts_.cs_hold, [this, grant, arrive_id, token] {
        obs::CauseScope scope(net().events(), arrive_id);
        monitor_.exit(grant, net().sched().now());
        ++completed_;
        forward(token);
      });
      return;
    }
    forward(token);
  }

  void forward(R1Token token) {
    const std::uint32_t successor = (index_ + 1) % n_;
    if (successor == 0) ++token.traversal;  // loop completes when it re-reaches MH 0
    when_connected([this, successor, token] {
      net().emit({.kind = obs::EventKind::kTokenDepart,
                  .entity = net::entity_of(self()),
                  .peer = obs::Entity::mh(successor),
                  .arg = token.traversal,
                  .detail = "R1"});
      send_to_mh(static_cast<MhId>(successor), token, /*fifo=*/false);
    });
  }

  R1Mutex& owner_;
  std::uint32_t index_;
  std::uint32_t n_;
  CsMonitor& monitor_;
  MutexOptions opts_;
  bool wants_ = false;
  std::uint64_t completed_ = 0;
};

R1Mutex::R1Mutex(net::Network& net, CsMonitor& monitor, MutexOptions opts)
    : net_(net), monitor_(monitor) {
  monitor.bind_metrics(net.metrics());
  monitor.bind_stream(net.events(), "R1");
  const std::uint32_t n = net.num_mh();
  agents_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto& agent = agents_.emplace_back(*this, i, n, monitor, opts);
    net.mh(static_cast<MhId>(i)).register_agent(net::protocol::kMutexR1, &agent);
  }
}

R1Mutex::~R1Mutex() = default;

void R1Mutex::start_token(std::uint64_t traversals) {
  target_traversals_ = traversals;
  agents_[0].inject(traversals);
}

void R1Mutex::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  agents_[net::index(mh)].want_cs();
}

std::uint64_t R1Mutex::completed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& agent : agents_) total += agent.completed();
  return total;
}

std::uint64_t R1Mutex::traversals_done() const noexcept { return traversals_done_; }

}  // namespace mobidist::mutex
