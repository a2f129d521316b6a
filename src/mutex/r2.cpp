#include "mutex/r2.hpp"

#include <algorithm>
#include <deque>

namespace mobidist::mutex {

using net::Envelope;
using net::MhId;
using net::MssId;

/// MSS ring node: request queue, grant queue, token handling.
class R2Mutex::StationAgent : public net::MssAgent {
 public:
  StationAgent(R2Mutex& owner, std::uint32_t index, std::uint32_t m)
      : owner_(owner), index_(index), m_(m) {}

  void on_message(const Envelope& env) override {
    if (const auto* request = net::body_as<R2Request>(env)) {
      requests_.push_back(*request);
      return;
    }
    if (const auto* pass = net::body_as<R2TokenPass>(env)) {
      receive_token(pass->token);
      return;
    }
    if (const auto* ret = net::body_as<R2TokenReturn>(env)) {
      if (ret->home == self()) {
        net().emit({.kind = obs::EventKind::kTokenArrive,
                    .entity = net::entity_of(self()),
                    .arg = token_.token_val,
                    .detail = owner_.variant_label()});
        token_out_ = false;
        serve_next();
      } else {
        // Relay the return from the MH's current cell to the token's
        // home MSS (the c_fixed leg of the 3*c_w + c_f + c_s request cost).
        send_wired(ret->home, *ret);
      }
      return;
    }
  }

  /// The token chased a disconnected MH: its flag-holding MSS returns it
  /// (we model that return as one fixed-network message, as the paper
  /// describes) and the ring moves on.
  void on_mh_unreachable(MhId /*mh*/, const net::Body& body) override {
    const auto* grant = body.get<R2TokenToMh>();
    if (grant == nullptr) return;
    ++owner_.skipped_disconnected_counter_;
    net().ledger().charge_fixed();  // the modeled token-return message
    net().emit({.kind = obs::EventKind::kTokenArrive,
                .entity = net::entity_of(self()),
                .arg = grant->token_val,
                .detail = owner_.variant_label()});
    token_out_ = false;
    serve_next();
  }

  void inject(R2Token token) { receive_token(std::move(token)); }

  [[nodiscard]] std::size_t queued() const noexcept {
    return requests_.size() + grants_.size();
  }

 private:
  void receive_token(R2Token token) {
    net().emit({.kind = obs::EventKind::kTokenArrive,
                .entity = net::entity_of(self()),
                .arg = token.token_val,
                .detail = owner_.variant_label()});
    if (index_ == 0 && !injected_done_) {
      injected_done_ = true;  // first arrival is the injection, not a loop
    } else if (index_ == 0) {
      ++token.token_val;  // completed one traversal
      owner_.traversals_done_ = token.token_val - 1;
      if (owner_.traversals_done_ >= owner_.target_traversals_) {
        owner_.absorbed_ = true;
        return;
      }
    }
    token_ = std::move(token);
    holding_ = true;
    if (owner_.variant_ == RingVariant::kTokenList) {
      // "On arrival of the token, M deletes all pairs from token_list
      // whose first element is M."
      std::erase_if(token_.served, [this](const auto& pair) { return pair.first == index_; });
    }
    // Move eligible pending requests to the grant queue — only now, at
    // token arrival (later arrivals wait for the next traversal).
    std::deque<R2Request> keep;
    for (const auto& request : requests_) {
      if (eligible(request)) {
        grants_.push_back(request);
      } else {
        keep.push_back(request);
      }
    }
    requests_ = std::move(keep);
    serve_next();
  }

  [[nodiscard]] bool eligible(const R2Request& request) const {
    switch (owner_.variant_) {
      case RingVariant::kBasic:
        return true;
      case RingVariant::kCounter:
        // R2': served this traversal already iff access_count caught up
        // with token_val.
        return request.access_count < token_.token_val;
      case RingVariant::kTokenList:
        return std::none_of(token_.served.begin(), token_.served.end(),
                            [&](const auto& pair) {
                              return pair.second == net::index(request.mh);
                            });
    }
    return true;
  }

  void serve_next() {
    if (!holding_ || token_out_) return;
    if (grants_.empty()) {
      pass_token();
      return;
    }
    const R2Request request = grants_.front();
    grants_.pop_front();
    // Label before recording: a repeat within this traversal must be
    // visible to grant_label's stale-snapshot detection.
    const char* label = owner_.grant_label(request.mh, token_.token_val);
    owner_.record_grant(token_.token_val, request.mh);
    if (owner_.variant_ == RingVariant::kTokenList) {
      token_.served.emplace_back(index_, net::index(request.mh));
    }
    token_out_ = true;
    net().emit({.kind = obs::EventKind::kTokenDepart,
                .entity = net::entity_of(self()),
                .peer = net::entity_of(request.mh),
                .arg = token_.token_val,
                .detail = label});
    // "sends the token to the MH that made the request (which may
    // necessitate a search if the MH has changed its cell)".
    send_to_mh(request.mh, R2TokenToMh{token_.token_val, self()},
               net::SendPolicy::kNotifyIfDisconnected);
  }

  void pass_token() {
    holding_ = false;
    if (owner_.absorb_when_idle_ && owner_.all_queues_empty()) {
      owner_.absorbed_ = true;
      owner_.traversals_done_ = token_.token_val;  // loops started so far
      return;
    }
    const auto successor = static_cast<MssId>((index_ + 1) % m_);
    ++owner_.token_passes_counter_;
    net().emit({.kind = obs::EventKind::kTokenDepart,
                .entity = net::entity_of(self()),
                .peer = net::entity_of(successor),
                .arg = token_.token_val,
                .detail = owner_.variant_label()});
    send_wired(successor, R2TokenPass{token_});
  }

  R2Mutex& owner_;
  std::uint32_t index_;
  std::uint32_t m_;
  std::deque<R2Request> requests_;
  std::deque<R2Request> grants_;
  R2Token token_;
  bool holding_ = false;
  bool token_out_ = false;     ///< token is visiting a MH right now
  bool injected_done_ = false;
};

/// MH participant: submit requests, use the token, hand it back.
class R2Mutex::HostAgent : public net::MhAgent {
 public:
  HostAgent(R2Mutex& owner, CsMonitor& monitor, MutexOptions opts)
      : owner_(owner), monitor_(monitor), opts_(opts) {}

  void local_request() {
    when_connected([this] {
      const std::uint64_t reported = malicious_ ? 0 : access_count_;
      send_uplink(R2Request{self(), reported});
    });
  }

  void set_malicious(bool value) noexcept { malicious_ = value; }

  void on_message(const Envelope& env) override {
    const auto* token = net::body_as<R2TokenToMh>(env);
    if (token == nullptr) return;
    // "When a MH receives the token, it assigns the current value of
    // token_val to its copy of access_count."
    access_count_ = token->token_val;
    const auto arrive_id = net().emit({.kind = obs::EventKind::kTokenArrive,
                                       .entity = net::entity_of(self()),
                                       .arg = token->token_val,
                                       .detail = owner_.variant_label()});
    const std::size_t grant = monitor_.enter(self(), token->token_val, net().sched().now());
    net().sched().schedule(opts_.cs_hold, [this, grant, arrive_id, home = token->from,
                                           val = token->token_val] {
      obs::CauseScope scope(net().events(), arrive_id);
      monitor_.exit(grant, net().sched().now());
      ++owner_.completed_;
      when_connected([this, home, val] {
        net().emit({.kind = obs::EventKind::kTokenDepart,
                    .entity = net::entity_of(self()),
                    .peer = net::entity_of(home),
                    .arg = val,
                    .detail = owner_.variant_label()});
        send_uplink(R2TokenReturn{home});
      });
    });
  }

 private:
  R2Mutex& owner_;
  CsMonitor& monitor_;
  MutexOptions opts_;
  std::uint64_t access_count_ = 0;
  bool malicious_ = false;
};

R2Mutex::R2Mutex(net::Network& net, CsMonitor& monitor, RingVariant variant,
                 MutexOptions opts)
    : net_(net),
      monitor_(monitor),
      variant_(variant),
      token_passes_counter_(net.metrics().counter("mutex.r2.token_passes")),
      token_grants_counter_(net.metrics().counter("mutex.r2.token_grants")),
      skipped_disconnected_counter_(net.metrics().counter("mutex.r2.skipped_disconnected")) {
  monitor.bind_metrics(net.metrics());
  monitor.bind_stream(net.events(), variant_label());
  const std::uint32_t m = net.num_mss();
  stations_.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    auto agent = std::make_shared<StationAgent>(*this, i, m);
    stations_.push_back(agent);
    net.mss(static_cast<MssId>(i)).register_agent(net::protocol::kMutexR2, agent);
  }
  hosts_.reserve(net.num_mh());
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) {
    auto agent = std::make_shared<HostAgent>(*this, monitor, opts);
    hosts_.push_back(agent);
    net.mh(static_cast<MhId>(i)).register_agent(net::protocol::kMutexR2, agent);
  }
}

void R2Mutex::start_token(std::uint64_t max_traversals) {
  target_traversals_ = max_traversals;
  stations_[0]->inject(R2Token{});
}

void R2Mutex::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  hosts_[net::index(mh)]->local_request();
}

void R2Mutex::set_malicious(MhId mh, bool value) {
  if (value) any_malicious_ = true;
  hosts_[net::index(mh)]->set_malicious(value);
}

const char* R2Mutex::variant_label() const noexcept {
  switch (variant_) {
    case RingVariant::kBasic: return "R2";
    case RingVariant::kCounter: return "R2'";
    case RingVariant::kTokenList: return "R2''";
  }
  return "R2";
}

const char* R2Mutex::grant_label(net::MhId mh, std::uint64_t token_val) const {
  if (variant_ == RingVariant::kCounter) {
    if (any_malicious_) return "R2'!";
    if (grants_for(mh, token_val) > 0) return "R2'~";  // stale-snapshot repeat
  }
  return variant_label();
}

void R2Mutex::record_grant(std::uint64_t token_val, MhId mh) {
  ++token_grants_counter_;
  ++grant_counts_[{token_val, net::index(mh)}];
}

bool R2Mutex::all_queues_empty() const {
  for (const auto& station : stations_) {
    if (station->queued() != 0) return false;
  }
  return true;
}

std::uint64_t R2Mutex::grants_for(MhId mh, std::uint64_t token_val) const {
  const auto it = grant_counts_.find({token_val, net::index(mh)});
  return it == grant_counts_.end() ? 0 : it->second;
}

}  // namespace mobidist::mutex
