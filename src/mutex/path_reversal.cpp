#include "mutex/path_reversal.hpp"

namespace mobidist::mutex {

using net::Envelope;
using net::MhId;
using net::MssId;

/// Tree node: owns this MSS's PathRevEngine and translates its hooks
/// into wired messages + obs events.
class PathRevMutex::StationAgent : public net::MssAgent {
 public:
  StationAgent(PathRevMutex& owner, std::uint32_t index)
      : owner_(owner),
        engine_(index, /*has_token=*/index == 0,
                index == 0 ? PathRevEngine::kNoNode : 0,
                PathRevEngine::Hooks{
                    [this](std::uint32_t to, std::uint32_t origin) {
                      forward_claim(to, origin);
                    },
                    [this](std::uint32_t to) { send_token(to); },
                    [this](MhId mh) { grant(mh); },
                    [this](std::uint32_t new_father) { reversed(new_father); },
                }) {}

  void on_start() override {
    if (!engine_.token_here()) return;
    // The injection: the conservation checker's first sighting.
    net().emit({.kind = obs::EventKind::kTokenArrive,
                .entity = net::entity_of(self()),
                .arg = 0,
                .detail = owner_.label()});
  }

  void on_message(const Envelope& env) override {
    if (const auto* request = net::body_as<PathRevRequest>(env)) {
      engine_.local_request(request->mh);
      return;
    }
    if (const auto* claim = net::body_as<PathRevClaim>(env)) {
      engine_.on_claim(net::index(claim->origin));
      return;
    }
    if (const auto* pass = net::body_as<PathRevTokenPass>(env)) {
      net().emit({.kind = obs::EventKind::kTokenArrive,
                  .entity = net::entity_of(self()),
                  .arg = pass->serial,
                  .detail = owner_.label()});
      engine_.on_token();
      return;
    }
    if (const auto* ret = net::body_as<PathRevReturn>(env)) {
      if (ret->home == self()) {
        net().emit({.kind = obs::EventKind::kTokenArrive,
                    .entity = net::entity_of(self()),
                    .arg = ret->serial,
                    .detail = owner_.label()});
        engine_.grant_done();
      } else {
        // Relay the return from the MH's current cell to the granting
        // MSS (the c_fixed leg of the 3*c_w + c_f + c_s request cost).
        send_wired(ret->home, *ret);
      }
      return;
    }
  }

  /// The grant chased a disconnected MH: model the token's return as one
  /// fixed-network message (as the paper does for R2) and move on.
  void on_mh_unreachable(MhId /*mh*/, const net::Body& body) override {
    const auto* grant = body.get<PathRevGrant>();
    if (grant == nullptr) return;
    ++owner_.skipped_disconnected_counter_;
    net().ledger().charge_fixed();  // the modeled token-return message
    net().emit({.kind = obs::EventKind::kTokenArrive,
                .entity = net::entity_of(self()),
                .arg = grant->serial,
                .detail = owner_.label()});
    engine_.grant_done();
  }

  /// The MH re-files at its next cell (normal move or crash evacuation);
  /// drop its entries here so one request never queues twice for long.
  void on_mh_left(MhId mh) override { withdraw(mh); }

  /// A MH that disconnected here reconnected elsewhere: same as a leave
  /// for the purposes of the request queue.
  void on_disconnected_mh_migrated(MhId mh, MssId /*new_mss*/) override { withdraw(mh); }

  [[nodiscard]] const PathRevEngine& engine() const noexcept { return engine_; }

 private:
  void withdraw(MhId mh) {
    const auto n = engine_.withdraw(mh);
    owner_.rehomed_counter_ += n;
  }

  void forward_claim(std::uint32_t to, std::uint32_t origin) {
    ++owner_.claim_hops_counter_;
    net().emit({.kind = obs::EventKind::kReqForward,
                .entity = net::entity_of(self()),
                .peer = obs::Entity::mss(to),
                .arg = origin,
                .detail = owner_.label()});
    send_wired(static_cast<MssId>(to), PathRevClaim{static_cast<MssId>(origin)});
  }

  void send_token(std::uint32_t to) {
    const std::uint64_t serial = ++owner_.transfers_;
    ++owner_.token_passes_counter_;
    net().emit({.kind = obs::EventKind::kTokenDepart,
                .entity = net::entity_of(self()),
                .peer = obs::Entity::mss(to),
                .arg = serial,
                .detail = owner_.label()});
    send_wired(static_cast<MssId>(to), PathRevTokenPass{serial});
  }

  void grant(MhId mh) {
    const std::uint64_t serial = ++owner_.transfers_;
    ++owner_.token_grants_counter_;
    net().emit({.kind = obs::EventKind::kTokenDepart,
                .entity = net::entity_of(self()),
                .peer = net::entity_of(mh),
                .arg = serial,
                .detail = owner_.label()});
    // "sends the token to the MH that made the request (which may
    // necessitate a search if the MH has changed its cell)".
    send_to_mh(mh, PathRevGrant{self(), serial}, net::SendPolicy::kNotifyIfDisconnected);
  }

  void reversed(std::uint32_t new_father) {
    ++owner_.path_reversals_counter_;
    net().emit({.kind = obs::EventKind::kPathReversal,
                .entity = net::entity_of(self()),
                .peer = obs::Entity::mss(new_father),
                .detail = owner_.label()});
  }

  PathRevMutex& owner_;
  PathRevEngine engine_;
};

/// MH participant: submit requests through the current cell, use the
/// token, hand it back. Keeps only a pending-request count — on every
/// cell join the count is re-filed uplink, which is what re-homes
/// requests across both ordinary moves and crash evacuation.
class PathRevMutex::HostAgent : public net::MhAgent {
 public:
  HostAgent(PathRevMutex& owner, CsMonitor& monitor, MutexOptions opts)
      : owner_(owner), monitor_(monitor), opts_(opts) {}

  void local_request() {
    ++pending_;
    // If disconnected or mid-move, on_joined_cell re-files the count.
    if (net().mh(self()).connected()) send_uplink(PathRevRequest{self()});
  }

  void on_message(const Envelope& env) override {
    const auto* grant = net::body_as<PathRevGrant>(env);
    if (grant == nullptr) return;
    const auto arrive_id = net().emit({.kind = obs::EventKind::kTokenArrive,
                                       .entity = net::entity_of(self()),
                                       .arg = grant->serial,
                                       .detail = owner_.label()});
    if (pending_ == 0) {
      // A re-filed copy of an already-served request reached the front:
      // bounce the token straight back without entering the CS.
      ++owner_.bounced_counter_;
      return_token(grant->home, grant->serial);
      return;
    }
    --pending_;
    const std::size_t cs = monitor_.enter(self(), grant->serial, net().sched().now());
    net().sched().schedule(
        opts_.cs_hold, [this, cs, arrive_id, home = grant->home, serial = grant->serial] {
          obs::CauseScope scope(net().events(), arrive_id);
          monitor_.exit(cs, net().sched().now());
          ++owner_.completed_;
          when_connected([this, home, serial] { return_token(home, serial); });
        });
  }

  void on_joined_cell(MssId) override {
    // A parked token return goes out before the re-filed requests.
    run_parked();
    // Re-home: the cell we left withdrew our queue entries (or crashed),
    // so every still-pending request is filed afresh at this cell.
    for (std::uint64_t i = 0; i < pending_; ++i) send_uplink(PathRevRequest{self()});
  }

 private:
  void return_token(MssId home, std::uint64_t serial) {
    net().emit({.kind = obs::EventKind::kTokenDepart,
                .entity = net::entity_of(self()),
                .peer = net::entity_of(home),
                .arg = serial,
                .detail = owner_.label()});
    send_uplink(PathRevReturn{home, serial});
  }

  PathRevMutex& owner_;
  CsMonitor& monitor_;
  MutexOptions opts_;
  std::uint64_t pending_ = 0;  ///< requests not yet granted to this MH
};

PathRevMutex::PathRevMutex(net::Network& net, CsMonitor& monitor, MutexOptions opts)
    : net_(net),
      monitor_(monitor),
      token_passes_counter_(net.metrics().counter("mutex.pathrev.token_passes")),
      token_grants_counter_(net.metrics().counter("mutex.pathrev.token_grants")),
      claim_hops_counter_(net.metrics().counter("mutex.pathrev.claim_hops")),
      path_reversals_counter_(net.metrics().counter("mutex.pathrev.path_reversals")),
      rehomed_counter_(net.metrics().counter("mutex.pathrev.rehomed")),
      bounced_counter_(net.metrics().counter("mutex.pathrev.bounced_grants")),
      skipped_disconnected_counter_(
          net.metrics().counter("mutex.pathrev.skipped_disconnected")) {
  monitor.bind_metrics(net.metrics());
  monitor.bind_stream(net.events(), label());
  const std::uint32_t m = net.num_mss();
  stations_.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    auto agent = std::make_shared<StationAgent>(*this, i);
    stations_.push_back(agent);
    net.mss(static_cast<MssId>(i)).register_agent(net::protocol::kMutexPathRev, agent);
  }
  hosts_.reserve(net.num_mh());
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) {
    auto agent = std::make_shared<HostAgent>(*this, monitor, opts);
    hosts_.push_back(agent);
    net.mh(static_cast<MhId>(i)).register_agent(net::protocol::kMutexPathRev, agent);
  }
}

void PathRevMutex::request(MhId mh) {
  monitor_.note_request(mh, net_.sched().now());
  hosts_[net::index(mh)]->local_request();
}

std::uint64_t PathRevMutex::queued_total() const {
  std::uint64_t total = 0;
  for (const auto& station : stations_) total += station->engine().queued();
  return total;
}

}  // namespace mobidist::mutex
