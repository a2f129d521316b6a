#include "group/location_view.hpp"

#include <any>
#include <deque>
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

/// Member uplink: please multicast this to the group.
struct LvSend {
  GroupMsg msg;
};

/// MSS-to-MSS data fan-out along the view. `view_version` stamps the
/// sender's replica version so recipients can tell whether the sender
/// already knew about recent view changes (drives the chase logic for
/// members that departed to a freshly added cell).
struct LvData {
  GroupMsg msg;
  std::uint64_t view_version = 0;
};

/// New MSS M -> previous MSS M': member `mh` now lives at `new_mss`.
/// `move_seq` is the MH's monotone join counter, used to order the
/// resulting view changes per member.
struct LvMemberMoved {
  MhId mh = net::kInvalidMh;
  MssId new_mss = net::kInvalidMss;
  std::uint64_t move_seq = 0;
};

/// MSS -> coordinator: view-change request. Each MSS reports only about
/// *itself*, based on its ground-truth local member count: "add me" when
/// its first member arrives, "delete me" when its last member leaves.
/// Because one cell's adds and dels travel a single FIFO channel to the
/// coordinator, they apply in true order — which is what makes the view
/// converge under concurrent moves by different MHs through the same
/// cell (a decision based on replicated view copies cannot, as two
/// causally unrelated changes race).
struct LvViewChange {
  MssId add = net::kInvalidMss;
  MssId del = net::kInvalidMss;
  /// For deletes: the new cells of every member that recently departed
  /// the deleted cell and whose add this cell has not yet seen applied.
  /// The coordinator holds the delete until each of those adds has been
  /// applied *at some version* (each is applied or in flight, since a
  /// cell that gains its first member always reports itself). Because
  /// replicas apply updates in version order, any view that contains
  /// this delete then also contains those adds — so a message fanned out
  /// on any view prefix either reaches a departed member's new cell
  /// directly or reaches this cell, whose departure records chase it.
  std::vector<MssId> after_adds;
};

/// Coordinator -> newly added MSS: the full latest view.
struct LvFullView {
  std::uint64_t version = 0;
  std::vector<MssId> view;
};

/// Coordinator -> existing view members: incremental update.
struct LvDelta {
  std::uint64_t version = 0;
  MssId add = net::kInvalidMss;
  MssId del = net::kInvalidMss;
};

/// View-less MSS -> coordinator: I host a member but have no copy
/// (races around reconnects); coordinator answers with LvFullView.
struct LvViewRequest {
  MssId from = net::kInvalidMss;
};

}  // namespace

class LocationViewGroup::StationAgent : public net::MssAgent {
 public:
  StationAgent(LocationViewGroup& owner, bool is_coordinator)
      : owner_(owner), is_coordinator_(is_coordinator) {}

  // Setup (before start): direct seeding from the initial placement.
  void seed_local(MhId member) { local_members_.insert(member); }
  void seed_view(const std::set<MssId>& view) {
    view_ = view;
    has_view_ = true;
  }
  void seed_master(const std::set<MssId>& view) {
    master_ = view;
    ever_added_ = view;
  }

  [[nodiscard]] const std::set<MssId>& master() const noexcept { return master_; }

  void on_message(const Envelope& env) override {
    if (const auto* send = net::body_as<LvSend>(env)) return handle_send(send->msg);
    if (const auto* data = net::body_as<LvData>(env)) {
      return deliver_local(data->msg, data->view_version);
    }
    if (const auto* moved = net::body_as<LvMemberMoved>(env)) return handle_moved(*moved);
    if (const auto* change = net::body_as<LvViewChange>(env)) return handle_change(*change);
    if (const auto* full = net::body_as<LvFullView>(env)) return handle_full(*full);
    if (const auto* delta = net::body_as<LvDelta>(env)) return handle_delta(*delta);
    if (const auto* request = net::body_as<LvViewRequest>(env)) {
      // Coordinator: answer a view-less MSS with the latest copy.
      send_wired(request->from, LvFullView{version_, as_vector(master_)});
      return;
    }
  }

  void on_mh_joined(MhId mh, MssId prev) override {
    if (!owner_.group_.contains(mh)) return;
    net().emit({.kind = obs::EventKind::kLocationUpdate,
                .entity = net::entity_of(mh),
                .peer = net::entity_of(self()),
                .detail = "location_view"});
    const bool was_empty = local_members_.empty();
    local_members_.insert(mh);
    member_arrival_seq_[mh] = net().mh(mh).joins_completed();
    if (was_empty) {
      // First member here: by ground truth this cell must be in LV(G).
      // (Idempotent at the coordinator if we are already listed.)
      send_wired(owner_.coordinator_, LvViewChange{self(), net::kInvalidMss, {}});
    }
    if (prev != net::kInvalidMss && prev != self()) {
      // "M requests M' to notify the group coordinator": M' erases the
      // member and reports its own emptiness to the coordinator.
      send_wired(prev, LvMemberMoved{mh, self(), net().mh(mh).joins_completed()});
    }
  }

  /// The substrate cleared this cell's "disconnected" flag for `mh`
  /// because it reconnected elsewhere (possibly without supplying this
  /// cell's id): drop it from the member bookkeeping.
  void on_disconnected_mh_migrated(MhId mh, MssId new_mss) override {
    if (!owner_.group_.contains(mh)) return;
    forget_member(mh, new_mss);
  }

  // A disconnected member stays "located" here (its flag lives in this
  // cell), so LV(G) is untouched — the paper's disconnection story.
  void on_mh_disconnected(MhId /*mh*/) override {}

  void on_local_send_failed(MhId mh, const net::Body& body) override {
    // The member moved while the message was in flight (the paper
    // assumes this away; we chase instead of dropping).
    ++owner_.chases_;
    send_to_mh(mh, body, net::SendPolicy::kEventualDelivery);
  }

  [[nodiscard]] bool has_view() const noexcept { return has_view_; }
  [[nodiscard]] const std::set<MssId>& view() const noexcept { return view_; }
  [[nodiscard]] const std::set<MhId>& local_members() const noexcept {
    return local_members_;
  }

 private:
  static std::vector<MssId> as_vector(const std::set<MssId>& view) {
    return {view.begin(), view.end()};
  }

  void handle_send(const GroupMsg& msg) {
    if (!has_view_) {
      // Our add is still in flight; queue and ask for the view.
      pending_.push_back(msg);
      if (!view_requested_) {
        view_requested_ = true;
        send_wired(owner_.coordinator_, LvViewRequest{self()});
      }
      return;
    }
    for (const auto mss : view_) {
      if (mss == self()) continue;
      send_wired(mss, LvData{msg, version_seen_});
    }
    deliver_local(msg, version_seen_);
  }

  void deliver_local(const GroupMsg& msg, std::uint64_t sender_version) {
    for (const auto member : local_members_) {
      if (member == msg.sender) continue;
      send_local(member, msg);
    }
    // Forward to members that recently departed towards a cell the data
    // sender may not have had in its view yet: chase when the change has
    // not been confirmed here, or the sender's view predates it.
    // Duplicates are suppressed at the member.
    for (const auto& departure : departed_) {
      if (departure.mh == msg.sender) continue;
      if (departure.confirmed_version != 0 &&
          sender_version >= departure.confirmed_version) {
        continue;  // the sender's view already covered the new cell
      }
      ++owner_.chases_;
      send_to_mh(departure.mh, msg, net::SendPolicy::kEventualDelivery);
    }
  }

  void handle_moved(const LvMemberMoved& moved) {
    // A rapid out-and-back bounce can deliver this departure notice
    // *after* the member has already re-arrived here; acting on it would
    // evict a live member. Ignore departures older than the latest
    // arrival we have seen.
    if (const auto it = member_arrival_seq_.find(moved.mh);
        it != member_arrival_seq_.end() && moved.move_seq <= it->second) {
      return;
    }
    forget_member(moved.mh, moved.new_mss);
  }

  /// Shared departure bookkeeping: erase the member, keep a forwarding
  /// record while stale-view senders may still address us, and report
  /// our own emptiness to the coordinator (ground truth).
  void forget_member(MhId mh, MssId new_mss) {
    local_members_.erase(mh);
    // Keep a forwarding record unconditionally: our own replica may be
    // staler than a future sender's, so "the new cell is in my view" is
    // not evidence the sender will reach it. If we already see the new
    // cell, stamp the record with our version so senders at least as
    // current skip the chase.
    prune_departures();
    const std::uint64_t confirmed =
        (has_view_ && view_.contains(new_mss)) ? std::max<std::uint64_t>(1, version_seen_)
                                               : 0;
    departed_.push_back(Departure{mh, new_mss, net().sched().now(), confirmed});
    if (local_members_.empty() && has_view_) {
      // We vacated: drop the copy now; the coordinator stops sending us
      // updates once it processes the request. The delete is ordered
      // after every unconfirmed departure's add (see
      // LvViewChange::after_adds).
      has_view_ = false;
      view_.clear();
      LvViewChange change{net::kInvalidMss, self(), {}};
      for (const auto& departure : departed_) {
        if (departure.confirmed_version == 0) change.after_adds.push_back(departure.new_mss);
      }
      send_wired(owner_.coordinator_, std::move(change));
    }
  }

  void prune_departures() {
    const auto now = net().sched().now();
    std::erase_if(departed_, [now](const Departure& departure) {
      return now - departure.at > kDepartureGrace;
    });
  }

  void handle_change(const LvViewChange& change) {
    for (const auto dependency : change.after_adds) {
      if (!ever_added_.contains(dependency)) {
        // A departed member's new cell has not registered yet; its add
        // is in flight. Hold the delete so no distributed view prefix
        // drops the old cell before gaining the new one.
        waiting_for_add_[dependency].push_back(change);
        return;
      }
    }
    bool changed = false;
    if (change.add != net::kInvalidMss) {
      ever_added_.insert(change.add);
      if (master_.insert(change.add).second) changed = true;
    }
    if (change.del != net::kInvalidMss && master_.erase(change.del) > 0) changed = true;
    if (!changed) return;  // idempotent duplicate
    ++version_;
    ++owner_.significant_moves_;
    {
      std::string delta;
      if (change.add != net::kInvalidMss) delta += "+" + net::to_string(change.add);
      if (change.del != net::kInvalidMss) {
        if (!delta.empty()) delta += ' ';
        delta += "-" + net::to_string(change.del);
      }
      // `delta` outlives the emit call (the stream interns a copy); the
      // distinct-tag population here is bounded by the intern-table cap.
      net().emit({.kind = obs::EventKind::kViewChange,
                  .entity = net::entity_of(self()),
                  .arg = version_,
                  .detail = delta});
    }
    owner_.max_view_.set_max(static_cast<std::int64_t>(master_.size()));
    // Full copy to a newly added MSS, increments to everyone else.
    if (change.add != net::kInvalidMss) {
      send_wired(change.add, LvFullView{version_, as_vector(master_)});
    }
    for (const auto mss : master_) {
      if (mss == change.add) continue;
      if (mss == self()) {
        apply(version_, change.add, change.del);
        continue;
      }
      send_wired(mss, LvDelta{version_, change.add, change.del});
    }
    // An applied add may release deferred deletes.
    if (change.add != net::kInvalidMss) {
      if (auto it = waiting_for_add_.find(change.add); it != waiting_for_add_.end()) {
        auto released = std::move(it->second);
        waiting_for_add_.erase(it);
        for (const auto& deferred : released) handle_change(deferred);
      }
    }
  }

  void handle_full(const LvFullView& full) {
    view_.clear();
    view_.insert(full.view.begin(), full.view.end());
    has_view_ = true;
    view_requested_ = false;
    version_seen_ = full.version;
    for (auto& departure : departed_) {
      if (departure.confirmed_version == 0 && view_.contains(departure.new_mss)) {
        departure.confirmed_version = full.version;
      }
    }
    flush_pending();
  }

  void handle_delta(const LvDelta& delta) {
    if (!has_view_) return;  // stale delta after we vacated
    apply(delta.version, delta.add, delta.del);
  }

  void apply(std::uint64_t version, MssId add, MssId del) {
    version_seen_ = version;
    if (add != net::kInvalidMss) {
      view_.insert(add);
      // Confirm forwarding records waiting on this cell's addition.
      for (auto& departure : departed_) {
        if (departure.confirmed_version == 0 && departure.new_mss == add) {
          departure.confirmed_version = version;
        }
      }
    }
    if (del != net::kInvalidMss) view_.erase(del);
    if (del == self()) {
      has_view_ = false;
      view_.clear();
    }
  }

  void flush_pending() {
    std::deque<GroupMsg> ready;
    ready.swap(pending_);
    for (const auto& msg : ready) handle_send(msg);
  }

  /// Forwarding record for a member that left towards a cell that may
  /// not have propagated into every replica's view yet.
  struct Departure {
    MhId mh = net::kInvalidMh;
    MssId new_mss = net::kInvalidMss;
    sim::SimTime at = 0;
    std::uint64_t confirmed_version = 0;  ///< 0 = change not yet seen here
  };
  /// Backstop retention for forwarding records (virtual ticks); the
  /// version check is the primary cutoff.
  static constexpr sim::Duration kDepartureGrace = 5000;

  LocationViewGroup& owner_;
  bool is_coordinator_;
  // Replica state.
  bool has_view_ = false;
  std::set<MssId> view_;
  std::uint64_t version_seen_ = 0;
  std::set<MhId> local_members_;
  std::map<MhId, std::uint64_t> member_arrival_seq_;
  std::deque<GroupMsg> pending_;
  std::deque<Departure> departed_;
  bool view_requested_ = false;
  // Coordinator state (used only on the coordinator).
  std::set<MssId> master_;
  std::set<MssId> ever_added_;  ///< monotone: cells whose add was ever applied
  std::uint64_t version_ = 0;
  /// Deletes held until the departing member's new cell registers.
  std::map<MssId, std::vector<LvViewChange>> waiting_for_add_;
};

class LocationViewGroup::HostAgent : public net::MhAgent {
 public:
  explicit HostAgent(LocationViewGroup& owner) : owner_(owner) {}

  void send_group(std::uint64_t msg_id) {
    when_connected([this, msg_id] { send_uplink(LvSend{GroupMsg{msg_id, self()}}); });
  }

  void on_message(const Envelope& env) override {
    const auto* msg = net::body_as<GroupMsg>(env);
    if (msg == nullptr) return;
    if (!seen_.insert(msg->msg_id).second) {
      owner_.monitor_.duplicate();
      return;
    }
    owner_.monitor_.delivered(msg->msg_id, self());
  }

 private:
  LocationViewGroup& owner_;
  std::set<std::uint64_t> seen_;
};

LocationViewGroup::LocationViewGroup(net::Network& net, Group group, MssId coordinator,
                                     net::ProtocolId proto)
    : net_(net),
      group_(std::move(group)),
      coordinator_(coordinator),
      proto_(proto),
      significant_moves_(net.metrics().counter("group.location_view.significant_moves")),
      max_view_(net.metrics().gauge("group.location_view.max_view")),
      chases_(net.metrics().counter("group.location_view.chases")) {
  stations_.reserve(net.num_mss());
  for (std::uint32_t i = 0; i < net.num_mss(); ++i) {
    const auto id = static_cast<MssId>(i);
    net.mss(id).register_agent(proto, &stations_.emplace_back(*this, id == coordinator_));
  }
  hosts_.reserve(group_.size());
  for (const auto member : group_.members) {
    net.mh(member).register_agent(proto, &hosts_.emplace_back(*this));
  }
  // Seed the initial view from the placement: LV(G)^0.
  std::set<MssId> initial;
  for (const auto member : group_.members) {
    const MssId at = net.mh(member).last_mss();
    initial.insert(at);
    stations_[net::index(at)].seed_local(member);
  }
  for (const auto mss : initial) stations_[net::index(mss)].seed_view(initial);
  stations_[net::index(coordinator_)].seed_master(initial);
  max_view_.set_max(static_cast<std::int64_t>(initial.size()));
}

LocationViewGroup::~LocationViewGroup() = default;

std::uint64_t LocationViewGroup::send_group_message(MhId sender) {
  if (!group_.contains(sender)) {
    throw std::invalid_argument("LocationViewGroup: sender is not a member");
  }
  const std::uint64_t msg_id = next_msg_++;
  monitor_.sent(msg_id, sender);
  static_cast<HostAgent*>(net_.mh(sender).agent(proto_))->send_group(msg_id);
  return msg_id;
}

const std::set<MssId>& LocationViewGroup::current_view() const noexcept {
  return stations_[net::index(coordinator_)].master();
}

std::uint64_t LocationViewGroup::duplicates_suppressed() const noexcept {
  return monitor_.duplicates_suppressed();
}

}  // namespace mobidist::group
