#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace mobidist::net {

thread_local std::uint32_t Network::tls_shard_ = 0;

namespace {

/// A misconfigured range must fail loudly at construction: sample()
/// clamping it silently would turn every latency draw into `min` and
/// mask the config error.
void check_latency_range(const char* name, sim::Duration lo, sim::Duration hi) {
  if (lo > hi) {
    throw std::invalid_argument(std::string("Network: latency range ") + name +
                                " has min > max (" + std::to_string(lo) + " > " +
                                std::to_string(hi) + ")");
  }
}

/// Per-lane RNG stream seed: the run seed spread by the golden-ratio
/// increment (splitmix64's gamma), one stream per lane so the draw
/// sequence of each lane is a pure function of (seed, lane) — the
/// grouping-independence keystone of the sharded engine.
[[nodiscard]] std::uint64_t lane_stream_seed(std::uint64_t seed, std::uint32_t lane) {
  return seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(lane) + 1);
}

}  // namespace

Network::Network(NetConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.num_mss == 0) throw std::invalid_argument("Network: need at least one MSS");
  // Channel keys pack endpoint indices into 30-bit fields; reject id
  // spaces that could alias before allocating anything.
  if (cfg_.num_mss > kMaxEndpointIndex + 1 || cfg_.num_mh > kMaxEndpointIndex + 1) {
    throw std::invalid_argument("Network: host ids must fit in 30 bits");
  }
  check_latency_range("wired", cfg_.latency.wired_min, cfg_.latency.wired_max);
  check_latency_range("wireless", cfg_.latency.wireless_min, cfg_.latency.wireless_max);
  check_latency_range("search", cfg_.latency.search_min, cfg_.latency.search_max);
  if (sharded() && cfg_.latency.wired_min < 1) {
    // The wired-latency lower bound IS the conservative lookahead; a
    // zero-latency wire would leave no safe window to run in parallel.
    throw std::invalid_argument("Network: sharded engine requires latency.wired_min >= 1");
  }
  const std::uint32_t slice_count = sharded() ? std::min(cfg_.shards, cfg_.num_mss) : 1;
  slices_.reserve(slice_count);
  for (std::uint32_t i = 0; i < slice_count; ++i) {
    auto& slice = *slices_.emplace_back(std::make_unique<ShardSlice>());
    slice.wired_clocks.assign(std::size_t{cfg_.num_mss} * cfg_.num_mss, 0);
    slice.first_record.assign(cfg_.num_mh, kNoRecord);
  }
  if (!cfg_.formation.passthrough()) {
    if (cfg_.formation.max_packet_msgs == 0) {
      throw std::invalid_argument("Network: formation.max_packet_msgs must be >= 1");
    }
    // One formation layer per slice, bound to that slice's scheduler:
    // a queue for (from,to) lives on from's shard, so enqueue, deadline
    // timers, and flush all run on the thread that owns the sender.
    for (auto& slice : slices_) {
      slice->formation = std::make_unique<FormationLayer>(
          cfg_.formation, cfg_.num_mss, slice->sched,
          [this](FormationLayer::Packet packet) { transmit_packet(std::move(packet)); });
    }
  }
  if (sharded()) {
    lane_rngs_.reserve(cfg_.num_mss);
    for (std::uint32_t lane = 0; lane < cfg_.num_mss; ++lane) {
      lane_rngs_.emplace_back(lane_stream_seed(cfg_.seed, lane));
    }
    lane_mail_seq_.assign(cfg_.num_mss, 0);
  }
  mss_.reserve(cfg_.num_mss);
  for (std::uint32_t i = 0; i < cfg_.num_mss; ++i) {
    mss_.push_back(std::make_unique<Mss>(*this, static_cast<MssId>(i)));
  }
  mh_.reserve(cfg_.num_mh);
  for (std::uint32_t i = 0; i < cfg_.num_mh; ++i) {
    mh_.push_back(std::make_unique<MobileHost>(*this, static_cast<MhId>(i)));
  }
  // Initial placement: direct, no protocol traffic. Agents observe it in
  // on_start via Mss::local_mhs(). Placement draws from the global
  // stream even when sharded — it happens before the run, on one
  // thread, and must not depend on the shard count.
  mh_lane_.reserve(cfg_.num_mh);
  for (std::uint32_t i = 0; i < cfg_.num_mh; ++i) {
    std::uint32_t cell = 0;
    switch (cfg_.placement) {
      case InitialPlacement::kRoundRobin: cell = i % cfg_.num_mss; break;
      case InitialPlacement::kRandom:
        cell = static_cast<std::uint32_t>(rng_.below(cfg_.num_mss));
        break;
      case InitialPlacement::kAllInCell0: cell = 0; break;
    }
    mh_[i]->mss_ = static_cast<MssId>(cell);
    mh_[i]->state_ = MhState::kConnected;
    mss_[cell]->place_local(static_cast<MhId>(i));
    mh_lane_.push_back(cell);
  }
}

Network::~Network() = default;

Mss& Network::mss(MssId id) {
  assert(index(id) < mss_.size());
  return *mss_[index(id)];
}
const Mss& Network::mss(MssId id) const {
  assert(index(id) < mss_.size());
  return *mss_[index(id)];
}
MobileHost& Network::mh(MhId id) {
  assert(index(id) < mh_.size());
  return *mh_[index(id)];
}
const MobileHost& Network::mh(MhId id) const {
  assert(index(id) < mh_.size());
  return *mh_[index(id)];
}

void Network::require_legacy(const char* what) const {
  if (sharded()) {
    throw std::logic_error(std::string("Network: ") + what +
                           " is not supported on the sharded engine (cfg.shards >= 1); "
                           "sharded runs are static-topology only");
  }
}

std::uint32_t Network::lane_of(obs::Entity entity) const noexcept {
  switch (entity.kind) {
    case obs::Entity::Kind::kMss: return entity.idx;
    case obs::Entity::Kind::kMh:
      return entity.idx < mh_lane_.size() ? mh_lane_[entity.idx] : 0;
    case obs::Entity::Kind::kNone: break;
  }
  return 0;
}

std::uint64_t Network::total_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slice : slices_) total += slice->sched.fired();
  return total;
}

bool Network::hit_event_limit() const noexcept {
  if (sharded()) return group_ != nullptr && group_->hit_event_limit();
  return slices_[0]->sched.hit_event_limit();
}

std::uint64_t Network::events_emitted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slice : slices_) total += slice->events.emitted();
  return total;
}

std::uint64_t Network::events_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& slice : slices_) total += slice->events.dropped();
  return total;
}

std::vector<obs::Event> Network::merged_events() const {
  std::vector<const obs::EventStream*> streams;
  streams.reserve(slices_.size());
  for (const auto& slice : slices_) streams.push_back(&slice->events);
  return obs::merge_canonical(streams, [this](obs::Entity e) { return lane_of(e); });
}

fault::FaultPlane& Network::install_fault_plane(fault::FaultProfile profile) {
  require_legacy("install_fault_plane()");
  if (fault_) throw std::logic_error("Network: fault plane already installed");
  for (const auto& crash : profile.crashes) {
    if (crash.mss >= cfg_.num_mss) {
      throw std::invalid_argument("Network: crash schedule names an unknown MSS");
    }
  }
  // The plane's randomness lives on its own stream, derived from the run
  // seed but never touching rng_ (not even via Rng::split(), which
  // advances the parent): the fault-free draw sequence must be identical
  // whether or not a plane is installed.
  fault_ = std::make_unique<fault::FaultPlane>(fault::fault_stream_seed(cfg_.seed),
                                               std::move(profile));
  fault_->bind_metrics(slices_[0]->metrics);
  for (const auto& crash : fault_->profile().crashes) {
    slices_[0]->sched.schedule_at(crash.at, [this, crash]() { begin_crash(crash); });
    slices_[0]->sched.schedule_at(crash.at + crash.down_for, [this, mss = crash.mss]() {
      emit({.kind = obs::EventKind::kMssRecover, .entity = obs::Entity::mss(mss)});
    });
  }
  return *fault_;
}

void Network::begin_crash(const fault::MssCrash& crash) {
  emit({.kind = obs::EventKind::kMssCrash,
        .entity = obs::Entity::mss(crash.mss),
        .arg = crash.down_for});
  if (!fault_->profile().evacuate_on_crash || cfg_.num_mss < 2) return;
  // Coverage died with the station: connected MHs notice the dead beacon
  // and re-home to the neighbouring cell through the ordinary
  // leave/join/handoff path. Their leave frames are lost in the dead
  // cell (abandoned once the re-join lands) and the new MSS's handoff
  // request waits at the crashed station's interface until recovery, so
  // parked messages and pending grants re-home through the existing
  // handoff machinery rather than a side channel.
  const auto refuge = static_cast<MssId>((crash.mss + 1) % cfg_.num_mss);
  for (std::uint32_t i = 0; i < cfg_.num_mh; ++i) {
    auto& host = mh(static_cast<MhId>(i));
    if (host.current_mss() != static_cast<MssId>(crash.mss)) continue;
    host.move_to(refuge, fault_->draw_evacuation_transit());
  }
}

void Network::start() {
  if (started_) return;
  started_ = true;
  for (auto& station : mss_) station->start_agents();
  for (auto& host : mh_) host->start_agents();
}

std::uint64_t Network::run(std::uint64_t event_limit) {
  if (!started_) start();
  if (sharded()) return run_sharded(event_limit);
  auto& sched = slices_[0]->sched;
  sched.set_event_limit(event_limit);
  return sched.run();
}

std::uint64_t Network::run_sharded(std::uint64_t event_limit) {
  if (group_) {
    // Folding the per-shard measurement state below is a one-shot move;
    // re-running would double-count it.
    throw std::logic_error("Network: a sharded run() may only be invoked once");
  }
  std::vector<sim::Scheduler*> scheds;
  scheds.reserve(slices_.size());
  for (auto& slice : slices_) scheds.push_back(&slice->sched);
  group_ = std::make_unique<sim::ShardGroup>(
      std::move(scheds), lookahead(),
      [](std::uint32_t shard) { tls_shard_ = shard; });
  const auto fired = group_->run(event_limit);
  tls_shard_ = 0;  // the single-shard inline run reassigned the caller's slot
  // Fold every shard's measurement state into slice 0, so the ordinary
  // accessors (metrics(), ledger(), stats()) read group-wide totals
  // from the main thread after the run. Event streams stay per-shard:
  // their canonical view is merged_events().
  for (std::size_t i = 1; i < slices_.size(); ++i) {
    slices_[0]->metrics.merge_from(slices_[i]->metrics);
    slices_[0]->ledger.merge_from(slices_[i]->ledger);
  }
  return fired;
}

MssId Network::current_mss_of(MhId id) const { return mh(id).current_mss(); }
bool Network::is_disconnected(MhId id) const {
  return mh(id).state() == MhState::kDisconnected;
}
bool Network::is_in_transit(MhId id) const {
  return mh(id).state() == MhState::kInTransit;
}

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

sim::Duration Network::sample(std::uint32_t lane, sim::Duration lo, sim::Duration hi) {
  assert(lo <= hi);  // inverted ranges are rejected at construction
  if (hi == lo) return lo;
  return lo + run_rng(lane).below(hi - lo + 1);
}

sim::SimTime Network::fifo_arrival(sim::SimTime& clock, ChannelType type,
                                   sim::Duration latency) {
  auto& slice = sl();
  const sim::SimTime natural = slice.sched.now() + latency;
  sim::SimTime arrival = natural;
  if (arrival < clock) arrival = clock;  // never overtake an earlier message
  clock = arrival;
  switch (type) {
    case ChannelType::kWired: slice.queue_delay_wired.record(arrival - natural); break;
    case ChannelType::kDownlink: slice.queue_delay_downlink.record(arrival - natural); break;
    case ChannelType::kUplink: slice.queue_delay_uplink.record(arrival - natural); break;
  }
  return arrival;
}

std::uint32_t& Network::record_link(ShardSlice& slice, MssId cell, MhId mh) {
  std::uint32_t* link = &slice.first_record[index(mh)];
  while (*link != kNoRecord) {
    if (slice.record(*link).cell == cell) return *link;
    link = &slice.record(*link).next;
  }
  if (slice.record_count % ShardSlice::kRecordBlock == 0) {
    slice.record_blocks.push_back(std::make_unique<CellRecord[]>(ShardSlice::kRecordBlock));
  }
  *link = slice.record_count++;
  slice.record(*link).cell = cell;
  return *link;
}

Network::CellRecord& Network::cell_record(MssId cell, MhId mh) {
  auto& slice = *slices_[shard_of(index(cell))];
  return slice.record(record_link(slice, cell, mh));
}

const Network::CellRecord* Network::find_cell_record(MssId cell, MhId mh) const {
  const auto& slice = *slices_[shard_of(index(cell))];
  for (auto i = slice.first_record[index(mh)]; i != kNoRecord; i = slice.record(i).next) {
    if (slice.record(i).cell == cell) return &slice.record(i);
  }
  return nullptr;
}

Network::CellRecord& Network::enter_cell(MssId cell, MhId mh) {
  auto& slice = *slices_[shard_of(index(cell))];
  auto& head = slice.first_record[index(mh)];
  auto& link = record_link(slice, cell, mh);
  const auto i = link;
  auto& record = slice.record(i);
  if (&link != &head) {
    // Unlink and push on the front; the cell the MH just left becomes
    // second, where its trailing uplink retransmissions look it up.
    link = record.next;
    record.next = head;
    head = i;
  }
  return record;
}

void Network::send_wired(MssId from, MssId to, Envelope env) {
  env.src = from;
  env.dst = to;
  if (from == to) {
    // Local dispatch: free, but still through the event queue so agent
    // reentrancy is impossible. Channel 0: self-sends are unordered
    // relative to wired traffic.
    const auto send_id = emit({.kind = obs::EventKind::kSend,
                               .entity = entity_of(from),
                               .peer = entity_of(to),
                               .arg = env.proto});
    sl().sched.schedule(0, [this, from, to, send_id, env = std::move(env)]() mutable {
      arrive_wired(from, to, send_id, 0, std::move(env));
    });
    return;
  }
  if (sl().formation) {
    enqueue_wired(from, to, std::move(env));
    return;
  }
  if (!env.control) sl().ledger.charge_fixed();
  auto latency = sample(index(from), cfg_.latency.wired_min, cfg_.latency.wired_max);
  if (fault_) latency += fault_->draw_wired_spike();
  const auto arrival = fifo_arrival(wired_clock(from, to), ChannelType::kWired, latency);
  const auto channel = channel_key(ChannelType::kWired, index(from), index(to));
  const auto send_id = emit({.kind = obs::EventKind::kSend,
                             .entity = entity_of(from),
                             .peer = entity_of(to),
                             .channel = channel,
                             .arg = env.proto});
  if (sharded()) {
    // Every cross-MSS hop rides the window mailbox — even when both
    // lanes share a shard — so the injection order (and with it the
    // receiver's event sequence) is a pure function of the mail set,
    // not of the grouping. The cause crosses streams as an encoded ref
    // plus the sender's Lamport clock (see obs/merge.hpp).
    const auto cross_cause = obs::make_cross_ref(tls_shard_, send_id);
    const auto send_clock = sl().events.lamport_of(send_id);
    post_mail(index(from), index(to), arrival,
              [this, from, to, cross_cause, channel, send_clock,
               env = std::move(env)]() mutable {
                arrive_wired(from, to, cross_cause, channel, std::move(env), send_clock);
              });
    return;
  }
  sl().sched.schedule_at(arrival, [this, from, to, send_id, channel, env = std::move(env)]() mutable {
    arrive_wired(from, to, send_id, channel, std::move(env));
  });
}

void Network::arrive_wired(MssId from, MssId to, obs::EventId send_id, std::uint64_t channel,
                           Envelope env, std::uint64_t send_clock) {
  if (fault_) {
    // A crashed (or partitioned-off) destination leaves the message
    // waiting at its network interface; re-offer it when the outage
    // window closes. Deferrals preserve per-channel FIFO order: every
    // arrival during one window reschedules to the same release instant,
    // and the scheduler breaks same-instant ties in scheduling order.
    const auto release = fault_->wired_release_at(index(from), index(to), sl().sched.now());
    if (release > sl().sched.now()) {
      fault_->count_deferral();
      sl().sched.schedule_at(release, [this, from, to, send_id, channel, send_clock,
                                       env = std::move(env)]() mutable {
        arrive_wired(from, to, send_id, channel, std::move(env), send_clock);
      });
      return;
    }
  }
  const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                             .entity = entity_of(to),
                             .peer = entity_of(from),
                             .cause = send_id,
                             .channel = channel,
                             .arg = env.proto,
                             .cause_clock = send_clock});
  obs::CauseScope scope(sl().events, recv_id);
  deliver_wired(to, std::move(env));
}

void Network::arrive_deferred(MssId from, MssId at, obs::EventId send_id,
                              std::uint64_t channel, ProtocolId proto,
                              std::string_view detail, std::function<void()> deliver) {
  if (fault_) {
    const auto release = fault_->wired_release_at(index(from), index(at), sl().sched.now());
    if (release > sl().sched.now()) {
      fault_->count_deferral();
      sl().sched.schedule_at(release, [this, from, at, send_id, channel, proto, detail,
                                       deliver = std::move(deliver)]() mutable {
        arrive_deferred(from, at, send_id, channel, proto, detail, std::move(deliver));
      });
      return;
    }
  }
  const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                             .entity = entity_of(at),
                             .peer = entity_of(from),
                             .cause = send_id,
                             .channel = channel,
                             .arg = proto,
                             .detail = detail});
  obs::CauseScope scope(sl().events, recv_id);
  deliver();
}

void Network::deliver_wired(MssId to, Envelope env) {
  if (env.control) ++sl().stats.control_msgs;
  mss(to).dispatch(env);
}

// ---------------------------------------------------------------------------
// Formation (wired batching)
// ---------------------------------------------------------------------------

void Network::enqueue_wired(MssId from, MssId to, Envelope env) {
  // The message's identity is announced now: its kSend is emitted at
  // enqueue (in program order, with the ambient cause), so per-message
  // causality and channel-FIFO checking are unchanged by batching.
  if (!env.control) sl().ledger.charge_wired_msg();
  const auto channel = channel_key(ChannelType::kWired, index(from), index(to));
  const auto send_id = emit({.kind = obs::EventKind::kSend,
                             .entity = entity_of(from),
                             .peer = entity_of(to),
                             .channel = channel,
                             .arg = env.proto});
  const auto bytes = wire_size(env);
  sl().formation->enqueue(from, to, FormationLayer::Item{std::move(env), send_id, bytes});
}

void Network::transmit_packet(FormationLayer::Packet packet) {
  assert(!packet.items.empty());
  auto& slice = sl();
  // One packet = one per-packet charge (amortized across its messages)
  // unless it carries control traffic only, which is never charged.
  bool carries_charged = false;
  for (const auto& item : packet.items) {
    if (!item.env.control) {
      carries_charged = true;
      break;
    }
  }
  if (carries_charged) slice.ledger.charge_wired_packet();
  // One latency draw and one FIFO clamp for the whole packet: the wire
  // sees a single transmission.
  auto latency = sample(index(packet.from), cfg_.latency.wired_min, cfg_.latency.wired_max);
  if (fault_) latency += fault_->draw_wired_spike();
  const auto channel =
      channel_key(ChannelType::kWired, index(packet.from), index(packet.to));
  const auto arrival =
      fifo_arrival(wired_clock(packet.from, packet.to), ChannelType::kWired, latency);
  const auto packet_id = emit({.kind = obs::EventKind::kPacketSend,
                               .entity = entity_of(packet.from),
                               .peer = entity_of(packet.to),
                               .cause = packet.items.front().send_id,
                               .channel = channel,
                               .arg = packet.items.size(),
                               .detail = packet.trigger});
  slice.packet_msgs.record(packet.items.size());
  const std::string_view trigger{packet.trigger};
  if (trigger == "deadline") {
    ++slice.formation_deadline_flushes;
  } else if (trigger == "barrier") {
    ++slice.formation_barrier_flushes;
  } else {
    ++slice.formation_size_flushes;
  }
  if (sharded()) {
    // The packet and each coalesced message crosses streams: rewrite
    // their ids to cross refs and carry the senders' Lamport clocks so
    // the receiving stream's clocks advance identically in every
    // grouping.
    const auto stream = tls_shard_;
    const auto packet_clock = slice.events.lamport_of(packet_id);
    std::vector<std::uint64_t> item_clocks;
    item_clocks.reserve(packet.items.size());
    for (auto& item : packet.items) {
      item_clocks.push_back(slice.events.lamport_of(item.send_id));
      item.send_id = obs::make_cross_ref(stream, item.send_id);
    }
    post_mail(index(packet.from), index(packet.to), arrival,
              [this, packet = std::move(packet),
               cross_id = obs::make_cross_ref(stream, packet_id), channel, packet_clock,
               item_clocks = std::move(item_clocks)]() mutable {
                arrive_packet(std::move(packet), cross_id, channel, packet_clock,
                              std::move(item_clocks));
              });
    return;
  }
  slice.sched.schedule_at(arrival, [this, packet = std::move(packet), packet_id,
                                    channel]() mutable {
    arrive_packet(std::move(packet), packet_id, channel);
  });
}

void Network::arrive_packet(FormationLayer::Packet packet, obs::EventId packet_id,
                            std::uint64_t channel, std::uint64_t packet_clock,
                            std::vector<std::uint64_t> item_clocks) {
  if (fault_) {
    // Same deferral rule as arrive_wired: a crashed or partitioned-off
    // destination holds the whole packet at its interface.
    const auto release =
        fault_->wired_release_at(index(packet.from), index(packet.to), sl().sched.now());
    if (release > sl().sched.now()) {
      fault_->count_deferral();
      sl().sched.schedule_at(release, [this, packet = std::move(packet), packet_id, channel,
                                       packet_clock,
                                       item_clocks = std::move(item_clocks)]() mutable {
        arrive_packet(std::move(packet), packet_id, channel, packet_clock,
                      std::move(item_clocks));
      });
      return;
    }
  }
  emit({.kind = obs::EventKind::kPacketFlush,
        .entity = entity_of(packet.to),
        .peer = entity_of(packet.from),
        .cause = packet_id,
        .channel = channel,
        .arg = packet.items.size(),
        .detail = packet.trigger,
        .cause_clock = packet_clock});
  // Disgorge in send order; each message's recv consumes its own send,
  // so the per-message FIFO history is indistinguishable from unbatched
  // delivery at the same instant.
  for (std::size_t i = 0; i < packet.items.size(); ++i) {
    auto& item = packet.items[i];
    const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                               .entity = entity_of(packet.to),
                               .peer = entity_of(packet.from),
                               .cause = item.send_id,
                               .channel = channel,
                               .arg = item.env.proto,
                               .detail = "packet",
                               .cause_clock = i < item_clocks.size() ? item_clocks[i] : 0});
    obs::CauseScope scope(sl().events, recv_id);
    deliver_wired(packet.to, std::move(item.env));
  }
}

bool Network::wireless_frame_lost(std::uint32_t cell, const char** why) {
  if (!fault_) return false;
  if (fault_->crashed(cell, sl().sched.now())) {
    // A dead station neither transmits nor hears anything: deterministic
    // loss, no randomness consumed.
    *why = "crash";
    fault_->count_crash_drop();
    return true;
  }
  if (fault_->draw_wireless_loss()) {
    *why = "loss";
    fault_->count_loss();
    return true;
  }
  return false;
}

sim::Duration Network::retransmit_backoff(std::uint32_t attempt) const {
  const auto& profile = fault_->profile();
  const sim::Duration base = profile.rto_base > 0 ? profile.rto_base : 1;
  const sim::Duration cap = std::max<sim::Duration>(profile.rto_cap, 1);
  const std::uint32_t shift = std::min<std::uint32_t>(attempt, 16);
  // `base << shift` wraps for base >= 2^(64-shift), turning a huge
  // configured RTO into a tiny (even zero) one and spamming retransmits;
  // saturate against the cap before shifting instead.
  if (base > (cap >> shift)) return cap;
  return std::max<sim::Duration>(base << shift, 1);
}

bool WseqDedup::deliver(std::uint64_t wseq) {
  if (wseq <= floor) return false;
  if (wseq == floor + 1 && above.empty()) {
    ++floor;  // in-order frame, nothing parked: no set traffic at all
    return true;
  }
  if (above.contains(wseq)) return false;
  above.insert(wseq);
  while (above.contains(floor + 1)) {
    above.erase(floor + 1);
    ++floor;
  }
  // Bound the parked set: a gap older than the retransmit window can
  // never fill (its sender abandoned the frame), so declare the oldest
  // gap lost and jump the floor to the smallest parked wseq.
  while (above.size() > kRetransmitWindow) {
    floor = *above.begin();
    above.erase(above.begin());
    while (above.contains(floor + 1)) {
      above.erase(floor + 1);
      ++floor;
    }
  }
  assert(above.size() <= kRetransmitWindow);
  return true;
}

void Network::send_wireless_downlink(MssId from, Envelope env, MhId to,
                                     FailCallback on_fail) {
  downlink_attempt(from, std::move(env), to, std::move(on_fail), 0, 0);
}

void Network::downlink_attempt(MssId from, Envelope env, MhId to, FailCallback on_fail,
                               std::uint32_t attempt, std::uint64_t wseq) {
  auto& host = mh(to);
  if (host.current_mss() != from) {
    // Already gone: fail asynchronously so callers see uniform behaviour.
    // Retransmission stops here too — the sender's link layer only
    // promises delivery while the MH stays in this cell; the send_to_mh
    // chase re-searches from scratch.
    if (on_fail) {
      sl().sched.schedule(0, [on_fail = std::move(on_fail), env = std::move(env)]() {
        on_fail(env);
      });
    }
    return;
  }
  const auto channel = channel_key(ChannelType::kDownlink, index(from), index(to));
  auto& chan = cell_record(from, to).downlink;
  if (attempt == 0) wseq = ++chan.next_wseq;
  const auto send_id = emit({.kind = obs::EventKind::kSend,
                             .entity = entity_of(from),
                             .peer = entity_of(to),
                             .channel = channel,
                             .arg = env.proto,
                             .detail = attempt == 0 ? "" : "retx"});
  const char* why = nullptr;
  if (wireless_frame_lost(index(from), &why)) {
    const auto drop_id = emit({.kind = obs::EventKind::kMsgDropped,
                               .entity = entity_of(from),
                               .peer = entity_of(to),
                               .cause = send_id,
                               .channel = channel,
                               .arg = env.proto,
                               .detail = why});
    ++sl().stats.retransmissions;
    sl().delivery_retry_depth.record(attempt + 1);
    sl().sched.schedule(retransmit_backoff(attempt),
                        [this, from, to, attempt, wseq, cause = drop_id, env = std::move(env),
                         on_fail = std::move(on_fail)]() mutable {
                          obs::CauseScope scope(sl().events, cause);
                          downlink_attempt(from, std::move(env), to, std::move(on_fail),
                                           attempt + 1, wseq);
                        });
    return;
  }
  // The downlink is in-cell traffic: the MH's lane is its cell, so the
  // draw belongs to the sender MSS's lane either way.
  auto latency = sample(index(from), cfg_.latency.wireless_min, cfg_.latency.wireless_max);
  const bool duplicated = fault_ && fault_->draw_wireless_dup();
  if (fault_) latency += fault_->draw_wireless_spike();
  if (duplicated) {
    // The link layer repeats the frame: a full extra transmission with
    // its own airtime, FIFO-clamped behind the original so the receiver
    // always sees (and suppresses) the copy second.
    fault_->count_dup();
    emit({.kind = obs::EventKind::kMsgDuplicated,
          .entity = entity_of(from),
          .peer = entity_of(to),
          .cause = send_id,
          .channel = channel,
          .arg = env.proto});
  }
  const auto arrival = fifo_arrival(chan.fifo_clock, ChannelType::kDownlink, latency);
  sl().sched.schedule_at(arrival, [this, from, to, send_id, channel, wseq, env,
                                   on_fail = std::move(on_fail)]() mutable {
    deliver_downlink_frame(from, to, send_id, channel, wseq, std::move(env),
                           std::move(on_fail));
  });
  if (duplicated) {
    const auto copy_latency =
        fault_->draw_latency(cfg_.latency.wireless_min, cfg_.latency.wireless_max);
    const auto copy_arrival =
        fifo_arrival(chan.fifo_clock, ChannelType::kDownlink, copy_latency);
    // No on_fail on the copy: it is link-layer noise, and resurrecting an
    // already-delivered frame through the retry path would ghost-deliver.
    sl().sched.schedule_at(copy_arrival, [this, from, to, send_id, channel, wseq,
                                          env = std::move(env)]() mutable {
      deliver_downlink_frame(from, to, send_id, channel, wseq, std::move(env), {});
    });
  }
}

void Network::deliver_downlink_frame(MssId from, MhId to, obs::EventId send_id,
                                     std::uint64_t channel, std::uint64_t wseq, Envelope env,
                                     FailCallback on_fail) {
  auto& dest = mh(to);
  if (dest.current_mss() != from) {
    // The MH left between transmission and (would-be) reception: the
    // frame is lost in the old cell — §2's prefix-delivery rule. No
    // recv event: the send stays unconsumed in the stream.
    if (on_fail) on_fail(env);
    return;
  }
  if (!cell_record(from, to).downlink.dedup.deliver(wseq)) {
    // A link-layer copy of a frame this MH already consumed: silently
    // suppressed, its send stays unconsumed in the stream.
    ++sl().stats.dup_suppressed;
    return;
  }
  if (!env.control) sl().ledger.charge_wireless(index(to), /*mh_transmitted=*/false);
  if (env.control) ++sl().stats.control_msgs;
  if (dest.dozing()) ++sl().stats.doze_interruptions;
  const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                             .entity = entity_of(to),
                             .peer = entity_of(from),
                             .cause = send_id,
                             .channel = channel,
                             .arg = env.proto});
  obs::CauseScope scope(sl().events, recv_id);
  dest.deliver(env);
}

void Network::send_wireless_uplink(MhId from, Envelope env) {
  auto& host = mh(from);
  if (!host.connected()) {
    throw std::logic_error("send_wireless_uplink: " + to_string(from) + " is not in a cell");
  }
  const MssId target = host.current_mss();
  if (!env.control) {
    sl().ledger.charge_wireless(index(from), /*mh_transmitted=*/true);
  } else {
    ++sl().stats.control_msgs;
  }
  uplink_attempt(from, target, std::move(env), host.joins_completed(), 0, 0);
}

void Network::uplink_attempt(MhId from, MssId target, Envelope env, std::uint64_t epoch,
                             std::uint32_t attempt, std::uint64_t wseq) {
  const auto channel = channel_key(ChannelType::kUplink, index(from), index(target));
  auto& chan = cell_record(target, from).uplink;
  if (attempt == 0) wseq = ++chan.next_wseq;
  const auto send_id = emit({.kind = obs::EventKind::kSend,
                             .entity = entity_of(from),
                             .peer = entity_of(target),
                             .channel = channel,
                             .arg = env.proto,
                             .detail = attempt == 0 ? "" : "retx"});
  const char* why = nullptr;
  if (wireless_frame_lost(index(target), &why)) {
    const auto drop_id = emit({.kind = obs::EventKind::kMsgDropped,
                               .entity = entity_of(from),
                               .peer = entity_of(target),
                               .cause = send_id,
                               .channel = channel,
                               .arg = env.proto,
                               .detail = why});
    ++sl().stats.retransmissions;
    sl().delivery_retry_depth.record(attempt + 1);
    sl().sched.schedule(retransmit_backoff(attempt),
                        [this, from, target, epoch, attempt, wseq, cause = drop_id,
                         env = std::move(env)]() mutable {
                          obs::CauseScope scope(sl().events, cause);
                          // Leave/Disconnect frames describe a departure the
                          // §2 join/handoff protocol has already superseded
                          // once the MH completed another join; delivering a
                          // stale copy now could only evict a live member.
                          // Every other uplink keeps retrying: the link layer
                          // owes eventual delivery to the cell the frame was
                          // sent in, no matter where the MH went since.
                          if (env.proto == protocol::kSystem &&
                              mh(from).joins_completed() != epoch) {
                            return;
                          }
                          uplink_attempt(from, target, std::move(env), epoch, attempt + 1, wseq);
                        });
    return;
  }
  // The uplink stays inside the cell too: the target MSS's lane is the
  // MH's lane, so this is a same-lane draw in the sharded engine.
  auto latency = sample(index(target), cfg_.latency.wireless_min, cfg_.latency.wireless_max);
  const bool duplicated = fault_ && fault_->draw_wireless_dup();
  if (fault_) latency += fault_->draw_wireless_spike();
  if (duplicated) {
    fault_->count_dup();
    emit({.kind = obs::EventKind::kMsgDuplicated,
          .entity = entity_of(from),
          .peer = entity_of(target),
          .cause = send_id,
          .channel = channel,
          .arg = env.proto});
  }
  const auto arrival = fifo_arrival(chan.fifo_clock, ChannelType::kUplink, latency);
  auto deliver = [this, from, target, send_id, channel, wseq](Envelope frame) {
    if (!cell_record(target, from).uplink.dedup.deliver(wseq)) {
      ++sl().stats.dup_suppressed;
      return;
    }
    const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                               .entity = entity_of(target),
                               .peer = entity_of(from),
                               .cause = send_id,
                               .channel = channel,
                               .arg = frame.proto});
    obs::CauseScope scope(sl().events, recv_id);
    mss(target).dispatch(frame);
  };
  sl().sched.schedule_at(arrival, [deliver, env]() mutable { deliver(std::move(env)); });
  if (duplicated) {
    const auto copy_latency =
        fault_->draw_latency(cfg_.latency.wireless_min, cfg_.latency.wireless_max);
    const auto copy_arrival = fifo_arrival(chan.fifo_clock, ChannelType::kUplink, copy_latency);
    sl().sched.schedule_at(copy_arrival,
                           [deliver, env = std::move(env)]() mutable { deliver(std::move(env)); });
  }
}

// ---------------------------------------------------------------------------
// Locate + deliver
// ---------------------------------------------------------------------------

void Network::send_to_mh(MssId from, Envelope env, MhId to, SendPolicy policy) {
  require_legacy("send_to_mh()");
  send_to_mh_attempt(from, std::move(env), to, policy, 0);
}

void Network::send_to_mh_attempt(MssId from, Envelope env, MhId to, SendPolicy policy,
                                 std::uint32_t attempt) {
  env.dst = to;
  locate(from, to, [this, from, env = std::move(env), to, policy,
                    attempt](MssId at, bool disconnected) mutable {
    if (disconnected) {
      if (policy == SendPolicy::kNotifyIfDisconnected) {
        // The MSS holding the "disconnected" flag notifies the sender,
        // returning the undelivered body (L2's disconnect handling).
        ++sl().stats.unreachable_notices;
        msg::UnreachableNotice notice{to, env.proto, env.body};
        send_wired(at, from, make_control(NodeRef(at), NodeRef(from), std::move(notice)));
      } else {
        ++sl().stats.queued_for_reconnect;
        parked_[to].push_back(Parked{std::move(env)});
      }
      return;
    }
    // Forward to the located MSS. In oracle mode the forward leg is part
    // of the single c_search charge; in broadcast mode it is a real
    // wired message.
    if (cfg_.search == SearchMode::kBroadcast && at != from) sl().ledger.charge_fixed();
    // The retry path re-launches from a scheduled lambda where no
    // dispatch scope is active; carry the locate resolution's cause into
    // it so retries stay on the causal chain.
    auto deliver = [this, at, env = std::move(env), to, policy, attempt,
                    cause = sl().events.current_cause()]() mutable {
      send_wireless_downlink(
          at, std::move(env), to,
          [this, at, to, policy, attempt, cause](const Envelope& failed) {
            ++sl().stats.delivery_retries;
            sl().delivery_retry_depth.record(attempt + 1);
            // Re-launch from the cell that noticed the miss: its MSS
            // searches again, as the paper's footnote 1 describes. The
            // backoff is essential: a just-departed MH can still sit in the
            // local list until its leave() lands, and an instant retry would
            // re-resolve to the same cell in the same virtual instant,
            // spinning forever without advancing time.
            const auto backoff = cfg_.latency.wireless_max + 1;
            sl().sched.schedule(backoff, [this, at, env = failed, to, policy, attempt, cause]() {
              obs::CauseScope scope(sl().events, cause);
              send_to_mh_attempt(at, env, to, policy, attempt + 1);
            });
          });
    };
    if (at == from) {
      deliver();
    } else {
      // The forward leg bypasses the formation queue (it delivers via a
      // closure, not dispatch), but shares the wired channel with it:
      // flush the pending packet first so this send cannot overtake
      // messages queued earlier on the same channel.
      if (sl().formation) sl().formation->flush_pair(from, at, "barrier");
      auto latency = sample(index(from), cfg_.latency.wired_min, cfg_.latency.wired_max);
      if (fault_) latency += fault_->draw_wired_spike();
      const auto arrival = fifo_arrival(wired_clock(from, at), ChannelType::kWired, latency);
      const auto channel = channel_key(ChannelType::kWired, index(from), index(at));
      const auto fwd_id = emit({.kind = obs::EventKind::kSend,
                                .entity = entity_of(from),
                                .peer = entity_of(at),
                                .channel = channel,
                                .arg = env.proto,
                                .detail = "forward"});
      sl().sched.schedule_at(arrival, [this, from, at, fwd_id, channel, proto = env.proto,
                                       deliver = std::move(deliver)]() mutable {
        arrive_deferred(from, at, fwd_id, channel, proto, "forward", std::move(deliver));
      });
    }
  });
}

void Network::relay_to_mh(MssId via, const msg::Relay& relay) {
  ++sl().stats.relay_msgs;
  Envelope env;
  env.proto = protocol::kRelay;
  env.src = relay.src_mh;
  env.dst = relay.dst_mh;
  env.body = relay;
  // Not control: the final wireless hop must charge c_wireless, giving
  // the §2 MH-to-MH total of 2*c_wireless + c_search.
  env.control = false;
  send_to_mh(via, std::move(env), relay.dst_mh, SendPolicy::kEventualDelivery);
}

void Network::locate(MssId from, MhId target, LocateCallback cb) {
  require_legacy("locate()");
  ++sl().stats.searches_started;
  switch (cfg_.search) {
    case SearchMode::kOracle: oracle_locate(from, target, std::move(cb)); return;
    case SearchMode::kBroadcast: broadcast_locate(from, target, std::move(cb)); return;
  }
}

void Network::oracle_locate(MssId from, MhId target, LocateCallback cb) {
  const bool local_hit = mh(target).current_mss() == from;
  if (cfg_.charge_search_for_local || !local_hit) sl().ledger.charge_search();
  emit({.kind = obs::EventKind::kSearchRound,
        .entity = entity_of(from),
        .peer = entity_of(target),
        .arg = 1,
        .detail = "oracle"});
  const auto delay = sample(index(from), cfg_.latency.search_min, cfg_.latency.search_max);
  sl().sched.schedule(delay, [this, from, target, cause = sl().events.current_cause(),
                              cb = std::move(cb)]() mutable {
    obs::CauseScope scope(sl().events, cause);
    auto& host = mh(target);
    switch (host.state()) {
      case MhState::kConnected:
        sl().search_rounds.record(1);
        cb(host.current_mss(), false);
        return;
      case MhState::kDisconnected:
        sl().search_rounds.record(1);
        cb(host.last_mss(), true);
        return;
      case MhState::kInTransit:
        // The model guarantees eventual delivery across moves: park the
        // resolution until the MH joins its next cell.
        ++sl().stats.searches_pended;
        pending_locates_[target].push_back(PendingLocate{from, std::move(cb)});
        return;
    }
  });
}

void Network::broadcast_locate(MssId from, MhId target, LocateCallback cb) {
  // Degenerate single-MSS system: the only cell is ours. The fast path
  // must still distinguish all three MH states — reporting an in-transit
  // target as connected would spin the downlink fail/retry loop until
  // its join lands; park the resolution like oracle_locate does instead.
  if (cfg_.num_mss == 1) {
    emit({.kind = obs::EventKind::kSearchRound,
          .entity = entity_of(from),
          .peer = entity_of(target),
          .arg = 1,
          .detail = "broadcast"});
    sl().sched.schedule(0, [this, from, target, cause = sl().events.current_cause(),
                            cb = std::move(cb)]() mutable {
      obs::CauseScope scope(sl().events, cause);
      auto& host = mh(target);
      switch (host.state()) {
        case MhState::kConnected:
          sl().search_rounds.record(1);
          cb(from, false);
          return;
        case MhState::kDisconnected:
          sl().search_rounds.record(1);
          cb(host.last_mss(), true);
          return;
        case MhState::kInTransit:
          ++sl().stats.searches_pended;
          pending_locates_[target].push_back(PendingLocate{from, std::move(cb)});
          return;
      }
    });
    return;
  }
  const std::uint64_t token = next_search_token_++;
  broadcast_[token] = BroadcastSearch{from, target, std::move(cb)};
  broadcast_round(token);
}

void Network::broadcast_round(std::uint64_t token) {
  auto it = broadcast_.find(token);
  if (it == broadcast_.end()) return;
  auto& search = it->second;
  search.replies = 0;
  ++search.round;
  search.found = false;
  search.saw_disconnected = false;
  emit({.kind = obs::EventKind::kSearchRound,
        .entity = entity_of(search.origin),
        .peer = entity_of(search.target),
        .arg = search.round,
        .detail = "broadcast"});
  // Before spraying queries, check our own cell (free).
  if (mss(search.origin).is_local(search.target)) {
    auto cb = std::move(search.cb);
    const MssId origin = search.origin;
    sl().search_rounds.record(search.round);
    broadcast_.erase(it);
    cb(origin, false);
    return;
  }
  for (std::uint32_t i = 0; i < cfg_.num_mss; ++i) {
    const auto dest = static_cast<MssId>(i);
    if (dest == search.origin) continue;
    // Queries are the paper's worst-case "contact each of the other M-1
    // MSSs": real, charged fixed-network messages.
    Envelope env =
        make_envelope(protocol::kSystem, NodeRef(search.origin), NodeRef(dest),
                      msg::SearchQuery{search.target, search.origin, token, search.round});
    send_wired(search.origin, dest, std::move(env));
  }
}

void Network::handle_search_query(MssId at, const msg::SearchQuery& query) {
  auto& station = mss(at);
  msg::SearchReply reply{query.target, at, query.token, query.round,
                         station.is_local(query.target),
                         station.has_disconnected_flag(query.target)};
  // Only the useful (positive) reply is charged; negative replies are
  // modeled as piggybacked control traffic, so one worst-case search
  // costs (M-1) queries + 1 reply + 1 forward in fixed messages.
  Envelope env;
  env.proto = protocol::kSystem;
  env.body = reply;
  env.control = !(reply.here || reply.disconnected);
  send_wired(at, query.origin, std::move(env));
}

void Network::handle_search_reply(const msg::SearchReply& reply) {
  auto it = broadcast_.find(reply.token);
  if (it == broadcast_.end()) return;  // already resolved
  auto& search = it->second;
  // A positive sighting is acted on regardless of age; negative replies
  // from superseded rounds must not count toward the current quorum
  // (double-counting them would spawn overlapping retry rounds).
  if (!reply.here && reply.round != search.round) return;
  ++search.replies;
  if (reply.here) {
    auto cb = std::move(search.cb);
    const MssId at = reply.from;
    sl().search_rounds.record(search.round);
    broadcast_.erase(it);
    cb(at, false);
    return;
  }
  if (reply.disconnected) {
    search.saw_disconnected = true;
    search.disconnected_at = reply.from;
  }
  if (search.replies >= cfg_.num_mss - 1) {
    if (search.saw_disconnected) {
      auto cb = std::move(search.cb);
      const MssId at = search.disconnected_at;
      sl().search_rounds.record(search.round);
      broadcast_.erase(it);
      cb(at, true);
      return;
    }
    // Nobody has it: target is in transit. Retry after a jittered pause
    // (a fixed period can phase-lock with a periodic mover and miss it
    // on every round).
    const std::uint64_t token = reply.token;
    const auto jitter = rng_.below(cfg_.latency.broadcast_retry / 2 + 1);
    sl().sched.schedule(cfg_.latency.broadcast_retry + jitter,
                        [this, token, cause = sl().events.current_cause()]() {
                          obs::CauseScope scope(sl().events, cause);
                          broadcast_round(token);
                        });
  }
}

void Network::submit_join(MhId from, MssId target, msg::Join join) {
  require_legacy("submit_join()");
  ++sl().stats.control_msgs;
  join_attempt(from, target, join, 0, 0);
}

void Network::join_attempt(MhId from, MssId target, msg::Join join, std::uint32_t attempt,
                           std::uint64_t wseq) {
  const auto channel = channel_key(ChannelType::kUplink, index(from), index(target));
  auto& chan = cell_record(target, from).uplink;
  if (attempt == 0) wseq = ++chan.next_wseq;
  const auto send_id = emit({.kind = obs::EventKind::kSend,
                             .entity = entity_of(from),
                             .peer = entity_of(target),
                             .channel = channel,
                             .arg = protocol::kSystem,
                             .detail = attempt == 0 ? "join" : "join retx"});
  const char* why = nullptr;
  if (wireless_frame_lost(index(target), &why)) {
    const auto drop_id = emit({.kind = obs::EventKind::kMsgDropped,
                               .entity = entity_of(from),
                               .peer = entity_of(target),
                               .cause = send_id,
                               .channel = channel,
                               .arg = protocol::kSystem,
                               .detail = why});
    ++sl().stats.retransmissions;
    sl().delivery_retry_depth.record(attempt + 1);
    sl().sched.schedule(retransmit_backoff(attempt),
                        [this, from, target, join, attempt, wseq, cause = drop_id]() {
                          obs::CauseScope scope(sl().events, cause);
                          // Joining is the one state a MH cannot leave on its
                          // own (move_to/disconnect require connectivity), so
                          // retry until the join lands.
                          if (mh(from).connected()) return;
                          join_attempt(from, target, join, attempt + 1, wseq);
                        });
    return;
  }
  auto latency = sample(index(target), cfg_.latency.wireless_min, cfg_.latency.wireless_max);
  const bool duplicated = fault_ && fault_->draw_wireless_dup();
  if (fault_) latency += fault_->draw_wireless_spike();
  if (duplicated) {
    fault_->count_dup();
    emit({.kind = obs::EventKind::kMsgDuplicated,
          .entity = entity_of(from),
          .peer = entity_of(target),
          .cause = send_id,
          .channel = channel,
          .arg = protocol::kSystem});
  }
  const auto arrival = fifo_arrival(chan.fifo_clock, ChannelType::kUplink, latency);
  auto deliver = [this, from, target, send_id, channel, wseq, join]() {
    if (!cell_record(target, from).uplink.dedup.deliver(wseq)) {
      ++sl().stats.dup_suppressed;
      return;
    }
    const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                               .entity = entity_of(target),
                               .peer = entity_of(from),
                               .cause = send_id,
                               .channel = channel,
                               .arg = protocol::kSystem,
                               .detail = "join"});
    obs::CauseScope scope(sl().events, recv_id);
    mss(target).dispatch(make_control(NodeRef(join.mh), NodeRef(target), join));
  };
  sl().sched.schedule_at(arrival, deliver);
  if (duplicated) {
    const auto copy_latency =
        fault_->draw_latency(cfg_.latency.wireless_min, cfg_.latency.wireless_max);
    const auto copy_arrival = fifo_arrival(chan.fifo_clock, ChannelType::kUplink, copy_latency);
    sl().sched.schedule_at(copy_arrival, deliver);
  }
}

void Network::on_mh_rejoined(MhId mh_id, MssId at) {
  // Flush searches that were waiting for this MH to land.
  if (auto it = pending_locates_.find(mh_id); it != pending_locates_.end()) {
    auto waiting = std::move(it->second);
    pending_locates_.erase(it);
    for (auto& pending : waiting) pending.cb(at, false);
  }
  // Deliver messages parked while it was disconnected.
  if (auto it = parked_.find(mh_id); it != parked_.end()) {
    auto queue = std::move(it->second);
    parked_.erase(it);
    for (auto& parked : queue) {
      Envelope env = std::move(parked.env);
      send_wireless_downlink(at, std::move(env), mh_id,
                             [this, at, mh_id](const Envelope& failed) {
                               ++sl().stats.delivery_retries;
                               sl().delivery_retry_depth.record(1);
                               const auto backoff = cfg_.latency.wireless_max + 1;
                               sl().sched.schedule(backoff, [this, at, env = failed, mh_id]() {
                                 send_to_mh(at, env, mh_id, SendPolicy::kEventualDelivery);
                               });
                             });
    }
  }
}

}  // namespace mobidist::net
