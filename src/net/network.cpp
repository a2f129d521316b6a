#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mobidist::net {

constinit thread_local std::uint32_t Network::tls_shard_ = 0;

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
  return seed + sim::kSplitmixGamma * (static_cast<std::uint64_t>(lane) + 1);
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
  MobileHost* rows = std::allocator<MobileHost>().allocate(cfg_.num_mh);
  for (std::uint32_t i = 0; i < cfg_.num_mh; ++i) {
    std::construct_at(rows + i, *this, static_cast<MhId>(i));
  }
  mh_ = {rows, HostRowsDelete{cfg_.num_mh}};
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
    mh_[i].mss_ = static_cast<MssId>(cell);
    mh_[i].state_ = MhState::kConnected;
    mss_[cell]->place_local(static_cast<MhId>(i));
    mh_lane_.push_back(cell);
  }
}

Network::~Network() = default;

void Network::HostRowsDelete::operator()(MobileHost* rows) const noexcept {
  std::destroy_n(rows, count);
  std::allocator<MobileHost>().deallocate(rows, count);
}

Mss& Network::mss(MssId id) {
  assert(index(id) < mss_.size());
  return *mss_[index(id)];
}
const Mss& Network::mss(MssId id) const {
  assert(index(id) < mss_.size());
  return *mss_[index(id)];
}
MobileHost& Network::mh(MhId id) {
  assert(index(id) < cfg_.num_mh);
  return mh_[index(id)];
}
const MobileHost& Network::mh(MhId id) const {
  assert(index(id) < cfg_.num_mh);
  return mh_[index(id)];
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

std::vector<const obs::EventStream*> Network::streams() const {
  std::vector<const obs::EventStream*> streams;
  streams.reserve(slices_.size());
  for (const auto& slice : slices_) streams.push_back(&slice->events);
  return streams;
}

void Network::for_each_event(const std::function<void(const obs::Event&)>& fn) const {
  if (!sharded()) {
    slices_[0]->events.for_each(fn);
    return;
  }
  obs::for_each_canonical(streams(), [this](obs::Entity e) { return lane_of(e); }, fn);
}

std::vector<obs::Event> Network::merged_events() const {
  return obs::merge_canonical(streams(), [this](obs::Entity e) { return lane_of(e); });
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

Network::AgentTable& Network::agent_table(ProtocolId proto) {
  auto [it, added] = agent_tables_.try_emplace(proto);
  if (added) it->second.mss.resize(cfg_.num_mss);
  return it->second;
}

const Network::AgentTable* Network::find_agent_table(ProtocolId proto) const noexcept {
  const auto it = agent_tables_.find(proto);
  return it == agent_tables_.end() ? nullptr : &it->second;
}

void Network::start() {
  if (started_) return;
  started_ = true;
  const auto start = [](auto& agent) { agent.on_start(); };
  for (const auto& station : mss_) for_each_agent(station->id(), start);
  for (std::uint32_t i = 0; i < cfg_.num_mh; ++i) for_each_agent(static_cast<MhId>(i), start);
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

Network::DedupState Network::wireless_dedup(MssId cell, MhId mh, bool downlink) const {
  const auto& slice = *slices_[shard_of(index(cell))];
  const auto i = find_record(slice, cell, mh);
  if (i == kNoRecord) return {};
  const auto& record = slice.record(i);
  if ((record.parked & (downlink ? 1 : 2)) == 0) {
    return {(downlink ? record.downlink : record.uplink).floor, 0};
  }
  const auto& window = slice.parked.at(ShardSlice::window_key(i, downlink));
  return {window.floor, window.above.size()};
}

std::size_t Network::parked_windows() const noexcept {
  std::size_t total = 0;
  for (const auto& slice : slices_) total += slice->parked.size();
  return total;
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

std::uint32_t Network::find_record(const ShardSlice& slice, MssId cell, MhId mh) {
  auto i = slice.first_record[index(mh)];
  while (i != kNoRecord && slice.record(i).cell != cell) i = slice.record(i).next;
  return i;
}

const Network::CellRecord* Network::find_cell_record(MssId cell, MhId mh) const {
  const auto& slice = *slices_[shard_of(index(cell))];
  const auto i = find_record(slice, cell, mh);
  return i == kNoRecord ? nullptr : &slice.record(i);
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

sim::SimTime Network::wired_transit(MssId from, MssId to) {
  auto latency = sample(index(from), cfg_.latency.wired_min, cfg_.latency.wired_max);
  if (fault_) latency += fault_->draw_wired_spike();
  return fifo_arrival(wired_clock(from, to), ChannelType::kWired, latency);
}

obs::EventId Network::wired_send(MssId from, MssId to, std::uint64_t channel,
                                ProtocolId proto, std::string_view detail) {
  return emit({.kind = obs::EventKind::kSend,
               .entity = entity_of(from),
               .peer = entity_of(to),
               .channel = channel,
               .arg = proto,
               .detail = detail});
}

Network::WiredCause Network::wired_cause(MssId from, MssId to,
                                         obs::EventId send_id) const {
  if (!sharded() || from == to) return {send_id, 0};
  return {obs::make_cross_ref(tls_shard_, send_id), sl().events.lamport_of(send_id)};
}

template <typename Fn>
void Network::land_wired(MssId from, MssId to, sim::SimTime at, Fn fn) {
  if (sharded() && from != to) {
    // Every cross-MSS hop rides the window mailbox — even when both
    // lanes share a shard — so the injection order (and with it the
    // receiver's event sequence) is a pure function of the mail set,
    // not of the grouping. The sharded engine has no fault plane.
    post_mail(index(from), index(to), at, std::move(fn));
    return;
  }
  auto landing = [this, from, to, fn = std::move(fn)]() mutable {
    if (fault_) {
      // A crashed (or partitioned-off) destination leaves the message
      // waiting at its network interface; re-offer it when the outage
      // window closes. Deferrals preserve per-channel FIFO order: every
      // arrival during one window reschedules to the same release
      // instant, and the scheduler breaks same-instant ties in
      // scheduling order.
      const auto now = sl().sched.now();
      const auto release = fault_->wired_release_at(index(from), index(to), now);
      if (release > now) {
        fault_->count_deferral();
        land_wired(from, to, release, std::move(fn));
        return;
      }
    }
    fn();
  };
  // The mailbox stores `fn` alone, which is smaller still.
  static_assert(sizeof(landing) <= sim::SmallFn::kInlineCapacity &&
                    std::is_nothrow_move_constructible_v<decltype(landing)>,
                "a wired landing must fit sim::SmallFn's inline buffer");
  sl().sched.schedule_at(at, std::move(landing));
}

template <typename Fn>
void Network::arrive_wired(MssId from, MssId to, WiredCause cause, std::uint64_t channel,
                           ProtocolId proto, std::string_view detail, Fn&& handle) {
  const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                             .entity = entity_of(to),
                             .peer = entity_of(from),
                             .cause = cause.id,
                             .channel = channel,
                             .arg = proto,
                             .detail = detail,
                             .cause_clock = cause.clock});
  obs::CauseScope scope(sl().events, recv_id);
  handle();
}

void Network::send_wired(MssId from, MssId to, Envelope env) {
  env.src = from;
  env.dst = to;
  // Local dispatch is free, but still goes through the event queue so
  // agent reentrancy is impossible. Channel 0: self-sends are unordered
  // relative to wired traffic.
  auto arrival = sl().sched.now();
  std::uint64_t channel = 0;
  if (from != to) {
    if (sl().formation) {
      enqueue_wired(from, to, std::move(env));
      return;
    }
    if (!env.control) sl().ledger.charge_fixed();
    arrival = wired_transit(from, to);
    channel = channel_key(ChannelType::kWired, index(from), index(to));
  }
  const auto send_id = wired_send(from, to, channel, env.proto);
  land_wired(from, to, arrival,
             [this, from, to, cause = wired_cause(from, to, send_id), channel,
              env = std::move(env)]() mutable {
               const auto proto = env.proto;
               arrive_wired(from, to, cause, channel, proto, {},
                            [&] { deliver_wired(to, std::move(env)); });
             });
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
  const auto send_id = wired_send(from, to, channel, env.proto);
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
  const auto from = packet.from;
  const auto to = packet.to;
  const auto arrival = wired_transit(from, to);
  const auto channel = channel_key(ChannelType::kWired, index(from), index(to));
  const auto packet_id = emit({.kind = obs::EventKind::kPacketSend,
                               .entity = entity_of(from),
                               .peer = entity_of(to),
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
  // Each coalesced message's recv cites its own send.
  for (auto& item : packet.items) {
    const auto cause = wired_cause(from, to, item.send_id);
    item.send_id = cause.id;
    item.send_clock = cause.clock;
  }
  land_wired(from, to, arrival,
             [this, packet = std::move(packet), cause = wired_cause(from, to, packet_id),
              channel]() mutable { arrive_packet(std::move(packet), cause, channel); });
}

void Network::arrive_packet(FormationLayer::Packet packet, WiredCause cause,
                            std::uint64_t channel) {
  emit({.kind = obs::EventKind::kPacketFlush,
        .entity = entity_of(packet.to),
        .peer = entity_of(packet.from),
        .cause = cause.id,
        .channel = channel,
        .arg = packet.items.size(),
        .detail = packet.trigger,
        .cause_clock = cause.clock});
  // Disgorge in send order; each message's recv consumes its own send,
  // so the per-message FIFO history is indistinguishable from unbatched
  // delivery at the same instant.
  for (auto& item : packet.items) {
    arrive_wired(packet.from, packet.to, {item.send_id, item.send_clock}, channel,
                 item.env.proto, "packet",
                 [&] { deliver_wired(packet.to, std::move(item.env)); });
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

bool Network::dedup(ShardSlice& slice, std::uint32_t i, bool downlink, std::uint64_t wseq) {
  auto& record = slice.record(i);
  auto& chan = downlink ? record.downlink : record.uplink;
  const std::uint8_t bit = downlink ? 1 : 2;
  if ((record.parked & bit) == 0) {
    // Nothing parked: the window is the floor alone, as WseqDedup's
    // first two cases read it.
    if (wseq <= chan.floor) return false;
    if (wseq == chan.floor + 1) {
      ++chan.floor;
      return true;
    }
  }
  const auto [it, added] = slice.parked.try_emplace(ShardSlice::window_key(i, downlink));
  auto& window = it->second;
  if (added) {
    window.floor = chan.floor;
    record.parked |= bit;
  }
  const bool fresh = window.deliver(wseq);
  if (window.above.empty()) {
    chan.floor = window.floor;
    record.parked &= ~bit;
    slice.parked.erase(it);
  }
  return fresh;
}

void Network::send_wireless_downlink(MssId from, Envelope env, MhId to,
                                     FailCallback on_fail) {
  wireless_attempt(Frame{.kind = FrameKind::kDownlink, .cell = from, .mh = to}, std::move(env),
                   std::move(on_fail));
}

void Network::send_wireless_uplink(MhId from, Envelope env) {
  auto& host = mh(from);
  if (!host.connected()) {
    throw std::logic_error("send_wireless_uplink: " + to_string(from) + " is not in a cell");
  }
  if (!env.control) {
    sl().ledger.charge_wireless(index(from), /*mh_transmitted=*/true);
  } else {
    ++sl().stats.control_msgs;
  }
  wireless_attempt(Frame{.kind = FrameKind::kUplink,
                         .cell = host.current_mss(),
                         .mh = from,
                         .epoch = host.joins_completed()},
                   std::move(env), {});
}

void Network::submit_join(MhId from, MssId target, msg::Join join) {
  require_legacy("submit_join()");
  ++sl().stats.control_msgs;
  wireless_attempt(Frame{.kind = FrameKind::kJoin, .cell = target, .mh = from},
                   make_control(NodeRef(join.mh), NodeRef(target), join), {});
}

void Network::wireless_attempt(Frame frame, Envelope env, FailCallback on_fail) {
  if (frame.downlink() && mh(frame.mh).current_mss() != frame.cell) {
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
  auto& record = cell_record(frame.cell, frame.mh);
  auto& chan = frame.downlink() ? record.downlink : record.uplink;
  if (frame.attempt == 0) frame.wseq = ++chan.next_wseq;
  const bool join = frame.kind == FrameKind::kJoin;
  const auto channel = frame.channel();
  const auto send_id = emit({.kind = obs::EventKind::kSend,
                             .entity = frame.sender(),
                             .peer = frame.receiver(),
                             .channel = channel,
                             .arg = env.proto,
                             .detail = frame.attempt == 0 ? (join ? "join" : "")
                                                          : (join ? "join retx" : "retx")});
  const char* why = nullptr;
  if (wireless_frame_lost(index(frame.cell), &why)) {
    const auto drop_id = emit({.kind = obs::EventKind::kMsgDropped,
                               .entity = frame.sender(),
                               .peer = frame.receiver(),
                               .cause = send_id,
                               .channel = channel,
                               .arg = env.proto,
                               .detail = why});
    ++sl().stats.retransmissions;
    sl().delivery_retry_depth.record(frame.attempt + 1);
    const auto backoff = retransmit_backoff(frame.attempt);
    sl().sched.schedule(backoff, [this, frame, cause = drop_id, env = std::move(env),
                                  on_fail = std::move(on_fail)]() mutable {
      obs::CauseScope scope(sl().events, cause);
      switch (frame.kind) {
        case FrameKind::kDownlink:
          break;  // the next attempt's own cell check gives up first
        case FrameKind::kUplink:
          // Leave/Disconnect frames describe a departure the §2
          // join/handoff protocol has already superseded once the MH
          // completed another join; delivering a stale copy now could only
          // evict a live member. Every other uplink keeps retrying: the
          // link layer owes eventual delivery to the cell the frame was
          // sent in, no matter where the MH went since.
          if (env.proto == protocol::kSystem &&
              mh(frame.mh).joins_completed() != frame.epoch) {
            return;
          }
          break;
        case FrameKind::kJoin:
          // Joining is the one state a MH cannot leave on its own
          // (move_to/disconnect require connectivity), so retry until a
          // join lands.
          if (mh(frame.mh).connected()) return;
          break;
      }
      ++frame.attempt;
      wireless_attempt(frame, std::move(env), std::move(on_fail));
    });
    return;
  }
  // Wireless traffic stays inside the cell: the MH's lane is its cell,
  // so the draw belongs to the cell MSS's lane in either direction.
  auto latency =
      sample(index(frame.cell), cfg_.latency.wireless_min, cfg_.latency.wireless_max);
  const bool duplicated = fault_ && fault_->draw_wireless_dup();
  if (fault_) latency += fault_->draw_wireless_spike();
  if (duplicated) {
    // The link layer repeats the frame: a full extra transmission with
    // its own airtime, FIFO-clamped behind the original so the receiver
    // always sees (and suppresses) the copy second.
    fault_->count_dup();
    emit({.kind = obs::EventKind::kMsgDuplicated,
          .entity = frame.sender(),
          .peer = frame.receiver(),
          .cause = send_id,
          .channel = channel,
          .arg = env.proto});
  }
  const auto type = frame.downlink() ? ChannelType::kDownlink : ChannelType::kUplink;
  const auto arrival = fifo_arrival(chan.fifo_clock, type, latency);
  const auto land = [this, frame, send_id](sim::SimTime at, Envelope copy, FailCallback fail) {
    sl().sched.schedule_at(at, [this, frame, send_id, copy = std::move(copy),
                                fail = std::move(fail)]() mutable {
      land_frame(frame, send_id, std::move(copy), fail);
    });
  };
  if (!duplicated) {
    land(arrival, std::move(env), std::move(on_fail));
    return;
  }
  land(arrival, env, std::move(on_fail));
  // No on_fail on the copy: it is link-layer noise, and resurrecting an
  // already-delivered frame through the retry path would ghost-deliver.
  const auto copy_latency =
      fault_->draw_latency(cfg_.latency.wireless_min, cfg_.latency.wireless_max);
  land(fifo_arrival(chan.fifo_clock, type, copy_latency), std::move(env), {});
}

void Network::land_frame(const Frame& frame, obs::EventId send_id, Envelope env,
                         const FailCallback& on_fail) {
  auto& host = mh(frame.mh);
  if (frame.downlink() && host.current_mss() != frame.cell) {
    // The MH left between transmission and (would-be) reception: the
    // frame is lost in the old cell — §2's prefix-delivery rule. No
    // recv event: the send stays unconsumed in the stream.
    if (on_fail) on_fail(env);
    return;
  }
  auto& slice = *slices_[shard_of(index(frame.cell))];
  if (!dedup(slice, record_link(slice, frame.cell, frame.mh), frame.downlink(), frame.wseq)) {
    // A link-layer copy of a frame the receiver already consumed:
    // silently suppressed, its send stays unconsumed in the stream.
    ++sl().stats.dup_suppressed;
    return;
  }
  if (frame.downlink()) {
    if (!env.control) sl().ledger.charge_wireless(index(frame.mh), /*mh_transmitted=*/false);
    if (env.control) ++sl().stats.control_msgs;
    if (host.dozing()) ++sl().stats.doze_interruptions;
  }
  const auto recv_id = emit({.kind = obs::EventKind::kRecv,
                             .entity = frame.receiver(),
                             .peer = frame.sender(),
                             .cause = send_id,
                             .channel = frame.channel(),
                             .arg = env.proto,
                             .detail = frame.kind == FrameKind::kJoin ? "join" : ""});
  obs::CauseScope scope(sl().events, recv_id);
  if (frame.downlink()) {
    host.deliver(env);
  } else {
    mss(frame.cell).dispatch(env);
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
        // Replayed from the MH's new cell when it reconnects, as a first
        // attempt under the rejoin's cause.
        ++sl().stats.queued_for_reconnect;
        awaiting_join_[to].push_back(
            [this, env = std::move(env), to, policy](MssId cell) mutable {
              final_hop(cell, std::move(env), to, policy, 0, sl().events.current_cause());
            });
      }
      return;
    }
    // Forward to the located MSS. In oracle mode the forward leg is part
    // of the single c_search charge; in broadcast mode it is a real
    // wired message.
    if (cfg_.search == SearchMode::kBroadcast && at != from) sl().ledger.charge_fixed();
    // A retry re-launches from a scheduled lambda where no dispatch
    // scope is active; it runs under the locate resolution's cause so
    // retries stay on the causal chain.
    const auto cause = sl().events.current_cause();
    if (at == from) {
      final_hop(at, std::move(env), to, policy, attempt, cause);
      return;
    }
    // The forward leg bypasses the formation queue (it delivers via a
    // closure, not dispatch), but shares the wired channel with it:
    // flush the pending packet first so this send cannot overtake
    // messages queued earlier on the same channel.
    if (sl().formation) sl().formation->flush_pair(from, at, "barrier");
    const auto arrival = wired_transit(from, at);
    const auto channel = channel_key(ChannelType::kWired, index(from), index(at));
    const auto fwd_id = wired_send(from, at, channel, env.proto, "forward");
    land_wired(from, at, arrival,
               [this, from, at, fwd = wired_cause(from, at, fwd_id), channel,
                env = std::move(env), to, policy, attempt, cause]() mutable {
                 const auto proto = env.proto;
                 arrive_wired(from, at, fwd, channel, proto, "forward", [&] {
                   final_hop(at, std::move(env), to, policy, attempt, cause);
                 });
               });
  });
}

void Network::final_hop(MssId at, Envelope env, MhId to, SendPolicy policy,
                        std::uint32_t attempt, obs::EventId cause) {
  send_wireless_downlink(at, std::move(env), to, [this, at, to, policy, attempt,
                                                   cause](const Envelope& failed) {
    ++sl().stats.delivery_retries;
    sl().delivery_retry_depth.record(attempt + 1);
    // Re-launch from the cell that noticed the miss: its MSS searches
    // again, as the paper's footnote 1 describes. The backoff is
    // essential: a just-departed MH can still sit in the local list until
    // its leave() lands, and an instant retry would re-resolve to the
    // same cell in the same virtual instant, spinning forever without
    // advancing time.
    const auto backoff = cfg_.latency.wireless_max + 1;
    sl().sched.schedule(backoff, [this, at, env = failed, to, policy, attempt, cause]() {
      obs::CauseScope scope(sl().events, cause);
      send_to_mh_attempt(at, env, to, policy, attempt + 1);
    });
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
  if (cfg_.search == SearchMode::kBroadcast && cfg_.num_mss > 1) {
    const std::uint64_t token = next_search_token_++;
    broadcast_[token] = BroadcastSearch{from, target, std::move(cb)};
    broadcast_round(token);
    return;
  }
  // The oracle reads the target's state after one search latency. So
  // does a broadcast in a single-MSS system, at once: the only cell is
  // ours, and reporting an in-transit target as connected would spin the
  // downlink fail/retry loop until its join lands.
  sim::Duration delay = 0;
  if (cfg_.search == SearchMode::kOracle) {
    const bool local_hit = mh(target).current_mss() == from;
    if (cfg_.charge_search_for_local || !local_hit) sl().ledger.charge_search();
    delay = sample(index(from), cfg_.latency.search_min, cfg_.latency.search_max);
  }
  search_round(from, target, 1);
  sl().sched.schedule(delay, [this, target, cause = sl().events.current_cause(),
                              cb = std::move(cb)]() mutable {
    obs::CauseScope scope(sl().events, cause);
    const auto& host = mh(target);
    if (host.state() == MhState::kInTransit) {
      // The model guarantees eventual delivery across moves: the search
      // resolves when the MH joins its next cell.
      ++sl().stats.searches_pended;
      awaiting_join_[target].push_back([cb = std::move(cb)](MssId at) { cb(at, false); });
      return;
    }
    // A connected MH answers from its cell, a disconnected one from the
    // cell holding its "disconnected" flag; last_mss() is both.
    sl().search_rounds.record(1);
    cb(host.last_mss(), host.state() == MhState::kDisconnected);
  });
}

void Network::search_round(MssId origin, MhId target, std::uint64_t round) {
  emit({.kind = obs::EventKind::kSearchRound,
        .entity = entity_of(origin),
        .peer = entity_of(target),
        .arg = round,
        .detail = cfg_.search == SearchMode::kOracle ? "oracle" : "broadcast"});
}

void Network::broadcast_round(std::uint64_t token) {
  auto it = broadcast_.find(token);
  if (it == broadcast_.end()) return;
  auto& search = it->second;
  search.replies = 0;
  ++search.round;
  search.saw_disconnected = false;
  search_round(search.origin, search.target, search.round);
  // Before spraying queries, check our own cell (free).
  if (mss(search.origin).is_local(search.target)) {
    resolve_search(it, search.origin, false);
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

void Network::resolve_search(BroadcastSearches::iterator it, MssId at,
                             bool disconnected) {
  auto cb = std::move(it->second.cb);
  sl().search_rounds.record(it->second.round);
  broadcast_.erase(it);
  cb(at, disconnected);
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
    resolve_search(it, reply.from, false);
    return;
  }
  if (reply.disconnected) {
    search.saw_disconnected = true;
    search.disconnected_at = reply.from;
  }
  if (search.replies >= cfg_.num_mss - 1) {
    if (search.saw_disconnected) {
      resolve_search(it, search.disconnected_at, true);
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

void Network::on_mh_rejoined(MhId mh_id, MssId at) {
  const auto it = awaiting_join_.find(mh_id);
  if (it == awaiting_join_.end()) return;
  // Work that waits again (the MH moved on at once) joins a fresh queue.
  auto waiting = std::move(it->second);
  awaiting_join_.erase(it);
  for (auto& resume : waiting) resume(at);
}

}  // namespace mobidist::net
