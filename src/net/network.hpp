#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.hpp"
#include "fault/fault_plane.hpp"
#include "net/envelope.hpp"
#include "net/formation.hpp"
#include "net/ids.hpp"
#include "net/messages.hpp"
#include "net/mobile_host.hpp"
#include "net/mss.hpp"
#include "net/search.hpp"
#include "net/stats.hpp"
#include "obs/events.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace mobidist::net {

/// Map net-layer identifiers onto the obs layer's entity type (obs sits
/// below net in the dependency order, so it cannot know these ids).
[[nodiscard]] constexpr obs::Entity entity_of(MssId id) noexcept {
  return id == kInvalidMss ? obs::Entity{} : obs::Entity::mss(index(id));
}
/// MH counterpart of entity_of(MssId).
[[nodiscard]] constexpr obs::Entity entity_of(MhId id) noexcept {
  return id == kInvalidMh ? obs::Entity{} : obs::Entity::mh(index(id));
}
/// NodeRef counterpart of entity_of(MssId); kNone maps to the empty entity.
[[nodiscard]] constexpr obs::Entity entity_of(NodeRef ref) noexcept {
  switch (ref.kind) {
    case NodeRef::Kind::kMss: return obs::Entity::mss(ref.idx);
    case NodeRef::Kind::kMh: return obs::Entity::mh(ref.idx);
    case NodeRef::Kind::kNone: break;
  }
  return obs::Entity{};
}

/// Where MHs sit before the simulation starts.
enum class InitialPlacement : std::uint8_t {
  kRoundRobin,  ///< mh i starts in cell i mod M
  kRandom,      ///< uniform random cell
  kAllInCell0,  ///< everyone piled into cell 0 (stress fixture)
};

/// Static configuration of one simulated system.
struct NetConfig {
  std::uint32_t num_mss = 4;   ///< M
  std::uint32_t num_mh = 16;   ///< N (paper: N >> M)
  SearchMode search = SearchMode::kOracle;
  LatencyConfig latency;
  InitialPlacement placement = InitialPlacement::kRoundRobin;
  std::uint64_t seed = 1;
  /// Oracle mode charges c_search even when the target happens to be
  /// local to the sender, matching the paper's unconditional C_search
  /// terms. Disable for "location caching" ablations.
  bool charge_search_for_local = true;
  /// Wired-backbone batching policy. The default is passthrough
  /// (flush_deadline == 0): no formation layer, byte-identical traces to
  /// the unbatched substrate.
  FormationConfig formation;
  /// Shard count for the sharded parallel engine. 0 (the default) is
  /// the legacy single-threaded engine: one global event queue and one
  /// global RNG stream, byte-identical to every pre-sharding trace.
  /// Any value >= 1 selects the sharded engine, which partitions the
  /// MSS topology into min(shards, num_mss) localities synchronized by
  /// conservative time windows (see sim::ShardGroup). The sharded
  /// engine's per-seed results are identical for EVERY shard count —
  /// only wall-clock time changes — but differ from the legacy
  /// engine's, because each lane draws from its own RNG stream. It
  /// supports static topologies only (no mobility, no faults); the
  /// mutating entry points throw std::logic_error when sharded.
  std::uint32_t shards = 0;
};

/// Receiver-side duplicate suppression for reliable wireless channels.
///
/// Every wseq <= `floor` has been delivered; delivered wseqs above the
/// floor park in `above` until the floor catches up. A frame abandoned
/// mid-retry (its MH left the cell for good) leaves a permanent hole
/// below later deliveries, so a plain high-water mark would mis-drop
/// fresh frames — but an unbounded parked set leaks on every abandoned
/// frame. The set is therefore bounded by the retransmit window: once it
/// outgrows kRetransmitWindow, no hole that old can still fill (the
/// sender would have abandoned it), so the oldest gap is declared lost
/// and the floor jumps forward.
struct WseqDedup {
  /// Maximum parked (delivered-out-of-order) wseqs retained; generously
  /// above any plausible in-flight retransmit depth.
  static constexpr std::size_t kRetransmitWindow = 64;

  /// Highest wseq below which everything is considered delivered.
  std::uint64_t floor = 0;
  /// Delivered wseqs above the floor, waiting for the gap to fill.
  std::set<std::uint64_t> above;

  /// Record one delivered wseq; false = duplicate, suppress the frame.
  /// Postcondition: above.size() <= kRetransmitWindow.
  [[nodiscard]] bool deliver(std::uint64_t wseq);
};

/// The §2 system model in one object: M MSSs on a reliable FIFO wired
/// mesh, N MHs reachable over per-cell FIFO wireless links, the
/// join/leave/handoff/disconnect/reconnect protocol, the search
/// substrate, and the cost ledger metering it all.
///
/// Deterministic: every run is a pure function of (NetConfig,
/// registered agents, workload). The legacy engine (cfg.shards == 0) is
/// single-threaded; the sharded engine (cfg.shards >= 1) executes each
/// locality's events single-threaded on its own shard, synchronized by
/// conservative windows, and its canonical merged trace
/// (merged_events()) is byte-identical for every shard count.
class Network {
 public:
  explicit Network(NetConfig cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology & components ----------------------------------------------

  /// M, the number of fixed stations.
  [[nodiscard]] std::uint32_t num_mss() const noexcept { return cfg_.num_mss; }
  /// N, the number of mobile hosts.
  [[nodiscard]] std::uint32_t num_mh() const noexcept { return cfg_.num_mh; }
  /// The configuration this system was built from.
  [[nodiscard]] const NetConfig& config() const noexcept { return cfg_; }

  /// The station with the given id (ids are dense, [0, M)).
  [[nodiscard]] Mss& mss(MssId id);
  [[nodiscard]] const Mss& mss(MssId id) const;
  /// The mobile host with the given id (ids are dense, [0, N)).
  [[nodiscard]] MobileHost& mh(MhId id);
  [[nodiscard]] const MobileHost& mh(MhId id) const;

  /// The simulation kernel driving this system. In the sharded engine
  /// this resolves to the calling shard's scheduler (the main thread
  /// sees shard 0); setup code priming per-entity events should prefer
  /// schedule_on_lane().
  [[nodiscard]] sim::Scheduler& sched() noexcept { return sl().sched; }
  [[nodiscard]] const sim::Scheduler& sched() const noexcept { return sl().sched; }
  /// The system's root deterministic RNG stream (legacy engine; the
  /// sharded engine draws from per-lane streams internally).
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  /// The cost ledger metering every charged hop (the paper's C_* terms).
  /// Shard-local while a sharded run is in flight; after run() returns,
  /// every shard's charges are folded into the slice this returns.
  [[nodiscard]] cost::CostLedger& ledger() noexcept { return sl().ledger; }
  [[nodiscard]] const cost::CostLedger& ledger() const noexcept { return sl().ledger; }
  /// Substrate protocol-event counters (joins, handoffs, retries, ...).
  [[nodiscard]] NetStats& stats() noexcept { return sl().stats; }
  [[nodiscard]] const NetStats& stats() const noexcept { return sl().stats; }
  /// Per-system metric registry: every NetStats counter plus the latency
  /// histograms recorded by the substrate and the algorithm layers.
  /// Shard-local during a sharded run, folded on completion (like
  /// ledger()).
  [[nodiscard]] obs::Registry& metrics() noexcept { return sl().metrics; }
  [[nodiscard]] const obs::Registry& metrics() const noexcept { return sl().metrics; }
  /// Structured causal event stream: every message hop, mobility event,
  /// CS transition, and token movement, with Lamport clocks and causal
  /// parent ids. The calling shard's stream; merged_events() is the
  /// canonical whole-system view.
  [[nodiscard]] obs::EventStream& events() noexcept { return sl().events; }
  [[nodiscard]] const obs::EventStream& events() const noexcept { return sl().events; }
  /// Emit an event stamped with the current sim time; cause defaults to
  /// the recv being dispatched (see obs::CauseScope).
  obs::EventId emit(obs::EventStream::Emit spec) {
    auto& s = sl();
    return s.events.emit(s.sched.now(), std::move(spec));
  }

  // --- sharded engine -------------------------------------------------------

  /// True when this system runs on the sharded engine (cfg.shards >= 1).
  [[nodiscard]] bool sharded() const noexcept { return cfg_.shards > 0; }
  /// Localities actually created: min(cfg.shards, num_mss) when
  /// sharded, 1 for the legacy engine.
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(slices_.size());
  }
  /// The conservative window width the sharded engine synchronizes
  /// with: the wired-latency lower bound, the cheapest any cross-shard
  /// message can travel.
  [[nodiscard]] sim::Duration lookahead() const noexcept { return cfg_.latency.wired_min; }
  /// The lane (unit of single-threaded execution) owning an entity: an
  /// MSS's own index, a MH's (initial) cell. Lane 0 for the empty
  /// entity.
  [[nodiscard]] std::uint32_t lane_of(obs::Entity entity) const noexcept;
  /// Which shard executes a lane.
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t lane) const noexcept {
    return lane % shard_count();
  }
  /// Schedule setup work on the scheduler owning `lane`. Workloads
  /// priming per-entity events before run() must use this instead of
  /// sched(): in the legacy engine it is the global scheduler either
  /// way, in the sharded engine each event lands on the shard that owns
  /// its entity.
  template <typename Fn>
  void schedule_on_lane(std::uint32_t lane, sim::SimTime at, Fn&& fn) {
    slices_[shard_of(lane)]->sched.schedule_at(at, std::forward<Fn>(fn));
  }
  /// Events fired across all shards (== sched().fired() in legacy).
  [[nodiscard]] std::uint64_t total_fired() const noexcept;
  /// True if the last run() stopped on the safety event limit.
  [[nodiscard]] bool hit_event_limit() const noexcept;
  /// Structured events emitted, summed across shards.
  [[nodiscard]] std::uint64_t events_emitted() const noexcept;
  /// Structured events evicted by ring wraparound, summed across shards.
  [[nodiscard]] std::uint64_t events_dropped() const noexcept;
  /// Visit the run's trace, read from the telemetry rings in place: the
  /// legacy engine's one ring in id order, or the sharded engine's
  /// canonical merge (obs::for_each_canonical). This is the trace
  /// exp::run_scenario checks.
  void for_each_event(const std::function<void(const obs::Event&)>& fn) const;
  /// The canonical whole-system trace: all shards' streams merged into
  /// the shard-count-independent order (see obs::for_each_canonical).
  /// Byte-identical across shard counts only while events_dropped() is
  /// zero — ring eviction is per-slice, so once any ring wraps the
  /// retained prefix depends on how emits were grouped.
  /// Detail views point into the shard streams' intern tables — they
  /// stay valid for the Network's lifetime. In the legacy engine this
  /// is the single stream sorted into the same (at, lane) order and
  /// renumbered.
  [[nodiscard]] std::vector<obs::Event> merged_events() const;

  // --- fault injection ------------------------------------------------------

  /// Install a deterministic fault plane driving wireless loss /
  /// duplication / delay spikes, MSS crash-recover schedules, and cell
  /// partitions. Call once, before running the scheduler. The plane
  /// draws from its own RNG stream (fault::fault_stream_seed(cfg.seed)),
  /// never from rng_, so a zero-probability profile leaves the run
  /// byte-identical to one without a plane. Legacy engine only.
  fault::FaultPlane& install_fault_plane(fault::FaultProfile profile);
  /// The installed fault plane; nullptr when the run has none.
  [[nodiscard]] fault::FaultPlane* fault_plane() noexcept { return fault_.get(); }
  [[nodiscard]] const fault::FaultPlane* fault_plane() const noexcept { return fault_.get(); }

  /// Fire on_start on every registered agent (MSS agents first, then MH
  /// agents, each in id order). Call after registering all agents and
  /// before running the scheduler.
  void start();

  /// Convenience: run the scheduler until it drains (with a safety event
  /// limit) and return events fired. A sharded run may be invoked only
  /// once per Network (its measurement state folds into shard 0 on
  /// completion).
  std::uint64_t run(std::uint64_t event_limit = 50'000'000);

  // --- ground truth (setup & verification; does not charge costs) ---------

  /// Current MSS of a connected MH; kInvalidMss otherwise.
  [[nodiscard]] MssId current_mss_of(MhId id) const;
  /// True while `id` is voluntarily disconnected.
  [[nodiscard]] bool is_disconnected(MhId id) const;
  /// True while `id` is between leave() and its next join.
  [[nodiscard]] bool is_in_transit(MhId id) const;

  /// The receiver's duplicate-suppression state of one wireless channel
  /// (see WseqDedup): every wseq <= `floor` has been delivered, and
  /// `parked` wseqs above it wait for a gap to fill.
  struct DedupState {
    std::uint64_t floor = 0;
    std::size_t parked = 0;
  };
  /// The dedup state of the downlink (`downlink`) or uplink channel
  /// between `cell` and `mh`; all zero when `cell` has no record for it.
  [[nodiscard]] DedupState wireless_dedup(MssId cell, MhId mh, bool downlink) const;
  /// Channels with a frame parked above a gap, summed across slices:
  /// the entries of the slices' side tables of dedup windows.
  [[nodiscard]] std::size_t parked_windows() const noexcept;

  // --- messaging (used by agents via the helpers in agent.hpp) ------------

  /// Wired MSS -> MSS send. FIFO per ordered pair; charges the wired
  /// cost terms unless control or self-addressed. With batching enabled
  /// (NetConfig::formation) the message parks in a formation queue and
  /// rides a coalesced packet; in passthrough it goes straight to the
  /// wire as its own packet. In the sharded engine cross-MSS sends ride
  /// the conservative-window mailbox.
  void send_wired(MssId from, MssId to, Envelope env);

  /// The calling shard's formation (batching) layer; nullptr in
  /// passthrough mode.
  [[nodiscard]] FormationLayer* formation() noexcept { return sl().formation.get(); }
  [[nodiscard]] const FormationLayer* formation() const noexcept {
    return sl().formation.get();
  }

  /// Failure callback for a wireless downlink: receives the undelivered
  /// envelope. Taking the envelope as an argument (instead of capturing
  /// it) keeps happy-path callbacks small enough for std::function's
  /// inline buffer — no heap traffic per send.
  using FailCallback = std::function<void(const Envelope&)>;

  /// Wireless downlink to a MH that is local to `from` right now. If the
  /// MH leaves before the frame lands, the sending agent's
  /// on_local_send_failed is NOT invoked (there is none); instead the
  /// optional `on_fail` runs with the undelivered envelope. Charges
  /// c_wireless + rx energy only on successful delivery.
  void send_wireless_downlink(MssId from, Envelope env, MhId to, FailCallback on_fail = {});

  /// Wireless uplink from a connected MH to its current MSS. Always
  /// delivered (the MSS does not move). Charges c_wireless + tx energy
  /// unless control.
  void send_wireless_uplink(MhId from, Envelope env);

  /// Locate a MH (oracle or broadcast per config) and deliver `env` over
  /// the final wireless hop, retrying across moves. See SendPolicy for
  /// disconnect behaviour. `env.dst` must be the MH. Legacy engine only.
  void send_to_mh(MssId from, Envelope env, MhId to, SendPolicy policy);

  /// MH-to-MH relay entry point (wireless uplink leg is charged by the
  /// caller path); invoked by Mss when a kRelay envelope arrives.
  void relay_to_mh(MssId via, const msg::Relay& relay);

  /// Resolve a MH's current MSS. The callback receives (mss,
  /// disconnected): `mss` is the current cell, or the cell holding the
  /// "disconnected" flag when `disconnected` is true. Searches for
  /// in-transit MHs resolve when the MH joins its next cell.
  using LocateCallback = std::function<void(MssId, bool disconnected)>;
  /// Start a location search from `from` for `target` (mode chosen by
  /// NetConfig::search_mode); `cb` fires when the search resolves.
  /// Legacy engine only.
  void locate(MssId from, MhId target, LocateCallback cb);

  /// MH -> MSS join/reconnect transmission in the *new* cell (the MH is
  /// not yet local there, so this cannot ride the normal uplink).
  /// Legacy engine only.
  void submit_join(MhId from, MssId target, msg::Join join);

  /// Broadcast-search protocol handlers (invoked by Mss::dispatch).
  void handle_search_query(MssId at, const msg::SearchQuery& query);
  /// Reply leg of the broadcast search; resolves the pending locate().
  void handle_search_reply(const msg::SearchReply& reply);

  // --- FIFO channel identity ----------------------------------------------

  /// Ordered channels get their own virtual FIFO clock, keyed by
  /// (channel type, endpoint a, endpoint b).
  enum class ChannelType : std::uint8_t { kWired, kDownlink, kUplink };

  /// Endpoint indices must fit in 30 bits so the packed channel key's
  /// fields cannot alias; the constructor rejects larger id spaces.
  static constexpr std::uint32_t kMaxEndpointIndex = (1u << 30) - 1;

  /// Collision-free packed key: 4-bit type | 30-bit a | 30-bit b, each
  /// field explicitly masked to its own bit range.
  [[nodiscard]] static constexpr std::uint64_t channel_key(ChannelType type, std::uint32_t a,
                                                           std::uint32_t b) noexcept {
    static_assert(static_cast<std::uint8_t>(ChannelType::kUplink) < 16,
                  "ChannelType must fit the 4-bit type field");
    return (static_cast<std::uint64_t>(type) << 60) |
           (static_cast<std::uint64_t>(a & kMaxEndpointIndex) << 30) |
           static_cast<std::uint64_t>(b & kMaxEndpointIndex);
  }

 private:
  friend class Mss;
  friend class MobileHost;

  /// Every slice's event stream, in slice order.
  [[nodiscard]] std::vector<const obs::EventStream*> streams() const;

  struct BroadcastSearch {
    MssId origin;
    MhId target;
    LocateCallback cb;
    std::uint32_t replies = 0;
    std::uint64_t round = 0;
    bool saw_disconnected = false;
    MssId disconnected_at = kInvalidMss;
  };
  using BroadcastSearches = std::map<std::uint64_t, BroadcastSearch>;
  /// Work waiting for a MH's next join; runs with the cell it joined.
  using JoinCallback = std::function<void(MssId)>;

  /// What a wired arrival cites as its cause: the send's own id when the
  /// arrival runs on the sender's stream (the legacy engine, or a
  /// self-send); otherwise the cross-stream ref of the send plus the
  /// sender's Lamport clock, which the receiving stream cannot look up
  /// (see obs/merge.hpp).
  struct WiredCause {
    obs::EventId id = 0;
    std::uint64_t clock = 0;  ///< 0: `id` is local to the arrival's stream
  };

  /// One wireless channel's state. `fifo_clock` clamps arrivals (never
  /// decrease per ordered channel); `next_wseq` is the sender-side
  /// logical frame number; `floor` is the receiver's dedup floor
  /// (WseqDedup::floor). While a frame of the channel is parked above a
  /// gap, its whole window lives in the slice's `parked` table instead,
  /// and `floor` is stale until the window is written back (see dedup()).
  struct ChannelState {
    sim::SimTime fifo_clock = 0;
    std::uint64_t next_wseq = 0;
    std::uint64_t floor = 0;
  };

  /// End of a MH's record list (see CellRecord::next).
  static constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

  /// Everything §2 keeps for one MH at one cell, in one cache line: its
  /// wireless channel pair and the cell's bookkeeping flags for it.
  /// Records are never freed, so a MH that has talked to k cells keeps k
  /// of them.
  struct alignas(64) CellRecord {
    ChannelState downlink;
    ChannelState uplink;
    MssId cell = kInvalidMss;
    /// Pool index of the MH's next record in this slice, or kNoRecord.
    std::uint32_t next = kNoRecord;
    /// joins_completed() at the MH's latest arrival here; read only while
    /// `local`, to detect leaves and handoff requests the MH has outrun.
    /// Mss::handle_join throws std::length_error past 2^32 - 1 joins.
    std::uint32_t arrival = 0;
    bool local : 1 = false;         ///< in the cell's local-MH list
    bool disconnected : 1 = false;  ///< carries the cell's "disconnected" flag
    /// A HandoffRequest that arrives while the MH's state from *its*
    /// previous MSS is still due is deferred until that state lands.
    bool awaiting_handoff_in : 1 = false;
    /// Bit 0 downlink, bit 1 uplink: that channel's dedup window is in
    /// the slice's `parked` table.
    std::uint8_t parked : 2 = 0;
  };
  static_assert(sizeof(CellRecord) == 64 && alignof(CellRecord) == 64,
                "a cell record is one cache line");

  /// Everything one shard owns and touches from its own thread during a
  /// run: event queue, measurement state (ledger / metrics / stats /
  /// event ring), FIFO channel state, the cell records of the MSSs it
  /// hosts, and their formation queues. The legacy engine is exactly
  /// one slice driven by the calling thread; the sharded engine is
  /// min(shards, num_mss) slices driven by sim::ShardGroup. Per-slice
  /// ownership is what makes emit and every cost charge allocation- and
  /// contention-free under parallel execution.
  struct ShardSlice {
    sim::Scheduler sched;
    cost::CostLedger ledger;
    obs::Registry metrics;  ///< must precede every member referencing it
    NetStats stats{metrics};
    obs::EventStream events;
    // Always-on substrate histograms (virtual-time units; zero-cost when
    // nothing records). Queue delay is the FIFO clamp each channel kind
    // added on top of the sampled latency.
    obs::Histogram& queue_delay_wired =
        metrics.histogram("net.queue_delay.wired", obs::latency_buckets());
    obs::Histogram& queue_delay_downlink =
        metrics.histogram("net.queue_delay.downlink", obs::latency_buckets());
    obs::Histogram& queue_delay_uplink =
        metrics.histogram("net.queue_delay.uplink", obs::latency_buckets());
    obs::Histogram& search_rounds =
        metrics.histogram("net.search_rounds", obs::count_buckets());
    obs::Histogram& delivery_retry_depth =
        metrics.histogram("net.delivery_retry_depth", obs::count_buckets());
    // Formation-layer instrumentation (all zero in passthrough mode): one
    // packet_msgs sample per packet, valued at its message count.
    obs::Histogram& packet_msgs =
        metrics.histogram("net.formation.packet_msgs", obs::count_buckets());
    obs::Counter& formation_size_flushes = metrics.counter("net.formation.size_flushes");
    obs::Counter& formation_deadline_flushes =
        metrics.counter("net.formation.deadline_flushes");
    obs::Counter& formation_barrier_flushes =
        metrics.counter("net.formation.barrier_flushes");
    /// FIFO clocks of the wired channels this slice sends on, row-major
    /// M x M by (from, to). Wired channels need no wseq or dedup.
    std::vector<sim::SimTime> wired_clocks;
    /// Records per pool block: 64 KiB, so a Network of 10 000 hosts
    /// builds their first records in 10 allocations.
    static constexpr std::uint32_t kRecordBlock = 1024;
    /// The records of the cells this slice hosts, in creation order, in
    /// fixed-size blocks: a record never moves, and none is freed before
    /// the slice is, so mobility leaves no holes in the heap.
    std::vector<std::unique_ptr<CellRecord[]>> record_blocks;
    std::uint32_t record_count = 0;
    /// Indexed by MH id: the pool index of the MH's first record here,
    /// kNoRecord when it has none. The rest chain through
    /// CellRecord::next, the current cell's record first.
    std::vector<std::uint32_t> first_record;

    [[nodiscard]] CellRecord& record(std::uint32_t i) noexcept {
      return record_blocks[i / kRecordBlock][i % kRecordBlock];
    }
    [[nodiscard]] const CellRecord& record(std::uint32_t i) const noexcept {
      return record_blocks[i / kRecordBlock][i % kRecordBlock];
    }
    /// The dedup windows of the channels that have a frame parked above
    /// a gap, keyed by window_key(). A channel whose frames arrive in
    /// order has no entry.
    std::unordered_map<std::uint64_t, WseqDedup> parked;
    /// The `parked` key of record `i`'s downlink or uplink channel.
    [[nodiscard]] static std::uint64_t window_key(std::uint32_t i, bool downlink) noexcept {
      return 2 * std::uint64_t{i} + (downlink ? 0 : 1);
    }
    /// Wired batching queues of this slice's MSSs; null in passthrough
    /// mode so the unbatched wire path never even consults it.
    std::unique_ptr<FormationLayer> formation;
  };

  /// The calling thread's slice. Worker threads of a sharded run bind
  /// their shard index here (via ShardGroup's on_worker hook); every
  /// other thread — including the legacy engine's only thread — reads
  /// slice 0.
  [[nodiscard]] ShardSlice& sl() noexcept { return *slices_[tls_shard_]; }
  [[nodiscard]] const ShardSlice& sl() const noexcept { return *slices_[tls_shard_]; }

  /// Throw std::logic_error unless on the legacy engine: `what` names
  /// the unsupported entry point.
  void require_legacy(const char* what) const;

  /// The RNG stream for work owned by `lane`: the lane's own stream in
  /// the sharded engine, the global stream in the legacy engine — which
  /// is what keeps every legacy draw sequence byte-identical.
  [[nodiscard]] sim::Rng& run_rng(std::uint32_t lane) noexcept {
    return sharded() ? lane_rngs_[lane] : rng_;
  }

  /// Post a cross-lane action into the conservative-window mailbox
  /// (sharded engine only). `at` must be >= the current window horizon,
  /// which every wired arrival satisfies (latency >= lookahead()).
  template <typename Fn>
  void post_mail(std::uint32_t src_lane, std::uint32_t dst_lane, sim::SimTime at, Fn&& fn) {
    group_->post(shard_of(src_lane),
                 sim::ShardGroup::Mail{at, shard_of(dst_lane), src_lane,
                                       ++lane_mail_seq_[src_lane],
                                       sim::SmallFn(std::forward<Fn>(fn))});
  }

  std::uint64_t run_sharded(std::uint64_t event_limit);

  /// FIFO clamping: per ordered channel, arrivals never decrease.
  /// `clock` is the channel's FIFO clock; `type` picks the queue-delay
  /// histogram the clamp is recorded in.
  [[nodiscard]] sim::SimTime fifo_arrival(sim::SimTime& clock, ChannelType type,
                                          sim::Duration latency);
  /// The calling slice's FIFO clock for the wired channel from -> to.
  [[nodiscard]] sim::SimTime& wired_clock(MssId from, MssId to) noexcept {
    return sl().wired_clocks[std::size_t{index(from)} * cfg_.num_mss + index(to)];
  }

  /// The record `cell` keeps for `mh`, created on first use. It lives in
  /// the slice hosting the cell, whichever thread asks: during a run
  /// that is the cell's own shard, before and after it the main thread.
  /// Records never move, so the reference stays valid.
  [[nodiscard]] CellRecord& cell_record(MssId cell, MhId mh);
  /// Same lookup without creating; nullptr when `cell` has no record.
  [[nodiscard]] const CellRecord* find_cell_record(MssId cell, MhId mh) const;
  /// Pool index of `cell`'s record for `mh` in `slice`; kNoRecord when
  /// there is none.
  [[nodiscard]] static std::uint32_t find_record(const ShardSlice& slice, MssId cell, MhId mh);
  /// cell_record(), moved to the front of the MH's list: the MH has just
  /// become local to `cell`, so its next lookups hit on one comparison.
  CellRecord& enter_cell(MssId cell, MhId mh);
  /// The link (list head or a record's `next`) holding the pool index of
  /// `cell`'s record for `mh` in `slice`; appends a record when `cell`
  /// has none.
  [[nodiscard]] static std::uint32_t& record_link(ShardSlice& slice, MssId cell, MhId mh);
  /// WseqDedup::deliver of `wseq` on one channel of record `i` in
  /// `slice`; false = duplicate. An in-order frame only advances the
  /// record's floor. The first frame above a gap moves the channel's
  /// window, seeded from that floor, into the slice's `parked` table;
  /// every later frame goes through it until its parked set empties,
  /// when the floor is written back and the entry erased.
  [[nodiscard]] static bool dedup(ShardSlice& slice, std::uint32_t i, bool downlink,
                                  std::uint64_t wseq);

  /// One latency draw from the stream owned by `lane` (the sender's
  /// lane, so the draw sequence is a per-lane pure function).
  [[nodiscard]] sim::Duration sample(std::uint32_t lane, sim::Duration lo, sim::Duration hi);

  /// send_to_mh with the retry depth threaded through, so the retry
  /// histogram sees how deep each delivery's chase went.
  void send_to_mh_attempt(MssId from, Envelope env, MhId to, SendPolicy policy,
                          std::uint32_t attempt);
  /// The last wireless hop of a delivery, from the cell `at` where the
  /// MH was found. On a miss (the MH left first) count the retry, record
  /// chase depth attempt + 1, back off, and search again from `at` one
  /// attempt deeper under `cause` — the paper's footnote 1.
  void final_hop(MssId at, Envelope env, MhId to, SendPolicy policy,
                 std::uint32_t attempt, obs::EventId cause);

  void deliver_wired(MssId to, Envelope env);

  // --- formation (wired batching) -------------------------------------------

  /// Batched wire path: emit the per-message kSend, charge the
  /// per-message cost share, and park the message on the formation
  /// queue for (from,to).
  void enqueue_wired(MssId from, MssId to, Envelope env);
  /// Transmit callback handed to the FormationLayer: charge the packet,
  /// sample one latency for the whole packet, give every item the cause
  /// its recv cites, and land the packet.
  void transmit_packet(FormationLayer::Packet packet);
  /// Packet arrival: emit kPacketFlush, then deliver the coalesced
  /// messages in send order, each citing its own send.
  void arrive_packet(FormationLayer::Packet packet, WiredCause cause,
                     std::uint64_t channel);

  // --- reliable wireless hop (ack/retransmit + dedup) -----------------------
  //
  // Each logical frame gets a per-channel sequence number (wseq) at its
  // first transmission; every retransmission attempt emits a fresh kSend
  // so the physical channel history stays FIFO-checkable, while the
  // receiver suppresses duplicate wseqs. Loss is decided at send time by
  // the fault plane (implicit ack: the sender knows ground truth), so a
  // dropped attempt schedules the next one after a capped exponential
  // backoff.

  /// Which way a frame crosses the cell. A join rides the uplink channel
  /// of a cell the MH is not yet local to, so it keeps its own tags and
  /// retry rule.
  enum class FrameKind : std::uint8_t { kDownlink, kUplink, kJoin };

  /// One logical frame on a (cell, MH) channel: everything its
  /// retransmissions and its arrival need besides the envelope.
  struct Frame {
    FrameKind kind = FrameKind::kDownlink;
    MssId cell = kInvalidMss;   ///< the MSS end of the hop
    MhId mh = kInvalidMh;       ///< the MH end of the hop
    std::uint32_t attempt = 0;  ///< 0 for the first transmission
    /// Uplink: the MH's joins_completed() when the frame was first sent.
    std::uint64_t epoch = 0;
    std::uint64_t wseq = 0;  ///< assigned by attempt 0

    [[nodiscard]] bool downlink() const noexcept { return kind == FrameKind::kDownlink; }
    [[nodiscard]] obs::Entity sender() const noexcept {
      return downlink() ? entity_of(cell) : entity_of(mh);
    }
    [[nodiscard]] obs::Entity receiver() const noexcept {
      return downlink() ? entity_of(mh) : entity_of(cell);
    }
    [[nodiscard]] std::uint64_t channel() const noexcept {
      return downlink() ? channel_key(ChannelType::kDownlink, index(cell), index(mh))
                        : channel_key(ChannelType::kUplink, index(mh), index(cell));
    }
  };

  /// Transmit one attempt of `frame`. A downlink whose MH has already
  /// left fails through `on_fail`; a lost attempt retransmits after the
  /// backoff unless its kind's give-up rule holds; otherwise the frame
  /// (and any link-layer copy) is scheduled to land.
  void wireless_attempt(Frame frame, Envelope env, FailCallback on_fail);
  /// One copy of `frame` reaching its receiver: a downlink whose MH left
  /// fails through `on_fail`, a duplicate wseq is suppressed, anything
  /// else emits the recv and is handed to the MH or the MSS.
  void land_frame(const Frame& frame, obs::EventId send_id, Envelope env,
                  const FailCallback& on_fail);

  /// Consult the fault plane for this wireless frame; on loss, `why` is
  /// set to "crash" (dead cell) or "loss" (random drop).
  [[nodiscard]] bool wireless_frame_lost(std::uint32_t cell, const char** why);
  [[nodiscard]] sim::Duration retransmit_backoff(std::uint32_t attempt) const;

  // --- wired hop ------------------------------------------------------------

  /// One transmission on the wired channel from -> to: a latency draw
  /// from the sender's lane, the fault plane's spike, and the channel's
  /// FIFO clamp. Returns the arrival instant.
  [[nodiscard]] sim::SimTime wired_transit(MssId from, MssId to);
  /// The kSend of one wired message from -> to, tagged `detail`.
  obs::EventId wired_send(MssId from, MssId to, std::uint64_t channel, ProtocolId proto,
                          std::string_view detail = {});
  /// The cause the arrival of wired send `send_id` from -> to cites.
  [[nodiscard]] WiredCause wired_cause(MssId from, MssId to, obs::EventId send_id) const;
  /// Make `fn` the arrival of a wired message from -> to at `at`. On the
  /// sharded engine a cross-MSS hop posts it to the window mailbox.
  /// Everything else is scheduled on the calling slice, where a crashed
  /// or partitioned-off destination holds it at its interface: `fn` is
  /// re-offered at the release instant, and runs only at actual delivery.
  template <typename Fn>
  void land_wired(MssId from, MssId to, sim::SimTime at, Fn fn);
  /// Wired arrival: emit the recv tagged `detail`, then run `handle`
  /// (the dispatch, or the forward leg's final hop) under its cause.
  template <typename Fn>
  void arrive_wired(MssId from, MssId to, WiredCause cause, std::uint64_t channel,
                    ProtocolId proto, std::string_view detail, Fn&& handle);

  void begin_crash(const fault::MssCrash& crash);

  void broadcast_round(std::uint64_t token);
  /// Emit round `round` of a search from `origin` for `target`.
  void search_round(MssId origin, MhId target, std::uint64_t round);
  /// Answer the broadcast search `it` with (at, disconnected): record its
  /// rounds and forget it before its callback runs.
  void resolve_search(BroadcastSearches::iterator it, MssId at, bool disconnected);

  /// Join bookkeeping shared by Mss::handle_join: run the work waiting
  /// for this MH, oldest first.
  void on_mh_rejoined(MhId mh, MssId at);

  /// One protocol's agents: a slot per MSS and, once the protocol
  /// registers an MH agent, a slot per MH; nullptr where a host runs
  /// none. The slots point at agents their algorithm owns.
  struct AgentTable {
    std::vector<MssAgent*> mss;
    std::vector<MhAgent*> mh;

    [[nodiscard]] MssAgent* at(MssId host) const noexcept { return mss[index(host)]; }
    [[nodiscard]] MhAgent* at(MhId host) const noexcept {
      return mh.empty() ? nullptr : mh[index(host)];
    }
  };
  /// The table of `proto`, added on first use.
  [[nodiscard]] AgentTable& agent_table(ProtocolId proto);
  /// The table of `proto`; nullptr when nothing registered under it.
  [[nodiscard]] const AgentTable* find_agent_table(ProtocolId proto) const noexcept;
  /// Run `fn` on each agent of `host` (an MssId or a MhId) in ascending
  /// protocol id, the order every notification follows.
  template <typename Host, typename Fn>
  void for_each_agent(Host host, Fn&& fn) const {
    for (const auto& [proto, table] : agent_tables_) {
      if (auto* agent = table.at(host)) fn(*agent);
    }
  }

  NetConfig cfg_;
  sim::Rng rng_;
  /// One slice for the legacy engine, min(shards, num_mss) for the
  /// sharded one. unique_ptr so slice addresses (and the Counter&/
  /// Histogram& members inside) never move.
  std::vector<std::unique_ptr<ShardSlice>> slices_;
  /// The calling thread's shard index (0 everywhere except inside a
  /// sharded run's worker threads). static: a thread belongs to at most
  /// one running Network at a time. constinit: constant-initialized,
  /// so reads need no TLS init wrapper (UBSan flagged the wrapper's load
  /// at RelWithDebInfo).
  static constinit thread_local std::uint32_t tls_shard_;
  /// Conservative-window coordinator; created by run_sharded().
  std::unique_ptr<sim::ShardGroup> group_;
  /// Sharded engine: one RNG stream per lane, seeded as a pure function
  /// of (cfg.seed, lane) so draw sequences are grouping-independent.
  std::vector<sim::Rng> lane_rngs_;
  /// Sharded engine: per-lane mailbox sequence for the canonical
  /// injection order (each lane is written by exactly one thread).
  std::vector<std::uint64_t> lane_mail_seq_;
  /// Lane of each MH: its (initial) cell.
  std::vector<std::uint32_t> mh_lane_;

  std::vector<std::unique_ptr<Mss>> mss_;
  /// Destroys and frees `count` host rows built in place. `count` has
  /// no member initializer, which would keep unique_ptr from
  /// default-constructing the deleter while Network is incomplete.
  struct HostRowsDelete {
    std::uint32_t count;
    void operator()(MobileHost* rows) const noexcept;
  };
  /// The hosts, one 64-byte row each, built in place in one array sized
  /// at construction: no host is allocated alone, and none ever moves.
  std::unique_ptr<MobileHost[], HostRowsDelete> mh_;
  /// Every registered protocol's agents, in ascending protocol id.
  std::map<ProtocolId, AgentTable> agent_tables_;

  /// Work waiting for a MH's next join, oldest first: searches that
  /// found it in transit, and eventual-delivery messages that found it
  /// disconnected. Searches wait only where they read the MH's state
  /// directly (oracle, one-MSS broadcast), and there a message waits
  /// only while the MH is disconnected; between two joins it is in transit or
  /// disconnected, never both, so one MH's queue never mixes the kinds.
  std::map<MhId, std::vector<JoinCallback>> awaiting_join_;
  BroadcastSearches broadcast_;
  std::uint64_t next_search_token_ = 1;
  bool started_ = false;

  std::unique_ptr<fault::FaultPlane> fault_;
};

}  // namespace mobidist::net
