#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace mobidist::sim {

/// Opaque handle identifying a scheduled event; used to cancel timers.
///
/// Handles are never reused within one Scheduler instance: the id packs
/// a pooled slot index with that slot's generation counter, so a handle
/// kept across the event's firing (or cancellation) goes stale instead
/// of aliasing a later event.
struct EventHandle {
  std::uint64_t id = 0;

  /// True for handles returned by schedule(); default-constructed
  /// handles are invalid and cancel() ignores them.
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
  friend bool operator==(EventHandle, EventHandle) = default;
};

/// Deterministic single-threaded discrete-event scheduler.
///
/// Events scheduled for the same virtual instant fire in the order they
/// were scheduled (FIFO tie-break by sequence number), which makes every
/// simulation run a pure function of (initial state, seed).
///
/// The queue has two levels. An event due less than 256 ticks from now()
/// is appended to one of 256 one-tick buckets, indexed by its time
/// modulo 256: a FIFO threaded through the callback slots, with an
/// occupancy bitmap that finds the earliest bucket. Every bucket holds a
/// single instant, so popping bucket fronts in time order is the
/// (time, seq) order. Later events wait in a flat-array 4-ary heap of
/// 24-byte entries, and move into their bucket, in heap order, as soon
/// as now() comes within 256 ticks of them: before anything can be
/// appended there directly, so each bucket stays in seq order.
///
/// The hot path is allocation-free at steady state: callbacks live in
/// pooled slots via SmallFn's inline buffer, and cancel() destroys the
/// callback in place (releasing its captures immediately) while the
/// corpse entry is reclaimed lazily — eagerly compacted out of both
/// levels whenever corpses outnumber live events, so schedule-then-cancel
/// churn of far-future timers cannot grow the queue without bound.
class Scheduler {
 public:
  /// Event callback type. SmallFn's inline buffer is sized for the
  /// substrate's largest hot-path capture, so scheduling never heap
  /// -allocates for ordinary events.
  using Callback = SmallFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time. Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` ticks from now. Returns a handle that
  /// can be passed to cancel().
  EventHandle schedule(Duration delay, Callback fn);

  /// Schedule `fn` at an absolute virtual time; `at` must be >= now().
  EventHandle schedule_at(SimTime at, Callback fn);

  /// Cancel a pending event. Returns true if the event existed and had
  /// not yet fired (or been cancelled). Cancelling an invalid/expired
  /// handle is a harmless no-op returning false. The callback is
  /// destroyed immediately, releasing whatever its captures own.
  bool cancel(EventHandle h);

  /// Run events until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Run events with firing time <= `until`. Unless the event limit
  /// stopped it, virtual time is then left at `until` whenever `until`
  /// is later than now(), so subsequent relative scheduling behaves
  /// intuitively. Returns events fired.
  std::uint64_t run_until(SimTime until);

  /// Fire at most one event. Returns false if the queue is empty.
  bool step();

  /// Firing time of the earliest live event without executing it;
  /// nullopt when the queue is drained. Corpses surfacing at the front
  /// are reclaimed as a side effect (the fire path peeks through this
  /// same call), which is why this is not const. The conservative-window
  /// coordinator (sim::ShardGroup) uses this to compute the global
  /// minimum next-event time across shards.
  [[nodiscard]] std::optional<SimTime> next_time();

  /// Events currently pending (scheduled, not fired, not cancelled).
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Entries currently queued in the ring and the heap, including
  /// cancelled corpses not yet reclaimed. Compaction keeps this
  /// <= 2 * pending() + a small floor; exposed so tests can pin the bound.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return heap_.size() + ring_size_;
  }

  /// Total events fired since construction.
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

  /// Safety valve for runaway simulations: run()/run_until() stop after
  /// this many events. 0 disables the limit (default).
  void set_event_limit(std::uint64_t limit) noexcept { limit_ = limit; }

  /// True if the last run()/run_until() stopped due to the event limit.
  [[nodiscard]] bool hit_event_limit() const noexcept { return hit_limit_; }

 private:
  /// Buckets in the near-future ring. Every perfbench workload schedules
  /// at least 95% of its events fewer than 64 ticks ahead.
  static constexpr Duration kWheel = 256;
  static_assert(std::has_single_bit(kWheel) && kWheel % 64 == 0,
                "bucket indices wrap with SimTime; the bitmap has 64-bit words");
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// One pooled callback slot. A slot owns at most one in-flight event;
  /// it is recycled (generation bumped) only after its entry has left
  /// the queue, so entries never need a generation of their own.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    std::uint32_t next = kNoSlot;  // next slot in the same ring bucket
    bool scheduled = false;        // false after fire or cancel
  };
  // The ring link lives in what would otherwise be tail padding, so the
  // ring costs no slab memory: 288 B per slot with SmallFn's 256-byte
  // buffer, as without the link.
  static_assert(sizeof(Slot) == sizeof(Callback) + 16);

  /// 24-byte heap entry; the callback stays in its slot so sift moves
  /// are cheap flat copies.
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among same-instant events
    std::uint32_t slot;
  };

  /// One ring bucket: a FIFO of slots, all due at the same instant.
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;  // seqs are unique: a strict total order
  }

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  Entry pop_entry() noexcept;
  void append(std::size_t bucket, std::uint32_t slot) noexcept;
  std::uint32_t unlink_front(std::size_t bucket) noexcept;
  [[nodiscard]] std::size_t first_bucket() const noexcept;
  /// Set now() to `t`, then move every heap entry due before t + kWheel
  /// into its bucket.
  void advance_to(SimTime t);
  void release_slot(std::uint32_t slot) noexcept;
  void maybe_compact();
  void compact();
  /// Fire the earliest live event if it is due at or before `until`.
  bool fire_next(SimTime until);
  std::uint64_t run_loop(SimTime until);

  std::array<Bucket, kWheel> ring_{};       // bucket at % kWheel
  std::array<std::uint64_t, kWheel / 64> occupied_{};  // non-empty buckets
  std::size_t ring_size_ = 0;    // ring entries, corpses included
  std::vector<Entry> heap_;      // events due at now() + kWheel or later
  std::vector<Slot> slots_;      // slab of callback slots
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::size_t live_ = 0;         // scheduled, not fired/cancelled
  std::size_t corpses_ = 0;      // cancelled entries still queued
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t limit_ = 0;
  bool hit_limit_ = false;
};

}  // namespace mobidist::sim
