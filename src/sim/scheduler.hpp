#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace mobidist::sim {

/// Opaque handle identifying a scheduled event; used to cancel timers.
///
/// The id packs a pooled slot's id (size class and index) with the
/// generation the slot had while the event was pending. A slot's
/// generation moves on when its event fires or is cancelled, so a handle
/// kept past that goes stale instead of aliasing a later event in the
/// same slot.
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
/// modulo 256: a FIFO threaded through the event slots, with an
/// occupancy bitmap that finds the earliest bucket. Every bucket holds a
/// single instant, so popping bucket fronts in time order is the
/// (time, seq) order. Later events wait in a flat-array 4-ary heap of
/// 24-byte entries, and move into their bucket, in heap order, as soon
/// as now() comes within 256 ticks of them: before anything can be
/// appended there directly, so each bucket stays in seq order.
///
/// Each event's closure is built in a pooled slot when it is scheduled,
/// is called there when it fires, and never moves in between. Slots come
/// in two size classes, picked at compile time from the callable's type:
/// a 64-byte small slot for a closure of up to kSmallSlotCapacity bytes
/// (every hot-path timer), and a 288-byte wide slot, a SmallFn, for
/// everything else (hop closures that carry an Envelope, cross-shard
/// mail). Each class allocates its slots in blocks of 1 024 that never
/// move and keeps its own free list, so the hot path is allocation-free
/// once the blocks cover the working set. A slot's generation is odd
/// while its event is pending; firing and cancelling bump it, and a
/// fired slot returns to its free list only after its callback returns.
///
/// cancel() destroys the closure in place (releasing its captures
/// immediately) while the corpse entry is reclaimed lazily — compacted
/// out of both levels whenever corpses outnumber live events, so
/// schedule-then-cancel churn of far-future timers cannot grow the queue
/// without bound. Destroying the scheduler destroys every closure still
/// pending.
class Scheduler {
 public:
  /// The type-erased callback that schedule() accepts besides plain
  /// callables; it takes a wide slot and is moved in.
  using Callback = SmallFn;

  /// True when schedule() builds a callable of type `Fn` in a 64-byte
  /// small slot rather than a 288-byte wide one.
  template <typename Fn>
  [[nodiscard]] static constexpr bool takes_small_slot() noexcept {
    return BasicSmallFn<kSmallSlotCapacity>::fits_inline<Fn>();
  }

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time. Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` ticks from now. Returns a handle that
  /// can be passed to cancel().
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  EventHandle schedule(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute virtual time; `at` must be >= now().
  /// The closure is built in its slot (a Callback is moved in; an empty
  /// one throws std::invalid_argument). If building it throws, nothing
  /// is scheduled.
  template <typename F>
    requires std::is_invocable_r_v<void, std::decay_t<F>&>
  EventHandle schedule_at(SimTime at, F&& fn) {
    using Fn = std::decay_t<F>;
    if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
    if constexpr (std::is_same_v<Fn, Callback>) {
      if (!fn) throw std::invalid_argument("Scheduler: null callback");
    }
    if constexpr (takes_small_slot<Fn>()) {
      return place(small_, 0, at, std::forward<F>(fn));
    } else {
      return place(wide_, kWideBit, at, std::forward<F>(fn));
    }
  }

  /// Cancel a pending event. Returns true if the event existed and had
  /// not yet fired (or been cancelled). Cancelling an invalid/expired
  /// handle — including a firing event's own, from its callback — is a
  /// harmless no-op returning false. The callback is destroyed
  /// immediately, releasing whatever its captures own.
  bool cancel(EventHandle h);

  /// Run events until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Run events with firing time <= `until`. Unless the event limit
  /// stopped it, virtual time is then left at `until` whenever `until`
  /// is later than now(), so subsequent relative scheduling behaves
  /// intuitively. Returns events fired.
  std::uint64_t run_until(SimTime until);

  /// Fire at most one event. Returns false if the queue is empty. If
  /// the callback throws, the exception leaves here; the event counts as
  /// fired and its closure is destroyed.
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
  /// A slot id is its index in its class, with this bit set for the wide
  /// class. Ring links, heap entries and handles all carry it.
  static constexpr std::uint32_t kWideBit = std::uint32_t{1} << 31;
  /// Slots per block.
  static constexpr std::uint32_t kBlock = 1024;

  /// What every slot has besides its closure. A slot owns at most one
  /// in-flight event and returns to its free list only after its entry
  /// has left the queue and its callback (if it fired) has returned, so
  /// entries need no generation of their own.
  struct Link {
    std::uint32_t generation = 0;  // odd while the event is pending
    std::uint32_t next = kNoSlot;  // next slot in its ring bucket or free list
  };

  template <std::size_t Capacity>
  struct Slot : Link {
    BasicSmallFn<Capacity> fn;
  };
  // A small slot is one cache line.
  struct alignas(64) SmallSlot : Slot<kSmallSlotCapacity> {};
  using WideSlot = Slot<Callback::kInlineCapacity>;
  static_assert(sizeof(SmallSlot) == 64 && sizeof(WideSlot) == 288);

  /// The slots of one size class, in blocks of kBlock that never move.
  template <typename S>
  class Pool {
   public:
    [[nodiscard]] S& operator[](std::uint32_t index) noexcept {
      return blocks_[index / kBlock][index % kBlock];
    }
    /// True if `index` names a slot handed out at least once.
    [[nodiscard]] bool holds(std::uint32_t index) const noexcept { return index < used_; }

    /// A free slot, its closure empty and its generation even. Adds a
    /// block when every slot is in use.
    std::uint32_t acquire() {
      if (free_ != kNoSlot) {
        const std::uint32_t index = free_;
        free_ = (*this)[index].next;
        return index;
      }
      if (used_ == blocks_.size() * kBlock) {
        if (used_ >= kWideBit - kBlock) throw std::length_error("Scheduler: too many events");
        blocks_.push_back(std::make_unique_for_overwrite<S[]>(kBlock));
      }
      return used_++;
    }

    /// Return a slot whose closure is empty to the free list.
    void release(std::uint32_t index) noexcept {
      (*this)[index].next = free_;
      free_ = index;
    }

   private:
    std::vector<std::unique_ptr<S[]>> blocks_;
    std::uint32_t used_ = 0;        // slots handed out at least once
    std::uint32_t free_ = kNoSlot;  // head of the free list
  };

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

  /// Build `fn` in a slot of `pool`, queue it at `at` and return its
  /// handle. If building it (or growing the heap) throws, the slot goes
  /// back on its free list.
  template <typename S, typename F>
  EventHandle place(Pool<S>& pool, std::uint32_t class_bit, SimTime at, F&& fn) {
    const std::uint32_t index = pool.acquire();
    S& s = pool[index];
    try {
      if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
        s.fn = std::forward<F>(fn);
      } else {
        s.fn.emplace(std::forward<F>(fn));
      }
      enqueue(at, index | class_bit);
    } catch (...) {
      s.fn.reset();
      pool.release(index);
      throw;
    }
    ++s.generation;  // odd: pending
    ++live_;
    return EventHandle{(std::uint64_t{s.generation} << 32) | (index | class_bit)};
  }

  [[nodiscard]] Link& link(std::uint32_t slot) noexcept {
    if ((slot & kWideBit) != 0) return wide_[slot & ~kWideBit];
    return small_[slot];
  }
  [[nodiscard]] bool is_pending(std::uint32_t slot) noexcept {
    return (link(slot).generation & 1U) != 0;
  }

  /// Put `slot` in its bucket, or on the heap when `at` is kWheel or
  /// more ticks ahead.
  void enqueue(SimTime at, std::uint32_t slot);
  template <typename S>
  bool cancel_in(Pool<S>& pool, std::uint32_t index, std::uint32_t generation);
  template <typename S>
  void fire(Pool<S>& pool, std::uint32_t index);
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  Entry pop_entry() noexcept;
  void append(std::size_t bucket, std::uint32_t slot) noexcept;
  std::uint32_t unlink_front(std::size_t bucket) noexcept;
  [[nodiscard]] std::size_t first_bucket() const noexcept;
  /// Set now() to `t`, then move every heap entry due before t + kWheel
  /// into its bucket.
  void advance_to(SimTime t);
  /// Return a corpse's slot (its closure already destroyed) to its class.
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
  Pool<SmallSlot> small_;
  Pool<WideSlot> wide_;
  std::size_t live_ = 0;         // scheduled, not fired/cancelled
  std::size_t corpses_ = 0;      // cancelled entries still queued
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t limit_ = 0;
  bool hit_limit_ = false;
};

}  // namespace mobidist::sim
