// Tests for the discrete-event kernel: scheduler ordering/cancellation,
// RNG determinism and distribution sanity, and the shard-window protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plane.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace mobidist::sim {
namespace {

// --------------------------------------------------------------------------
// Scheduler
// --------------------------------------------------------------------------

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0u);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, FiresEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(30, [&] { order.push_back(3); });
  sched.schedule(10, [&] { order.push_back(1); });
  sched.schedule(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, SameInstantEventsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sched.schedule(5, [&order, i] { order.push_back(i); });
  }
  sched.run();
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, AdvancesVirtualTimeToEventTimestamp) {
  Scheduler sched;
  SimTime seen = 0;
  sched.schedule(42, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Scheduler, NestedSchedulingFromCallback) {
  Scheduler sched;
  std::vector<SimTime> at;
  sched.schedule(10, [&] {
    at.push_back(sched.now());
    sched.schedule(5, [&] { at.push_back(sched.now()); });
  });
  sched.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 10u);
  EXPECT_EQ(at[1], 15u);
}

TEST(Scheduler, ZeroDelayFiresAtCurrentInstantAfterQueuedPeers) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(10, [&] {
    order.push_back(1);
    sched.schedule(0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 10u);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  bool fired = false;
  auto handle = sched.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(sched.cancel(handle));
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.fired(), 0u);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  auto handle = sched.schedule(10, [] {});
  EXPECT_TRUE(sched.cancel(handle));
  EXPECT_FALSE(sched.cancel(handle));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  auto handle = sched.schedule(10, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(handle));
}

TEST(Scheduler, CancelInvalidHandleReturnsFalse) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventHandle{}));
  EXPECT_FALSE(sched.cancel(EventHandle{9999}));
}

TEST(Scheduler, PendingTracksLiveEvents) {
  Scheduler sched;
  auto a = sched.schedule(10, [] {});
  sched.schedule(20, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler sched;
  std::vector<int> fired;
  sched.schedule(10, [&] { fired.push_back(1); });
  sched.schedule(20, [&] { fired.push_back(2); });
  sched.schedule(30, [&] { fired.push_back(3); });
  const auto n = sched.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 20u);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler sched;
  sched.run_until(100);
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Scheduler, RunUntilHonoursEventsScheduledMidFlight) {
  Scheduler sched;
  std::vector<SimTime> at;
  sched.schedule(10, [&] {
    at.push_back(sched.now());
    sched.schedule(5, [&] { at.push_back(sched.now()); });   // 15: inside horizon
    sched.schedule(50, [&] { at.push_back(sched.now()); });  // 60: outside
  });
  sched.run_until(20);
  EXPECT_EQ(at, (std::vector<SimTime>{10, 15}));
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, SchedulingInPastThrows) {
  Scheduler sched;
  sched.schedule(10, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Scheduler, NullCallbackThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule(1, Scheduler::Callback{}), std::invalid_argument);
}

TEST(Scheduler, EventLimitStopsRunawayRun) {
  Scheduler sched;
  std::function<void()> self_feeding = [&] { sched.schedule(1, self_feeding); };
  sched.schedule(1, self_feeding);
  sched.set_event_limit(1000);
  sched.run();
  EXPECT_TRUE(sched.hit_event_limit());
  EXPECT_EQ(sched.fired(), 1000u);
}

TEST(Scheduler, CancelledEventBetweenLiveOnesDoesNotDisturbOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(10, [&] { order.push_back(1); });
  auto mid = sched.schedule(20, [&] { order.push_back(99); });
  sched.schedule(30, [&] { order.push_back(3); });
  sched.cancel(mid);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// The near-future ring must not move a single event: the heap-only
// scheduler the ring replaced is kept here as the reference, and seeded
// random mixes must fire the same events in the same order on both.
namespace scheduler_diff {

/// The heap-only Scheduler as it was before the near-future ring: every
/// event in one 4-ary heap ordered by (at, seq), lazy cancellation, and
/// corpse compaction on cancel.
class HeapScheduler {
 public:
  EventHandle schedule_at(SimTime at, SmallFn fn) {
    if (at < now_) throw std::invalid_argument("HeapScheduler: scheduled in the past");
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.scheduled = true;
    heap_.push_back(Entry{at, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    ++live_;
    return EventHandle{(static_cast<std::uint64_t>(s.generation) << 32) | (slot + 1ULL)};
  }

  bool cancel(EventHandle h) {
    if (!h.valid()) return false;
    const auto slot = static_cast<std::uint32_t>((h.id & 0xffffffffU) - 1);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    const auto generation = static_cast<std::uint32_t>(h.id >> 32);
    if (!s.scheduled || s.generation != generation) return false;
    s.fn.reset();
    s.scheduled = false;
    --live_;
    ++corpses_;
    if (corpses_ > live_ && corpses_ >= 64) compact();
    return true;
  }

  std::optional<SimTime> next_time() {
    while (!heap_.empty()) {
      if (slots_[heap_.front().slot].scheduled) return heap_.front().at;
      release_slot(pop_entry().slot);
      --corpses_;
    }
    return std::nullopt;
  }

  bool step() {
    while (!heap_.empty()) {
      const Entry e = pop_entry();
      Slot& s = slots_[e.slot];
      if (!s.scheduled) {
        release_slot(e.slot);
        --corpses_;
        continue;
      }
      SmallFn fn = std::move(s.fn);
      s.scheduled = false;
      release_slot(e.slot);
      --live_;
      now_ = e.at;
      ++fired_;
      fn();
      return true;
    }
    return false;
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  std::uint64_t run_until(SimTime until) {
    std::uint64_t n = 0;
    for (auto next = next_time(); next && *next <= until; next = next_time()) {
      step();
      ++n;
    }
    if (until > now_) now_ = until;
    return n;
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  struct Slot {
    SmallFn fn;
    std::uint32_t generation = 0;
    bool scheduled = false;
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i != 0 && before(e, heap_[(i - 1) / 4])) {
      heap_[i] = heap_[(i - 1) / 4];
      i = (i - 1) / 4;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= heap_.size()) break;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < std::min(first + 4, heap_.size()); ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  Entry pop_entry() {
    const Entry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  void release_slot(std::uint32_t slot) {
    ++slots_[slot].generation;
    free_.push_back(slot);
  }

  void compact() {
    std::size_t kept = 0;
    for (const Entry& e : heap_) {
      if (slots_[e.slot].scheduled) {
        heap_[kept++] = e;
      } else {
        release_slot(e.slot);
      }
    }
    heap_.resize(kept);
    corpses_ = 0;
    if (kept > 1) {
      for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i);
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t corpses_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

/// A delay drawn from the ring's edges (0, 1, 255, 256, 257), the near
/// future, the middle distance, or the far future.
Duration draw_delay(Rng& rng) {
  static constexpr Duration kEdges[] = {0, 1, 255, 256, 257};
  switch (rng.below(4)) {
    case 0: return kEdges[rng.below(5)];
    case 1: return rng.below(32);
    case 2: return rng.below(600);
    default: return 1000 + rng.below(100'000);
  }
}

/// 200 bytes derived from an event id: with it, a closure is the size of
/// a frame landing and takes a wide slot. The callback checks it, so a
/// closure that moved or was overwritten while pending fails the test.
struct WidePad {
  explicit WidePad(std::uint64_t id) {
    for (std::size_t i = 0; i < words.size(); ++i) words[i] = splitmix64(id + i);
  }
  [[nodiscard]] bool intact(std::uint64_t id) const {
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i] != splitmix64(id + i)) return false;
    }
    return true;
  }
  std::array<std::uint64_t, 25> words;
};

/// One scheduler under test plus what it did: the ids it fired, in
/// order, and the results of cancels made from inside callbacks. An
/// event's own id seeds what its callback does, so both sides make the
/// same choices for as long as they fire the same events.
template <typename Sched>
struct Side {
  explicit Side(std::uint64_t seed) : seed(seed) {}

  // Even ids take a small slot and odd ids a wide one, so the two size
  // classes share buckets, the heap, migration and compaction.
  void add(SimTime at) {
    const std::uint64_t id = handles.size();
    if (id % 2 == 0) {
      auto small = [this, id] { on_fire(id); };
      static_assert(Scheduler::takes_small_slot<decltype(small)>());
      handles.push_back(sched.schedule_at(at, std::move(small)));
    } else {
      auto wide = [this, id, pad = WidePad(id)] {
        EXPECT_TRUE(pad.intact(id)) << "captures of event " << id << " changed";
        on_fire(id);
      };
      static_assert(!Scheduler::takes_small_slot<decltype(wide)>());
      handles.push_back(sched.schedule_at(at, std::move(wide)));
    }
  }

  bool cancel(std::uint64_t id) { return sched.cancel(handles[id]); }

  void on_fire(std::uint64_t id) {
    fired_ids.push_back(id);
    Rng rng(splitmix64(seed ^ (id * kSplitmixGamma)));
    const std::uint64_t roll = rng.below(100);
    if (roll < 35) {
      add(sched.now() + draw_delay(rng));
    } else if (roll < 45) {
      inner_cancels.push_back(cancel(rng.below(handles.size())));
    }
  }

  std::uint64_t seed;
  Sched sched;
  std::vector<EventHandle> handles;  // by event id
  std::vector<std::uint64_t> fired_ids;
  std::vector<bool> inner_cancels;
};

/// Drives both schedulers through the same `ops` random operations and
/// stops at the first difference.
void run_differential(std::uint64_t seed, int ops) {
  Side<Scheduler> ring(seed);
  Side<HeapScheduler> heap(seed);
  Rng rng(seed);
  std::size_t fires_checked = 0;
  std::size_t cancels_checked = 0;
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const std::uint64_t kind = rng.below(100);
    if (kind < 30) {  // one event
      const Duration delay = draw_delay(rng);
      ring.add(ring.sched.now() + delay);
      heap.add(heap.sched.now() + delay);
    } else if (kind < 35) {  // a burst of near-future events
      for (std::uint64_t i = rng.below(200); i-- > 0;) {
        const Duration delay = rng.below(8) == 0 ? draw_delay(rng) : rng.below(8);
        ring.add(ring.sched.now() + delay);
        heap.add(heap.sched.now() + delay);
      }
    } else if (kind < 45 && !ring.handles.empty()) {  // one cancel
      const std::uint64_t id = rng.below(ring.handles.size());
      ASSERT_EQ(ring.cancel(id), heap.cancel(id)) << "cancel of event " << id;
    } else if (kind < 48) {  // a cancel storm: compacts the ring and the heap
      const std::uint64_t end = ring.handles.size();
      for (std::uint64_t id = end - std::min<std::uint64_t>(end, 600); id < end; ++id) {
        if (rng.below(5) != 0) {
          ASSERT_EQ(ring.cancel(id), heap.cancel(id)) << "cancel of event " << id;
        }
      }
    } else if (kind < 68) {
      ASSERT_EQ(ring.sched.step(), heap.sched.step());
    } else if (kind < 83) {
      const SimTime until = ring.sched.now() + draw_delay(rng);
      ASSERT_EQ(ring.sched.run_until(until), heap.sched.run_until(until));
    } else if (kind < 95) {
      // ShardGroup's window: run to just before the horizon, then inject
      // mail at or beyond it.
      const auto next = ring.sched.next_time();
      ASSERT_EQ(next, heap.sched.next_time());
      if (!next) continue;
      const SimTime horizon = *next + 1 + rng.below(300);
      ASSERT_EQ(ring.sched.run_until(horizon - 1), heap.sched.run_until(horizon - 1));
      for (std::uint64_t i = rng.below(6); i-- > 0;) {
        const SimTime at = horizon + (rng.below(2) == 0 ? rng.below(4) : draw_delay(rng));
        ring.add(at);
        heap.add(at);
      }
    } else if (kind < 99) {
      ASSERT_EQ(ring.sched.next_time(), heap.sched.next_time());
    } else {
      ASSERT_EQ(ring.sched.run(), heap.sched.run());
    }
    ASSERT_EQ(ring.fired_ids.size(), heap.fired_ids.size());
    for (; fires_checked < ring.fired_ids.size(); ++fires_checked) {
      ASSERT_EQ(ring.fired_ids[fires_checked], heap.fired_ids[fires_checked])
          << "fire #" << fires_checked;
    }
    ASSERT_EQ(ring.inner_cancels.size(), heap.inner_cancels.size());
    for (; cancels_checked < ring.inner_cancels.size(); ++cancels_checked) {
      ASSERT_EQ(ring.inner_cancels[cancels_checked], heap.inner_cancels[cancels_checked])
          << "callback cancel #" << cancels_checked;
    }
    ASSERT_EQ(ring.sched.now(), heap.sched.now());
    ASSERT_EQ(ring.sched.pending(), heap.sched.pending());
    ASSERT_EQ(ring.sched.fired(), heap.sched.fired());
    ASSERT_EQ(ring.sched.next_time(), heap.sched.next_time());
    ASSERT_LE(ring.sched.queue_depth(), 2 * ring.sched.pending() + 64);
  }
  ASSERT_EQ(ring.sched.run(), heap.sched.run());
  ASSERT_EQ(ring.fired_ids, heap.fired_ids);
  ASSERT_EQ(ring.sched.now(), heap.sched.now());
}

}  // namespace scheduler_diff

TEST(SchedulerDifferential, RingFiresExactlyWhatTheHeapOnlySchedulerFires) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    scheduler_diff::run_differential(seed, 1500);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDifferential, OverflowEventsFireBeforeLaterSameInstantInserts) {
  // Scheduled 300 ticks ahead, `first` waits in the heap; run_until's
  // final advance brings its instant inside the ring before `second` is
  // appended to the same bucket.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(1); });
  sched.run_until(100);
  sched.schedule_at(300, [&] { order.push_back(2); });
  sched.schedule_at(299, [&] { order.push_back(0); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Slot lifecycle: each closure is built in its slot, called there and
// destroyed there, exactly once, whichever way its event ends.
namespace slot_life {

/// What happened to one closure's captures. A copy or move makes a new
/// instance; `destroyed` counts destructions of an instance that still
/// held the captures (not a moved-from shell).
struct Lives {
  int moves = 0;
  int destroyed = 0;
  int calls = 0;
  int moves_at_call = -1;      // `moves` when the closure ran
  int destroyed_at_call = -1;  // `destroyed` when the closure ran
};

/// A closure of exactly `Size` bytes (alignment 1) that records its life
/// in a Lives.
template <std::size_t Size>
class SizedClosure {
 public:
  explicit SizedClosure(Lives* lives) { std::memcpy(lives_.data(), &lives, sizeof lives); }
  SizedClosure(SizedClosure&& other) noexcept : lives_(other.lives_), pad_(other.pad_) {
    other.lives_ = {};
    if (Lives* l = lives()) ++l->moves;
  }
  SizedClosure(const SizedClosure&) = delete;
  SizedClosure& operator=(const SizedClosure&) = delete;
  SizedClosure& operator=(SizedClosure&&) = delete;
  ~SizedClosure() {
    if (Lives* l = lives()) ++l->destroyed;
  }

  void operator()() {
    Lives* l = lives();
    ++l->calls;
    l->moves_at_call = l->moves;
    l->destroyed_at_call = l->destroyed;
  }

 private:
  [[nodiscard]] Lives* lives() const {
    Lives* l = nullptr;
    std::memcpy(&l, lives_.data(), sizeof l);
    return l;
  }
  std::array<unsigned char, sizeof(Lives*)> lives_{};
  std::array<unsigned char, Size - sizeof(Lives*)> pad_{};
};
static_assert(sizeof(SizedClosure<40>) == 40 && sizeof(SizedClosure<41>) == 41);
static_assert(Scheduler::takes_small_slot<SizedClosure<40>>());
static_assert(!Scheduler::takes_small_slot<SizedClosure<41>>());
static_assert(!SmallFn::fits_inline<SizedClosure<300>>());

/// How a scheduled event ends.
enum class End { kFired, kCancelled, kPendingAtDestruction };

/// Schedule `fn` (recording its moves so far in `moves_at_schedule`),
/// then end the event the way `end` says.
template <typename Fn>
void schedule_and_end(Fn fn, const Lives& lives, End end, int& moves_at_schedule) {
  Scheduler sched;
  const EventHandle h = sched.schedule(3, std::move(fn));
  moves_at_schedule = lives.moves;
  EXPECT_EQ(lives.destroyed, 0);
  if (end == End::kFired) {
    EXPECT_EQ(sched.run(), 1u);
  } else if (end == End::kCancelled) {
    EXPECT_TRUE(sched.cancel(h));
    EXPECT_EQ(lives.destroyed, 1) << "cancel destroys the closure at once";
    EXPECT_EQ(sched.run(), 0u);
  }
}

template <typename Fn>
void check_one_life(const char* what, End end, Fn (*make)(Lives*)) {
  SCOPED_TRACE(std::string(what) + " end=" + std::to_string(static_cast<int>(end)));
  Lives lives;
  int moves_at_schedule = -1;
  schedule_and_end(make(&lives), lives, end, moves_at_schedule);
  EXPECT_EQ(lives.destroyed, 1);
  EXPECT_EQ(lives.calls, end == End::kFired ? 1 : 0);
  if (end == End::kFired) {
    EXPECT_EQ(lives.moves_at_call, moves_at_schedule) << "closure moved while pending";
    EXPECT_EQ(lives.destroyed_at_call, 0);
  }
}

SizedClosure<40> make40(Lives* l) { return SizedClosure<40>(l); }
SizedClosure<41> make41(Lives* l) { return SizedClosure<41>(l); }
SizedClosure<300> make300(Lives* l) { return SizedClosure<300>(l); }
SmallFn make_small_fn(Lives* l) { return SmallFn(SizedClosure<24>(l)); }

/// A callback that, on its first call, cancels its own event through the
/// handle stored in `self` and records what cancel() said.
struct SelfCanceller {
  Scheduler* sched;
  const EventHandle* self;
  bool* cancel_result;
  Lives* lives;
  void operator()() const {
    *cancel_result = sched->cancel(*self);
    lives->destroyed_at_call = lives->destroyed;
  }
};

}  // namespace slot_life

TEST(SchedulerSlots, EveryClosureLivesOnceWhateverEndsIt) {
  using slot_life::End;
  for (const End end : {End::kFired, End::kCancelled, End::kPendingAtDestruction}) {
    slot_life::check_one_life("40-byte closure (small slot)", end, &slot_life::make40);
    slot_life::check_one_life("41-byte closure (wide slot)", end, &slot_life::make41);
    slot_life::check_one_life("300-byte closure (heap fallback)", end, &slot_life::make300);
    slot_life::check_one_life("moved-in SmallFn", end, &slot_life::make_small_fn);
  }
}

TEST(SchedulerSlots, CallbackThatAddsBlocksStillReadsItsOwnCaptures) {
  // 3 000 events of each class outgrow the first 1 024-slot block of
  // both; under ASan a closure read after its storage moved would fail.
  for (const bool self_is_wide : {false, true}) {
    SCOPED_TRACE(self_is_wide ? "wide self" : "small self");
    Scheduler sched;
    std::uint64_t fired_inner = 0;
    bool checked = false;
    auto flood = [&sched, &fired_inner] {
      for (int i = 0; i < 3000; ++i) {
        sched.schedule(1 + i % 300, [&fired_inner] { ++fired_inner; });
        sched.schedule(1 + i % 300, [&fired_inner, pad = scheduler_diff::WidePad(7)] {
          if (pad.intact(7)) ++fired_inner;
        });
      }
    };
    if (self_is_wide) {
      sched.schedule(1, [&flood, &checked, pad = scheduler_diff::WidePad(42)] {
        flood();
        checked = pad.intact(42);
      });
    } else {
      sched.schedule(1, [&flood, &checked, a = std::uint64_t{42}, b = std::uint64_t{43}] {
        flood();
        checked = a == 42 && b == 43;
      });
    }
    ASSERT_TRUE(sched.step());
    EXPECT_TRUE(checked) << "the firing closure's captures changed while it ran";
    EXPECT_EQ(sched.pending(), 6000u);
    EXPECT_EQ(sched.run(), 6000u);
    EXPECT_EQ(fired_inner, 6000u);
  }
}

TEST(SchedulerSlots, RunningEventCannotCancelItselfAndDiesAfterItReturns) {
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide" : "small");
    Scheduler sched;
    slot_life::Lives lives;
    EventHandle self;
    bool cancel_result = true;
    const slot_life::SelfCanceller call{&sched, &self, &cancel_result, &lives};
    if (wide) {
      self = sched.schedule(2, [call, probe = slot_life::SizedClosure<200>(&lives)] { call(); });
    } else {
      self = sched.schedule(2, [call, probe = slot_life::SizedClosure<8>(&lives)] { call(); });
    }
    sched.schedule(5, [] {});
    ASSERT_TRUE(sched.step());
    EXPECT_FALSE(cancel_result) << "a firing event's own handle must not cancel it";
    EXPECT_EQ(lives.destroyed_at_call, 0) << "captures destroyed while the callback ran";
    EXPECT_EQ(lives.destroyed, 1);
    EXPECT_EQ(sched.pending(), 1u);
    EXPECT_FALSE(sched.cancel(self));
    EXPECT_EQ(sched.run(), 1u);
    EXPECT_EQ(lives.destroyed, 1);
  }
}

TEST(SchedulerSlots, ThrowingCallbackLeavesStepAndItsSlotIsReused) {
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide" : "small");
    Scheduler sched;
    slot_life::Lives lives;
    auto boom = [] { throw std::runtime_error("boom"); };
    const EventHandle thrower =
        wide ? sched.schedule(1, [boom, probe = slot_life::SizedClosure<200>(&lives)] { boom(); })
             : sched.schedule(1, [boom, probe = slot_life::SizedClosure<8>(&lives)] { boom(); });
    sched.schedule(4, [] {});
    EXPECT_THROW(sched.step(), std::runtime_error);
    EXPECT_EQ(lives.destroyed, 1);
    EXPECT_EQ(sched.fired(), 1u);
    EXPECT_EQ(sched.pending(), 1u);
    EXPECT_EQ(sched.now(), 1u);
    EXPECT_FALSE(sched.cancel(thrower));
    // A handle's low 32 bits name its slot: the next event of the same
    // class takes the slot the thrower left.
    const EventHandle next =
        wide ? sched.schedule(1, [pad = scheduler_diff::WidePad(1)] { (void)pad; })
             : sched.schedule(1, [] {});
    EXPECT_EQ(static_cast<std::uint32_t>(next.id), static_cast<std::uint32_t>(thrower.id));
    EXPECT_NE(next, thrower);
    EXPECT_EQ(sched.run(), 2u);
  }
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::array<int, kBuckets> hist{};
  for (int i = 0; i < kDraws; ++i) ++hist[rng.below(kBuckets)];
  for (int count : hist) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.02);
}

TEST(Rng, ZipfFavoursLowRanks) {
  Rng rng(17);
  const ZipfTable zipf(8, 1.0);
  std::array<int, 8> hist{};
  for (int i = 0; i < 40000; ++i) ++hist[zipf.draw(rng)];
  EXPECT_GT(hist[0], hist[3]);
  EXPECT_GT(hist[3], hist[7]);
}

TEST(Rng, ZipfSingletonIsZero) {
  Rng rng(17);
  const ZipfTable zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.draw(rng), 0u);
  EXPECT_EQ(rng.next(), Rng(17).next()) << "a one-rank draw consumed randomness";
}

// The table must reproduce the per-draw formula it replaced bit for bit:
// mobility traces and generated scenarios depend on every Zipf draw.
TEST(Rng, ZipfTableMatchesThePerDrawFormula) {
  // The replaced formula, which recomputed both weight sums per draw.
  const auto reference = [](Rng& rng, std::uint64_t n, double s) -> std::uint64_t {
    if (n == 1) return 0;
    double total = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    double target = rng.uniform01() * total;
    for (std::uint64_t r = 0; r < n; ++r) {
      target -= 1.0 / std::pow(static_cast<double>(r + 1), s);
      if (target <= 0.0) return r;
    }
    return n - 1;
  };
  struct Case {
    std::uint64_t n;
    double s;
  };
  for (const auto& [n, s] : {Case{1, 1.2}, Case{2, 1.0}, Case{8, 1.0}, Case{66, 1.2},
                             Case{64, 0.5}, Case{257, 2.0}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfTable table(n, s);
    Rng by_table(n * 31 + 7);
    Rng by_formula(n * 31 + 7);
    for (int i = 0; i < 5000; ++i) ASSERT_EQ(table.draw(by_table), reference(by_formula, n, s));
    EXPECT_EQ(by_table.next(), by_formula.next()) << "draw counts diverged";
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child_a = parent.split();
  Rng child_b = parent.split();
  // Children of the same parent differ from each other and the parent.
  EXPECT_NE(child_a.next(), child_b.next());
}

TEST(Rng, FaultPlaneDrawsNeverPerturbTheNetworkStream) {
  // Regression guard for the shared-stream bug class: the broadcast
  // retry jitter in net::Network draws from the network's rng_, so the
  // fault plane must source every probabilistic decision from its own
  // salted stream — note it is seeded directly, NOT via rng.split(),
  // which would advance the parent and shift every later network draw.
  Rng reference(777);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(reference.next());

  fault::FaultProfile profile;
  profile.wireless_loss = 0.5;
  profile.wireless_dup = 0.25;
  profile.wireless_reorder = 0.5;
  profile.wired_spike = 0.5;
  fault::FaultPlane plane(fault::fault_stream_seed(777), profile);
  Rng observed(777);
  std::vector<std::uint64_t> got;
  for (int i = 0; i < 16; ++i) {
    got.push_back(observed.next());
    (void)plane.draw_wireless_loss();
    (void)plane.draw_wireless_dup();
    (void)plane.draw_wireless_spike();
    (void)plane.draw_wired_spike();
    (void)plane.draw_latency(0, 100);
  }
  EXPECT_EQ(got, expect);
  // The salted fault seed also never collides with the raw network seed.
  EXPECT_NE(fault::fault_stream_seed(777), 777u);
}

// --------------------------------------------------------------------------
// ShardGroup: the conservative-window protocol
// --------------------------------------------------------------------------

TEST(SchedulerNextTime, EmptyQueueHasNoNextTime) {
  Scheduler sched;
  EXPECT_FALSE(sched.next_time().has_value());
}

TEST(SchedulerNextTime, ReportsEarliestPendingTimestamp) {
  Scheduler sched;
  sched.schedule(30, [] {});
  sched.schedule(10, [] {});
  ASSERT_TRUE(sched.next_time().has_value());
  EXPECT_EQ(*sched.next_time(), 10u);
  sched.run();
  EXPECT_FALSE(sched.next_time().has_value());
}

TEST(ShardGroup, SingleShardRunsInlineAndInvokesOnWorker) {
  Scheduler sched;
  std::vector<SimTime> fired_at;
  sched.schedule(5, [&] { fired_at.push_back(sched.now()); });
  sched.schedule(9, [&] { fired_at.push_back(sched.now()); });
  std::vector<std::uint32_t> workers;
  ShardGroup group({&sched}, 2, [&](std::uint32_t shard) { workers.push_back(shard); });
  EXPECT_EQ(group.run(), 2u);
  EXPECT_EQ(fired_at, (std::vector<SimTime>{5, 9}));
  EXPECT_EQ(workers, (std::vector<std::uint32_t>{0}));
  EXPECT_GE(group.windows(), 1u);
}

TEST(ShardGroup, MailExecutesOnDestinationAtArrivalTime) {
  Scheduler a;
  Scheduler b;
  ShardGroup group({&a, &b}, 3);
  SimTime delivered_at = 0;
  a.schedule(4, [&] {
    group.post(0, ShardGroup::Mail{a.now() + 3, 1, 0, 1,
                                   SmallFn([&] { delivered_at = b.now(); })});
  });
  group.run();
  EXPECT_EQ(delivered_at, 7u);
}

TEST(ShardGroup, CrossShardChainAdvancesThroughManyWindows) {
  // A two-shard ping-pong: each hop is exactly one lookahead ahead, so
  // every hop needs its own conservative window.
  Scheduler a;
  Scheduler b;
  ShardGroup group({&a, &b}, 1);
  Scheduler* scheds[2] = {&a, &b};
  constexpr int kHops = 32;
  int hops = 0;
  std::function<void(int)> hop = [&](int i) {
    ++hops;
    if (i >= kHops) return;
    const std::uint32_t src = static_cast<std::uint32_t>(i % 2);
    const std::uint32_t dst = 1 - src;
    group.post(src, ShardGroup::Mail{scheds[src]->now() + 1, dst, src,
                                     static_cast<std::uint64_t>(i),
                                     SmallFn([&hop, i] { hop(i + 1); })});
  };
  a.schedule(1, [&] { hop(0); });
  group.run();
  EXPECT_EQ(hops, kHops + 1);
  EXPECT_GE(group.windows(), static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(group.lookahead(), 1u);
}

// Mail whose injection throws (an empty fn) must come back out of run()
// as that exception at every shard count. The injection runs while
// every shard waits at the window barrier, never on a thread that could
// let the exception escape and terminate the process.
TEST(ShardGroup, MailThatCannotBeInjectedRethrowsAtEveryShardCount) {
  for (const std::uint32_t shard_count : {1u, 2u}) {
    std::vector<Scheduler> scheds(shard_count);
    std::vector<Scheduler*> raw;
    for (auto& sched : scheds) raw.push_back(&sched);
    ShardGroup group(std::move(raw), 2);
    scheds[0].schedule(3, [] {});
    group.post(0, ShardGroup::Mail{5, shard_count - 1, 0, 1, SmallFn{}});
    EXPECT_THROW(group.run(), std::invalid_argument) << shard_count << " shards";
  }
}

TEST(ShardGroup, EventLimitStopsAtWindowGranularity) {
  Scheduler a;
  Scheduler b;
  for (SimTime t = 1; t <= 100; ++t) {
    a.schedule(t, [] {});
    b.schedule(t, [] {});
  }
  ShardGroup group({&a, &b}, 1);
  const auto fired = group.run(/*event_limit=*/10);
  EXPECT_TRUE(group.hit_event_limit());
  EXPECT_GE(fired, 10u);
  EXPECT_LT(fired, 200u);
}

// The protocol's two load-bearing properties, checked over randomized
// topologies x 32 seeds:
//
//   1. Conservative safety: a shard never executes an event while a
//      lower-timestamp cross-shard event for it is deliverable — every
//      mail fn runs on its destination exactly at its arrival time, and
//      each lane's observed execution times are nondecreasing.
//   2. Grouping invariance: the per-lane execution log (time, tag,
//      local rng draw) is identical whether the lanes are grouped onto
//      1, 2, or 4 shards.
//
// Each lane appends only to its own log (its shard's thread), so the
// logs need no locking and the comparison happens after run().
namespace shard_property {

struct LogEntry {
  SimTime at = 0;
  std::uint64_t tag = 0;
  std::uint64_t draw = 0;
  bool operator==(const LogEntry&) const = default;
};

struct Harness {
  static constexpr std::uint32_t kLanes = 8;
  static constexpr Duration kLookahead = 2;

  explicit Harness(std::uint64_t seed, std::uint32_t shard_count)
      : shard_count_(shard_count) {
    scheds_.resize(shard_count);
    for (auto& s : scheds_) s = std::make_unique<Scheduler>();
    std::vector<Scheduler*> raw;
    for (auto& s : scheds_) raw.push_back(s.get());
    group_ = std::make_unique<ShardGroup>(std::move(raw), kLookahead);
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      rngs_.emplace_back(seed + 0x9e3779b97f4a7c15ULL * (lane + 1));
      logs_.emplace_back();
      mail_seq_.push_back(0);
    }
    // Seed each lane with one initial event; fuel bounds the run.
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      sched_of(lane).schedule_at(1 + lane % 3,
                                 [this, lane] { step(lane, /*fuel=*/12); });
    }
  }

  Scheduler& sched_of(std::uint32_t lane) { return *scheds_[lane % shard_count_]; }

  /// One lane event: log (now, tag, rng draw), then either schedule a
  /// local follow-up or post cross-lane mail one lookahead (plus jitter)
  /// ahead — the same decision sequence for every shard count because
  /// it consumes only the lane's own rng.
  void step(std::uint32_t lane, int fuel) {
    auto& sched = sched_of(lane);
    const std::uint64_t draw = rngs_[lane].next();
    logs_[lane].push_back({sched.now(), static_cast<std::uint64_t>(fuel), draw});
    if (fuel <= 0) return;
    const auto jitter = static_cast<Duration>(draw % 4);
    if (draw % 3 == 0) {
      const auto target = static_cast<std::uint32_t>((draw >> 8) % kLanes);
      const SimTime at = sched.now() + kLookahead + jitter;
      group_->post(lane % shard_count_,
                   ShardGroup::Mail{at, target % shard_count_, lane, ++mail_seq_[lane],
                                    SmallFn([this, target, fuel, at] {
                                      EXPECT_EQ(sched_of(target).now(), at);
                                      step(target, fuel - 1);
                                    })});
    } else {
      sched.schedule(1 + jitter, [this, lane, fuel] { step(lane, fuel - 1); });
    }
  }

  std::vector<std::vector<LogEntry>> run() {
    group_->run();
    for (const auto& log : logs_) {
      for (std::size_t i = 1; i < log.size(); ++i) {
        EXPECT_LE(log[i - 1].at, log[i].at) << "lane execution went backwards";
      }
    }
    return logs_;
  }

  std::uint32_t shard_count_;
  std::vector<std::unique_ptr<Scheduler>> scheds_;
  std::unique_ptr<ShardGroup> group_;
  std::vector<Rng> rngs_;
  std::vector<std::vector<LogEntry>> logs_;
  std::vector<std::uint64_t> mail_seq_;
};

}  // namespace shard_property

TEST(ShardGroupProperty, PerLaneExecutionIdenticalForEveryShardCount) {
  using shard_property::Harness;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto base = Harness(seed, 1).run();
    std::size_t events = 0;
    for (const auto& log : base) events += log.size();
    ASSERT_GT(events, Harness::kLanes);  // the workload actually ran
    EXPECT_EQ(Harness(seed, 2).run(), base);
    EXPECT_EQ(Harness(seed, 4).run(), base);
    if (::testing::Test::HasFailure()) return;  // one seed's diff is enough
  }
}

}  // namespace
}  // namespace mobidist::sim
