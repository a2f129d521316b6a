#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace mobidist::sim {

namespace {

// Corpses below this count are never worth a compaction pass.
constexpr std::size_t kCompactFloor = 64;

}  // namespace

void Scheduler::enqueue(SimTime at, std::uint32_t slot) {
  if (at - now_ < kWheel) {
    append(at % kWheel, slot);
  } else {
    heap_.push_back(Entry{at, next_seq_++, slot});
    sift_up(heap_.size() - 1);
  }
}

bool Scheduler::cancel(EventHandle h) {
  const auto slot = static_cast<std::uint32_t>(h.id);
  const auto generation = static_cast<std::uint32_t>(h.id >> 32);
  // Only a pending slot has an odd generation; this also refuses the
  // invalid handle 0.
  if ((generation & 1U) == 0) return false;
  if ((slot & kWideBit) != 0) return cancel_in(wide_, slot & ~kWideBit, generation);
  return cancel_in(small_, slot, generation);
}

template <typename S>
bool Scheduler::cancel_in(Pool<S>& pool, std::uint32_t index, std::uint32_t generation) {
  if (!pool.holds(index)) return false;
  S& s = pool[index];
  if (s.generation != generation) return false;
  // The entry becomes a corpse, dropped when it surfaces or compacted
  // away when corpses outnumber live events. Its closure goes now (the
  // captures may hold large payloads), after the counts are settled in
  // case its destructor calls back in.
  ++s.generation;
  --live_;
  ++corpses_;
  s.fn.reset();
  maybe_compact();
  return true;
}

void Scheduler::sift_up(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i != 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

Scheduler::Entry Scheduler::pop_entry() noexcept {
  assert(!heap_.empty());
  const Entry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

void Scheduler::append(std::size_t bucket, std::uint32_t slot) noexcept {
  link(slot).next = kNoSlot;
  Bucket& b = ring_[bucket];
  if (b.head == kNoSlot) {
    b.head = slot;
    occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  } else {
    link(b.tail).next = slot;
  }
  b.tail = slot;
  ++ring_size_;
}

std::uint32_t Scheduler::unlink_front(std::size_t bucket) noexcept {
  // Every unlink spends one ring entry, so a walk that unlinks from the
  // front (next_time's corpse loop) ends within ring_size_ steps.
  assert(ring_size_ != 0 && "Scheduler: ring count underflows");
  Bucket& b = ring_[bucket];
  const std::uint32_t slot = b.head;
  b.head = link(slot).next;
  if (b.head == kNoSlot) occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  --ring_size_;
  return slot;
}

std::size_t Scheduler::first_bucket() const noexcept {
  // Ring entries are due in [now, now + kWheel), so the earliest one is
  // the first occupied bucket at or after now's, wrapping around once.
  // Coming back to now's word, its buckets from now's on are known empty.
  assert(ring_size_ != 0);
  const std::size_t start = now_ % kWheel;
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  // With some bucket occupied, the scan ends within one wrap.
  assert(std::any_of(occupied_.begin(), occupied_.end(),
                     [](std::uint64_t word) { return word != 0; }));
  while (bits == 0) {
    w = (w + 1) % occupied_.size();
    bits = occupied_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void Scheduler::advance_to(SimTime t) {
  now_ = t;
  // Heap entries leave in (at, seq) order, so same-instant entries reach
  // their bucket in seq order, and before any direct insert can.
  while (!heap_.empty() && heap_.front().at - now_ < kWheel) {
    const Entry e = pop_entry();
    if (is_pending(e.slot)) {
      append(e.at % kWheel, e.slot);
    } else {
      release_slot(e.slot);
      --corpses_;
    }
  }
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  if ((slot & kWideBit) != 0) {
    wide_.release(slot & ~kWideBit);
  } else {
    small_.release(slot);
  }
}

void Scheduler::maybe_compact() {
  if (corpses_ >= kCompactFloor && corpses_ > live_) compact();
}

void Scheduler::compact() {
  // Drop every corpse in one pass over each level: unlink ring corpses
  // before their slots are freed, then restore the heap invariant
  // bottom-up. O(queue) — amortized against the cancels that created the
  // corpses, and it keeps queue_depth() <= 2 * pending() + kCompactFloor.
  [[maybe_unused]] const std::size_t ring_entries = ring_size_;
  [[maybe_unused]] std::size_t walked = 0;  // chain links, one per ring entry
  for (std::size_t bucket = 0; bucket < kWheel; ++bucket) {
    Bucket& b = ring_[bucket];
    std::uint32_t slot = b.head;
    b = Bucket{};
    while (slot != kNoSlot) {
      ++walked;
      assert(walked <= ring_entries && "Scheduler: a bucket chain loops");
      const std::uint32_t next = link(slot).next;
      --ring_size_;
      if (is_pending(slot)) {
        append(bucket, slot);
      } else {
        release_slot(slot);
      }
      slot = next;
    }
    if (b.head == kNoSlot) occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  }
  std::size_t kept = 0;
  for (const Entry& e : heap_) {
    if (is_pending(e.slot)) {
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

std::optional<SimTime> Scheduler::next_time() {
  for (;;) {
    if (ring_size_ == 0) {
      while (!heap_.empty() && !is_pending(heap_.front().slot)) {
        release_slot(pop_entry().slot);
        --corpses_;
      }
      if (heap_.empty()) return std::nullopt;
      return heap_.front().at;
    }
    const std::size_t bucket = first_bucket();
    if (is_pending(ring_[bucket].head)) return now_ + ((bucket - now_) % kWheel);
    // A corpse surfaced: its slot can be recycled now.
    release_slot(unlink_front(bucket));
    --corpses_;
  }
}

bool Scheduler::fire_next(SimTime until) {
  const std::optional<SimTime> at = next_time();
  if (!at || *at > until) return false;
  // Advancing first moves an event waiting in the heap into its bucket;
  // either way it is then the front of that bucket.
  if (*at != now_) advance_to(*at);
  const std::uint32_t slot = unlink_front(*at % kWheel);
  --live_;
  ++fired_;
  maybe_compact();
  if ((slot & kWideBit) != 0) {
    fire(wide_, slot & ~kWideBit);
  } else {
    fire(small_, slot);
  }
  return true;
}

template <typename S>
void Scheduler::fire(Pool<S>& pool, std::uint32_t index) {
  S& s = pool[index];
  // Even again: the event's own handle stops matching, so its callback
  // cannot cancel it. The slot is on no list while the callback runs,
  // and blocks never move, so the closure stays put however much the
  // callback schedules; it is destroyed and recycled once the call
  // returns or throws.
  ++s.generation;
  struct Recycle {
    Pool<S>& pool;
    std::uint32_t index;
    ~Recycle() {
      pool[index].fn.reset();
      pool.release(index);
    }
  } recycle{pool, index};
  s.fn();
}

bool Scheduler::step() { return fire_next(kTimeNever); }

std::uint64_t Scheduler::run_loop(SimTime until) {
  hit_limit_ = false;
  std::uint64_t n = 0;
  while (fire_next(until)) {
    ++n;
    if (limit_ != 0 && fired_ >= limit_) {
      hit_limit_ = true;
      break;
    }
  }
  return n;
}

std::uint64_t Scheduler::run() { return run_loop(kTimeNever); }

std::uint64_t Scheduler::run_until(SimTime until) {
  const std::uint64_t n = run_loop(until);
  if (!hit_limit_ && until > now_) advance_to(until);
  return n;
}

}  // namespace mobidist::sim
