#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace mobidist::sim {

namespace {

// Handle layout: generation in the high 32 bits, slot index + 1 in the
// low 32 bits (the +1 keeps id 0 reserved for "invalid").
constexpr std::uint64_t pack_handle(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<std::uint64_t>(generation) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

// Corpses below this count are never worth a compaction pass.
constexpr std::size_t kCompactFloor = 64;

}  // namespace

EventHandle Scheduler::schedule(Duration delay, Callback fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Scheduler::schedule_at(SimTime at, Callback fn) {
  if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (!fn) throw std::invalid_argument("Scheduler: null callback");
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
  if (at - now_ < kWheel) {
    append(at % kWheel, slot);
  } else {
    heap_.push_back(Entry{at, next_seq_++, slot});
    sift_up(heap_.size() - 1);
  }
  ++live_;
  return EventHandle{pack_handle(s.generation, slot)};
}

bool Scheduler::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const auto slot = static_cast<std::uint32_t>((h.id & 0xffffffffU) - 1);
  const auto generation = static_cast<std::uint32_t>(h.id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.scheduled || s.generation != generation) return false;
  // Destroy the callback now (its captures may hold large payloads); the
  // entry becomes a corpse, dropped when it surfaces or compacted away
  // when corpses outnumber live events.
  s.fn.reset();
  s.scheduled = false;
  --live_;
  ++corpses_;
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
  slots_[slot].next = kNoSlot;
  Bucket& b = ring_[bucket];
  if (b.head == kNoSlot) {
    b.head = slot;
    occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  } else {
    slots_[b.tail].next = slot;
  }
  b.tail = slot;
  ++ring_size_;
}

std::uint32_t Scheduler::unlink_front(std::size_t bucket) noexcept {
  Bucket& b = ring_[bucket];
  const std::uint32_t slot = b.head;
  b.head = slots_[slot].next;
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
    if (slots_[e.slot].scheduled) {
      append(e.at % kWheel, e.slot);
    } else {
      release_slot(e.slot);
      --corpses_;
    }
  }
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  ++s.generation;  // stale handles to this slot stop matching
  free_.push_back(slot);
}

void Scheduler::maybe_compact() {
  if (corpses_ >= kCompactFloor && corpses_ > live_) compact();
}

void Scheduler::compact() {
  // Drop every corpse in one pass over each level: unlink ring corpses
  // before their slots are freed, then restore the heap invariant
  // bottom-up. O(queue) — amortized against the cancels that created the
  // corpses, and it keeps queue_depth() <= 2 * pending() + kCompactFloor.
  for (std::size_t bucket = 0; bucket < kWheel; ++bucket) {
    Bucket& b = ring_[bucket];
    std::uint32_t slot = b.head;
    b = Bucket{};
    while (slot != kNoSlot) {
      const std::uint32_t next = slots_[slot].next;
      --ring_size_;
      if (slots_[slot].scheduled) {
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

std::optional<SimTime> Scheduler::next_time() {
  for (;;) {
    if (ring_size_ == 0) {
      while (!heap_.empty() && !slots_[heap_.front().slot].scheduled) {
        release_slot(pop_entry().slot);
        --corpses_;
      }
      if (heap_.empty()) return std::nullopt;
      return heap_.front().at;
    }
    const std::size_t bucket = first_bucket();
    if (slots_[ring_[bucket].head].scheduled) return now_ + ((bucket - now_) % kWheel);
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
  Slot& s = slots_[slot];
  Callback fn = std::move(s.fn);
  s.scheduled = false;
  release_slot(slot);
  --live_;
  ++fired_;
  maybe_compact();
  fn();
  return true;
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
