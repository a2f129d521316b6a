#include "net/formation.hpp"

#include <cassert>
#include <utility>

namespace mobidist::net {

void FormationLayer::enqueue(MssId from, MssId to, Item item) {
  assert(cfg_.max_packet_msgs >= 1 && "FormationConfig.max_packet_msgs must be >= 1");
  const std::size_t slot = slot_of(from, to);
  auto& queue = queues_[slot];
  const bool was_empty = queue.items.empty();
  queue.bytes += item.bytes;
  queue.items.push_back(std::move(item));

  if (queue.items.size() >= cfg_.max_packet_msgs) {
    flush_queue(queue, from, to, "count");
    return;
  }
  if (queue.bytes >= cfg_.max_packet_bytes) {
    flush_queue(queue, from, to, "bytes");
    return;
  }
  if (was_empty) {
    // First message into an idle pair: arm the deadline for this epoch.
    // A flush before the timer fires bumps the epoch and the timer
    // becomes a no-op; there is nothing to cancel.
    const auto epoch = queue.epoch;
    sched_.schedule(cfg_.flush_deadline, [this, slot, epoch, from, to] {
      auto& armed = queues_[slot];
      if (armed.epoch != epoch || armed.items.empty()) {
        return;  // already flushed (or never refilled): stale timer
      }
      flush_queue(armed, from, to, "deadline");
    });
  }
}

void FormationLayer::flush_pair(MssId from, MssId to, const char* trigger) {
  auto& queue = queues_[slot_of(from, to)];
  if (queue.items.empty()) return;
  flush_queue(queue, from, to, trigger);
}

void FormationLayer::flush_queue(Queue& queue, MssId from, MssId to, const char* trigger) {
  Packet packet;
  packet.from = from;
  packet.to = to;
  packet.items = std::move(queue.items);
  packet.bytes = queue.bytes;
  packet.trigger = trigger;
  queue.items.clear();
  queue.bytes = 0;
  ++queue.epoch;
  transmit_(std::move(packet));
}

}  // namespace mobidist::net
