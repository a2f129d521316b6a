#include "obs/merge.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mobidist::obs {

void for_each_canonical(std::span<const EventStream* const> streams,
                        const LaneOf& lane_of,
                        const std::function<void(const Event&)>& fn) {
  // Stream s's p-th retained record has global position offset[s] + p.
  std::vector<std::size_t> offset(streams.size() + 1, 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    offset[s + 1] = offset[s] + streams[s]->retained();
  }
  const std::size_t total = offset.back();
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("for_each_canonical: more than 2^32 - 1 records");
  }

  // Global positions scan the streams in order, so within one lane they
  // rise exactly as the lane's own record count does: (at, lane, pos) is
  // the (at, lane, position-within-lane) order, with unique keys.
  struct Key {
    std::uint64_t at;
    std::uint32_t lane;
    std::uint32_t pos;
  };
  static_assert(sizeof(Key) == 16);
  std::vector<Key> keys;
  keys.reserve(total);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const BinLog& log = streams[s]->binlog();
    const std::uint64_t first = log.dropped() + 1;
    for (std::size_t p = 0; p < streams[s]->retained(); ++p) {
      const BinRecord& rec = log.record_of(first + p);
      const Entity entity{static_cast<Entity::Kind>(rec.entity_kind), rec.entity_idx};
      const auto pos = static_cast<std::uint32_t>(offset[s] + p);
      keys.push_back(Key{rec.at, lane_of(entity), pos});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.pos < b.pos;
  });

  // Global position -> merged index.
  std::vector<std::uint32_t> merged_at(total);
  for (std::size_t i = 0; i < total; ++i) {
    merged_at[keys[i].pos] = static_cast<std::uint32_t>(i);
  }

  const auto resolve = [&](std::size_t stream, EventId cause) -> EventId {
    if (cause == 0) return 0;
    if (is_cross_ref(cause)) {
      stream = cross_ref_stream(cause);
      if (stream >= streams.size()) return 0;
      cause = cross_ref_id(cause);
    }
    const EventStream& src = *streams[stream];
    if (cause <= src.dropped() || cause > src.emitted()) return 0;  // evicted or unknown
    return EventId{merged_at[offset[stream] + (cause - src.dropped() - 1)]} + 1;
  };

  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t pos = keys[i].pos;
    const auto s = static_cast<std::size_t>(
        std::upper_bound(offset.begin(), offset.end(), pos) - offset.begin() - 1);
    Event ev = streams[s]->event_at(pos - offset[s]);
    ev.id = static_cast<EventId>(i + 1);
    ev.cause = resolve(s, ev.cause);
    fn(ev);
  }
}

std::vector<Event> merge_canonical(std::span<const EventStream* const> streams,
                                   const LaneOf& lane_of) {
  std::vector<Event> merged;
  std::size_t total = 0;
  for (const auto* stream : streams) total += stream->retained();
  merged.reserve(total);
  for_each_canonical(streams, lane_of,
                     [&merged](const Event& ev) { merged.push_back(ev); });
  return merged;
}

}  // namespace mobidist::obs
