#include "obs/binlog.hpp"

#include <bit>
#include <cstring>

#include "obs/events.hpp"

namespace mobidist::obs {

BinRecord encode(const Event& event, std::uint16_t detail_id) noexcept {
  BinRecord rec{};
  rec.at = event.at;
  rec.seq = event.seq;
  rec.lamport = event.lamport;
  rec.cause = event.cause;
  rec.channel = event.channel;
  rec.arg = event.arg;
  rec.entity_idx = event.entity.idx;
  rec.peer_idx = event.peer.idx;
  rec.detail_id = detail_id;
  rec.kind = static_cast<std::uint8_t>(event.kind);
  rec.entity_kind = static_cast<std::uint8_t>(event.entity.kind);
  rec.peer_kind = static_cast<std::uint8_t>(event.peer.kind);
  return rec;
}

Event decode(const BinRecord& record, std::uint64_t id, std::string_view detail) noexcept {
  Event ev;
  ev.id = id;
  ev.at = record.at;
  ev.kind = static_cast<EventKind>(record.kind);
  ev.entity = Entity{static_cast<Entity::Kind>(record.entity_kind), record.entity_idx};
  ev.peer = Entity{static_cast<Entity::Kind>(record.peer_kind), record.peer_idx};
  ev.seq = record.seq;
  ev.lamport = record.lamport;
  ev.cause = record.cause;
  ev.channel = record.channel;
  ev.arg = record.arg;
  ev.detail = detail;
  return ev;
}

InternTable::InternTable(std::size_t capacity)
    : capacity_(capacity < 2 ? 2 : (capacity > kMaxCapacity ? kMaxCapacity : capacity)) {
  // Reserved entries: the empty tag (emit's fast path skips the hash
  // entirely) and the overflow marker.
  storage_.emplace_back();
  ids_.emplace(std::string_view{storage_.back()}, kEmptyId);
  storage_.emplace_back(kOverflowText);
  ids_.emplace(std::string_view{storage_.back()}, kOverflowId);
}

std::uint16_t InternTable::intern(std::string_view text) {
  if (text.empty()) return kEmptyId;
  if (const auto it = ids_.find(text); it != ids_.end()) return it->second;
  if (storage_.size() >= capacity_) {
    ++overflows_;
    return kOverflowId;
  }
  const auto id = static_cast<std::uint16_t>(storage_.size());
  storage_.emplace_back(text);
  ids_.emplace(std::string_view{storage_.back()}, id);
  return id;
}

std::string_view InternTable::view(std::uint16_t id) const noexcept {
  if (id >= storage_.size()) return kOverflowText;
  return storage_[id];
}

void InternTable::clear() {
  const std::size_t capacity = capacity_;
  *this = InternTable(capacity);
}

BinLog::BinLog(std::size_t capacity)
    : capacity_(std::bit_ceil(capacity < 1 ? std::size_t{1} : capacity)) {
  // Reserve the full ring up front: appends stay allocation-free from
  // the very first record, and untouched pages cost nothing until the
  // ring actually fills.
  ring_.reserve(capacity_);
}

void BinLog::append(const BinRecord& record) {
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[static_cast<std::size_t>(head_ & (capacity_ - 1))] = record;
  }
  ++head_;
}

void BinLog::clear() {
  ring_.clear();
  head_ = 0;
}

// --- binlog file format -----------------------------------------------------

namespace {

constexpr std::uint32_t kMagic = 0x474C424DU;  // "MBLG" little-endian
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Cursor over the file image; every read is bounds-checked.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool read_bytes(std::string& out, std::size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    out.assign(bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serialize_binlog(const EventStream& stream) {
  const BinLog& log = stream.binlog();
  const InternTable& strings = stream.interner();
  std::string out;
  out.reserve(48 + strings.size() * 16 + log.retained() * sizeof(BinRecord));
  put(out, kMagic);
  put(out, kVersion);
  put(out, static_cast<std::uint32_t>(sizeof(BinRecord)));
  put(out, static_cast<std::uint32_t>(strings.size()));
  put(out, log.head());
  put(out, log.dropped());
  put(out, static_cast<std::uint64_t>(log.retained()));
  put(out, strings.overflows());
  for (std::size_t id = 0; id < strings.size(); ++id) {
    const auto text = strings.view(static_cast<std::uint16_t>(id));
    put(out, static_cast<std::uint32_t>(text.size()));
    out.append(text);
  }
  for (std::uint64_t id = log.dropped() + 1; id <= log.head(); ++id) {
    const BinRecord& rec = log.record_of(id);
    char buf[sizeof(BinRecord)];
    std::memcpy(buf, &rec, sizeof(BinRecord));
    out.append(buf, sizeof(BinRecord));
  }
  return out;
}

std::optional<DecodedBinlog> decode_binlog(std::string_view bytes) {
  ByteReader in(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t record_size = 0;
  std::uint32_t string_count = 0;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retained = 0;
  std::uint64_t overflows = 0;
  if (!in.read(magic) || !in.read(version) || !in.read(record_size) ||
      !in.read(string_count) || !in.read(emitted) || !in.read(dropped) ||
      !in.read(retained) || !in.read(overflows)) {
    return std::nullopt;
  }
  if (magic != kMagic || version != kVersion || record_size != sizeof(BinRecord)) {
    return std::nullopt;
  }
  if (string_count > InternTable::kMaxCapacity || dropped > emitted ||
      retained != emitted - dropped) {
    return std::nullopt;
  }

  DecodedBinlog decoded;
  decoded.emitted = emitted;
  decoded.dropped = dropped;
  decoded.overflows = overflows;
  std::string text;
  for (std::uint32_t id = 0; id < string_count; ++id) {
    std::uint32_t length = 0;
    if (!in.read(length) || !in.read_bytes(text, length)) return std::nullopt;
    // Re-interning in file order reproduces the producer's ids (the two
    // reserved entries lead every table); a mismatch means corruption.
    if (decoded.strings.intern(text) != id) return std::nullopt;
  }
  if (in.remaining() != retained * sizeof(BinRecord)) return std::nullopt;
  decoded.events.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = 0; i < retained; ++i) {
    BinRecord rec;
    if (!in.read(rec)) return std::nullopt;
    if (rec.detail_id >= decoded.strings.size()) return std::nullopt;
    decoded.events.push_back(
        decode(rec, dropped + i + 1, decoded.strings.view(rec.detail_id)));
  }
  return decoded;
}

}  // namespace mobidist::obs
