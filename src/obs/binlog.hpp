#pragma once

#include <cstdint>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace mobidist::obs {

struct Event;
class EventStream;

/// Fixed-size binary encoding of one obs::Event (addb2-style telemetry
/// record). The event id is NOT stored: retained ids are contiguous, so
/// a record's id is derived from its ring position; `detail` is replaced
/// by a u16 id into the stream's InternTable. Exactly 64 bytes so a ring
/// slot never straddles more than one cache line, and so capacity math
/// stays trivial (capacity × 64 B of retained telemetry).
struct BinRecord {
  std::uint64_t at = 0;        ///< virtual time of emission
  std::uint64_t seq = 0;       ///< per-entity emission counter
  std::uint64_t lamport = 0;   ///< per-entity Lamport clock
  std::uint64_t cause = 0;     ///< causal parent event id
  std::uint64_t channel = 0;   ///< FIFO channel key; 0 = unordered
  std::uint64_t arg = 0;       ///< kind-specific payload
  std::uint32_t entity_idx = 0;  ///< Entity::idx of the emitter
  std::uint32_t peer_idx = 0;    ///< Entity::idx of the peer
  std::uint16_t detail_id = 0;   ///< InternTable id of the detail tag
  std::uint8_t kind = 0;         ///< EventKind as raw u8
  std::uint8_t entity_kind = 0;  ///< Entity::Kind of the emitter
  std::uint8_t peer_kind = 0;    ///< Entity::Kind of the peer
  std::uint8_t pad[3] = {0, 0, 0};  ///< explicit zero padding (file determinism)
};
static_assert(sizeof(BinRecord) == 64, "BinRecord must stay one cache line");
static_assert(std::is_trivially_copyable_v<BinRecord>,
              "BinRecord must memcpy into the binlog file");

/// Encode every Event field except the (position-derived) id.
/// `detail_id` is the interned id of event.detail.
[[nodiscard]] BinRecord encode(const Event& event, std::uint16_t detail_id) noexcept;

/// Inverse of encode: rebuild the Event for `id` whose detail text is
/// `detail` (the caller resolves record.detail_id through its table, so
/// the returned view stays valid as long as that table lives).
[[nodiscard]] Event decode(const BinRecord& record, std::uint64_t id,
                           std::string_view detail) noexcept;

/// Bounded per-stream string interner for detail tags. Emitters pay one
/// heap allocation per *distinct* tag; every later emission of the same
/// tag is a hash lookup into stable storage (zero allocations). Growth
/// is capped: once `capacity()` distinct strings are held, new tags map
/// to the reserved kOverflowId (and are counted in overflows()) instead
/// of growing without bound.
class InternTable {
 public:
  /// Id of the empty string (pre-interned; emit's fast path).
  static constexpr std::uint16_t kEmptyId = 0;
  /// Reserved id returned once the table is full; renders as
  /// kOverflowText so truncation is visible in exports, not silent.
  static constexpr std::uint16_t kOverflowId = 1;
  /// The string kOverflowId resolves to.
  static constexpr std::string_view kOverflowText = "!intern-overflow";
  /// Default cap: far above the distinct-tag count of any current
  /// workload (tens), small enough that a pathological emitter cannot
  /// balloon the table past ~a few hundred KB.
  static constexpr std::size_t kDefaultCapacity = 8192;
  /// Hard ceiling: ids are u16.
  static constexpr std::size_t kMaxCapacity = 65536;

  explicit InternTable(std::size_t capacity = kDefaultCapacity);

  InternTable(InternTable&&) = default;
  InternTable& operator=(InternTable&&) = default;
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  /// Id for `text`, inserting on first sight. Returns kOverflowId (and
  /// bumps overflows()) when the table is full and `text` is new.
  [[nodiscard]] std::uint16_t intern(std::string_view text);

  /// The string behind an id; views stay valid until clear()/destruction.
  [[nodiscard]] std::string_view view(std::uint16_t id) const noexcept;

  /// Distinct strings held, including the two reserved entries.
  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  /// Maximum distinct strings (including the reserved entries).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Intern attempts that fell into kOverflowId because the table was full.
  [[nodiscard]] std::uint64_t overflows() const noexcept { return overflows_; }

  /// Drop everything but the reserved entries; invalidates all views.
  void clear();

 private:
  /// Stable storage: deque elements never move, so string_view keys in
  /// ids_ (and views handed to callers) survive growth.
  std::deque<std::string> storage_;
  std::unordered_map<std::string_view, std::uint16_t> ids_;
  std::size_t capacity_;
  std::uint64_t overflows_ = 0;
};

/// Power-of-two ring of BinRecords with a monotonic head counter —
/// the in-memory telemetry sink behind EventStream (and the per-shard
/// buffer shape for the future sharded core). Appends never allocate:
/// the ring's full footprint is reserved at construction and records
/// overwrite the oldest slot once the ring is full.
class BinLog {
 public:
  explicit BinLog(std::size_t capacity);

  /// Append the record for id head()+1. Never allocates.
  void append(const BinRecord& record);

  /// Total records ever appended (== the id of the newest record).
  [[nodiscard]] std::uint64_t head() const noexcept { return head_; }
  /// Records overwritten at the tail (exact truncation count).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return head_ > capacity_ ? head_ - capacity_ : 0;
  }
  /// Records currently held: min(head, capacity).
  [[nodiscard]] std::size_t retained() const noexcept {
    return head_ > capacity_ ? capacity_ : static_cast<std::size_t>(head_);
  }
  /// Ring capacity (input rounded up to a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The record for a retained id in [dropped()+1, head()]; ids map to
  /// ring slots directly because eviction is oldest-first.
  [[nodiscard]] const BinRecord& record_of(std::uint64_t id) const noexcept {
    return ring_[static_cast<std::size_t>((id - 1) & (capacity_ - 1))];
  }

  /// Forget all records (capacity is kept).
  void clear();

 private:
  std::vector<BinRecord> ring_;
  std::size_t capacity_;  // power of two
  std::uint64_t head_ = 0;
};

// --- binlog file format -----------------------------------------------------
//
//   [u32 magic "MBLG"] [u32 version=1] [u32 record_size=64] [u32 string_count]
//   [u64 emitted] [u64 dropped] [u64 retained] [u64 intern_overflows]
//   string_count × ([u32 length] [length bytes])      — in intern-id order
//   retained × BinRecord                              — oldest first
//
// Native (little-endian) byte order; the dump tool runs on the same
// machine class as the simulator.

/// Serialize a stream's retained telemetry (header + intern table +
/// records) into the binlog file format.
[[nodiscard]] std::string serialize_binlog(const EventStream& stream);

/// A decoded binlog file. `events` hold detail views into `strings`, so
/// the struct must stay alive while the events are in use (move-only
/// for that reason — a copy would silently dangle).
struct DecodedBinlog {
  InternTable strings{InternTable::kMaxCapacity};  ///< rebuilt intern table
  std::vector<Event> events;                       ///< retained events, oldest first
  std::uint64_t emitted = 0;    ///< producer's total emitted count
  std::uint64_t dropped = 0;    ///< producer's truncation count
  std::uint64_t overflows = 0;  ///< producer's intern-table overflow count
};

/// Parse a binlog file image; nullopt on a malformed or truncated file.
[[nodiscard]] std::optional<DecodedBinlog> decode_binlog(std::string_view bytes);

}  // namespace mobidist::obs
