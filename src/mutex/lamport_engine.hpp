#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

namespace mobidist::mutex {

/// One message of Lamport's 1978 mutual-exclusion algorithm.
struct LamportMsg {
  /// Message kind: REQUEST / REPLY / RELEASE per the 1978 paper.
  enum class Kind : std::uint8_t { kRequest, kReply, kRelease };
  Kind kind = Kind::kRequest;
  std::uint64_t clock = 0;   ///< sender's logical clock at send time
  std::uint32_t origin = 0;  ///< participant the request/release belongs to
  std::uint64_t req_id = 0;  ///< request tag (kRequest/kRelease); L2 keys MHs by it
};

/// Transport-agnostic implementation of Lamport's timestamp mutual
/// exclusion among n participants with FIFO pairwise channels.
///
/// The same engine runs both L1 (participants = the N mobile hosts,
/// transport = the MH-to-MH relay) and L2 (participants = the M MSSs,
/// transport = the wired mesh). A participant may have several requests
/// outstanding at once — L2 needs this, since one MSS requests on behalf
/// of many local MHs, each tagged with its own req_id.
///
/// Correctness contract (checked by unit tests): requests are granted in
/// strictly increasing (timestamp, origin) order, one at a time
/// system-wide, provided every participant processes every message and
/// channels are FIFO.
class LamportEngine {
 public:
  /// Deliver `msg` to participant `peer`.
  using SendFn = std::function<void(std::uint32_t peer, const LamportMsg& msg)>;
  /// Local request `req_id` (timestamp `ts`) now holds the lock.
  using AcquireFn = std::function<void(std::uint64_t req_id, std::uint64_t ts)>;

  LamportEngine(std::uint32_t self, std::uint32_t n);

  /// Install the transport callback used for every outgoing message.
  void set_send(SendFn send) { send_ = std::move(send); }
  /// Install the callback fired when a local request acquires the lock.
  void set_on_acquired(AcquireFn fn) { on_acquired_ = std::move(fn); }

  /// Submit a local request. Returns the Lamport timestamp assigned —
  /// in L2 this is "the timestamp of hl's request" the paper's
  /// correctness argument relies on. Broadcasts REQUEST to all peers.
  std::uint64_t submit(std::uint64_t req_id);

  /// Release a previously granted (or still pending — the L2 disconnect
  /// path) local request. Broadcasts RELEASE to all peers.
  void release(std::uint64_t req_id);

  /// Deliver a peer's message.
  void on_message(std::uint32_t from, const LamportMsg& msg);

  /// Current Lamport logical clock value.
  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }
  /// Entries in the local view of the global request queue.
  [[nodiscard]] std::size_t queue_size() const noexcept { return queue_size_; }
  /// REQUEST messages sent by this participant (cost cross-checks).
  [[nodiscard]] std::uint64_t sent_requests() const noexcept { return sent_requests_; }
  /// REPLY messages sent by this participant (cost cross-checks).
  [[nodiscard]] std::uint64_t sent_replies() const noexcept { return sent_replies_; }
  /// RELEASE messages sent by this participant (cost cross-checks).
  [[nodiscard]] std::uint64_t sent_releases() const noexcept { return sent_releases_; }

 private:
  /// One queued request of a single origin.
  struct Pending {
    std::uint64_t ts;
    std::uint64_t req_id;
  };
  /// One origin's queued requests in timestamp order. Entries before
  /// `head` are already removed; the prefix is reclaimed when the queue
  /// empties or more than half of it is consumed.
  struct OriginQueue {
    std::vector<Pending> items;
    std::size_t head = 0;
  };

  /// Front timestamp of an empty origin queue; sorts after every request.
  static constexpr std::uint64_t kNoRequest = std::numeric_limits<std::uint64_t>::max();

  void broadcast(const LamportMsg& msg);
  void insert(std::uint32_t origin, std::uint64_t ts, std::uint64_t req_id);
  /// Remove origin's request `req_id`; its timestamp, or nullopt if absent.
  std::optional<std::uint64_t> erase(std::uint32_t origin, std::uint64_t req_id);
  void rescan_head();
  void check_grant();

  std::uint32_t self_;
  std::uint32_t n_;
  std::uint64_t clock_ = 0;
  /// Lamport's global request queue, split into one FIFO per origin: an
  /// origin stamps its requests with increasing clocks and channels are
  /// FIFO, so each origin's requests arrive in timestamp order and the
  /// global (ts, origin) order is a merge of the fronts (DESIGN §13).
  std::vector<OriginQueue> queues_;
  /// Timestamp at the front of each origin's queue; kNoRequest if empty.
  std::vector<std::uint64_t> front_ts_;
  /// Origin whose front request heads the global queue; n_ when empty.
  std::uint32_t head_origin_;
  std::size_t queue_size_ = 0;
  /// Highest clock value seen from each peer (self slot unused).
  std::vector<std::uint64_t> latest_ts_;
  /// Timestamp of the local request currently holding the lock, if any.
  std::optional<std::uint64_t> granted_;
  SendFn send_;
  AcquireFn on_acquired_;
  std::uint64_t sent_requests_ = 0;
  std::uint64_t sent_replies_ = 0;
  std::uint64_t sent_releases_ = 0;
};

}  // namespace mobidist::mutex
