#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace mobidist::sim {

/// Conservative-window coordinator for a group of shard schedulers (the
/// "localities" of the sharded simulation core).
///
/// The group advances virtual time in windows. Each window:
///
///   1. Drain every shard's outbox of cross-shard mail into the pending
///      set, then compute T = the global minimum next-event time across
///      all shard schedulers AND all pending mail arrivals.
///   2. Set horizon = T + lookahead. Inject every pending mail with
///      arrival < horizon into its destination scheduler, in the
///      canonical order (arrival, src_lane, src_seq) — so the FIFO
///      tie-break seq each mail receives is a function of the mail set,
///      not of which shard produced it first in wall-clock time.
///   3. Run every shard in parallel up to (and including) horizon - 1.
///
/// Safety: `lookahead` must be a lower bound on cross-shard latency.
/// Then any mail posted during a window has arrival >= send_time +
/// lookahead >= T + lookahead = horizon, i.e. strictly beyond the events
/// this window executes, so injecting at the next barrier can never
/// schedule into a shard's past. post() asserts this invariant.
///
/// Determinism: window boundaries are computed from the *global* minimum
/// (even for a single-shard group), and all cross-lane traffic rides the
/// mailbox, so the per-lane projection of the execution order is
/// identical for every shard count. run() drives shard 0 on the calling
/// thread and each other shard on a thread of its own; they meet at one
/// barrier per window, whose completion step opens the next window.
class ShardGroup {
 public:
  /// One cross-shard message: run `fn` on shard `dst_shard` at virtual
  /// time `at`. (src_lane, src_seq) is the canonical injection tie-break;
  /// src_seq must be monotone per source lane.
  struct Mail {
    SimTime at = 0;
    std::uint32_t dst_shard = 0;
    std::uint32_t src_lane = 0;
    std::uint64_t src_seq = 0;
    SmallFn fn;
  };

  /// `shards` outlive the group; `lookahead` >= 1 is the safe window
  /// width (the wired-latency lower bound in the net layer).
  /// `on_worker`, when set, runs once on each shard's thread, the
  /// calling thread included, before it executes any event (the Network
  /// installs its thread-local shard index there).
  ShardGroup(std::vector<Scheduler*> shards, Duration lookahead,
             std::function<void(std::uint32_t)> on_worker = {});

  /// Post cross-shard mail from shard `src_shard` (the caller's own
  /// shard; during a window only that shard's thread may use its slot).
  /// Asserts at >= current horizon — the conservative-lookahead contract.
  void post(std::uint32_t src_shard, Mail mail);

  /// Run windows until every scheduler drains and no mail is pending.
  /// Returns total events fired during this call. `event_limit` != 0
  /// stops (with hit_event_limit()) once the group-wide fired() total
  /// reaches it — checked at window boundaries, so the limit is honoured
  /// with window granularity rather than exactly. An exception thrown by
  /// an event or by injecting mail ends the run after the current window
  /// and is rethrown here (the first shard's, in shard order, if several
  /// threw).
  std::uint64_t run(std::uint64_t event_limit = 0);

  /// True if the last run() stopped on the event limit.
  [[nodiscard]] bool hit_event_limit() const noexcept { return hit_limit_; }
  /// Conservative windows executed by the last run().
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// The safe lookahead this group synchronizes with.
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  /// Sum of fired() across the member schedulers.
  [[nodiscard]] std::uint64_t total_fired() const noexcept;
  /// Number of member schedulers.
  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }

 private:
  /// Compute the next window and inject deliverable mail; false when the
  /// group is drained (or the event limit tripped). Runs in the barrier's
  /// completion step, while every shard waits.
  bool open_window(std::uint64_t event_limit);

  std::vector<Scheduler*> shards_;
  Duration lookahead_;
  std::function<void(std::uint32_t)> on_worker_;
  /// Per-shard outboxes: slot i is written only by shard i's thread
  /// during a window and drained only by the completion step between
  /// windows, so no locking is needed.
  std::vector<std::vector<Mail>> outbox_;
  /// Mail not yet deliverable (arrival >= the last horizon), touched
  /// only by the completion step.
  std::vector<Mail> pending_;
  SimTime horizon_ = 0;
  std::uint64_t windows_ = 0;
  bool hit_limit_ = false;
};

}  // namespace mobidist::sim
