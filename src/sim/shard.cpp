#include "sim/shard.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mobidist::sim {

ShardGroup::ShardGroup(std::vector<Scheduler*> shards, Duration lookahead,
                       std::function<void(std::uint32_t)> on_worker)
    : shards_(std::move(shards)), lookahead_(lookahead), on_worker_(std::move(on_worker)) {
  if (shards_.empty()) throw std::invalid_argument("ShardGroup: need at least one shard");
  for (auto* shard : shards_) {
    if (shard == nullptr) throw std::invalid_argument("ShardGroup: null shard scheduler");
  }
  // lookahead == 0 would admit mail arriving *at* the horizon, i.e. at a
  // time the current window may already have executed past.
  if (lookahead_ < 1) throw std::invalid_argument("ShardGroup: lookahead must be >= 1");
  outbox_.resize(shards_.size());
}

void ShardGroup::post(std::uint32_t src_shard, Mail mail) {
  assert(src_shard < outbox_.size());
  assert(mail.dst_shard < shards_.size());
  // The conservative contract: mail sent during a window must land
  // strictly beyond it, so barrier injection can never schedule into a
  // shard's past. horizon_ is 0 before the first window (setup-phase
  // posts are unconstrained).
  assert(mail.at >= horizon_ && "ShardGroup: mail arrival inside the current window");
  outbox_[src_shard].push_back(std::move(mail));
}

std::uint64_t ShardGroup::total_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto* shard : shards_) total += shard->fired();
  return total;
}

bool ShardGroup::open_window(std::uint64_t event_limit) {
  for (auto& box : outbox_) {
    if (box.empty()) continue;
    pending_.insert(pending_.end(), std::make_move_iterator(box.begin()),
                    std::make_move_iterator(box.end()));
    box.clear();
  }
  if (event_limit != 0 && total_fired() >= event_limit) {
    hit_limit_ = true;
    return false;
  }
  // T = global minimum next-event time, counting undelivered mail: a
  // shard whose only future work is inbound mail must not be left behind,
  // and the window boundary must be a pure function of global state so
  // every shard count produces the same boundary sequence.
  bool any = false;
  SimTime t = 0;
  for (auto* shard : shards_) {
    if (const auto next = shard->next_time()) {
      t = any ? std::min(t, *next) : *next;
      any = true;
    }
  }
  for (const auto& mail : pending_) {
    t = any ? std::min(t, mail.at) : mail.at;
    any = true;
  }
  if (!any) return false;
  horizon_ = t + lookahead_;
  // Canonical injection order: (arrival, src_lane, src_seq) is a total
  // order independent of shard grouping, so same-instant mail gets the
  // same FIFO tie-break seqs in the destination scheduler for every
  // shard count. Keys are unique (src_seq is monotone per lane), so
  // std::sort is deterministic here.
  std::sort(pending_.begin(), pending_.end(), [](const Mail& a, const Mail& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.src_lane != b.src_lane) return a.src_lane < b.src_lane;
    return a.src_seq < b.src_seq;
  });
  auto keep = pending_.begin();
  while (keep != pending_.end() && keep->at < horizon_) {
    shards_[keep->dst_shard]->schedule_at(keep->at, std::move(keep->fn));
    ++keep;
  }
  pending_.erase(pending_.begin(), keep);
  ++windows_;
  return true;
}

std::uint64_t ShardGroup::run(std::uint64_t event_limit) {
  hit_limit_ = false;
  windows_ = 0;
  const std::uint64_t fired_before = total_fired();
  const auto n = static_cast<std::uint32_t>(shards_.size());

  // Slot i holds what shard i's thread threw; slot 0 also takes a
  // failure of the completion step.
  std::vector<std::exception_ptr> failures(n);
  bool open = false;  // written only by the completion step
  // Runs on one thread while every shard waits, so the outboxes are
  // quiescent. It must not throw: a failure closes the run instead.
  auto open_next = [&]() noexcept {
    open = false;
    for (const auto& failure : failures) {
      if (failure) return;
    }
    try {
      open = open_window(event_limit);
    } catch (...) {
      failures[0] = std::current_exception();
    }
  };
  std::barrier sync(n, open_next);
  auto drive = [&](std::uint32_t i) {
    if (on_worker_) on_worker_(i);
    for (;;) {
      sync.arrive_and_wait();
      if (!open) return;
      try {
        shards_[i]->run_until(horizon_ - 1);
      } catch (...) {
        failures[i] = std::current_exception();
      }
    }
  };

  // The calling thread drives shard 0, so a single shard spawns nothing.
  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  for (std::uint32_t i = 1; i < n; ++i) workers.emplace_back(drive, i);
  drive(0);
  for (auto& worker : workers) worker.join();
  for (const auto& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  return total_fired() - fired_before;
}

}  // namespace mobidist::sim
