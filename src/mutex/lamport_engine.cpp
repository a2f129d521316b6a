#include "mutex/lamport_engine.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace mobidist::mutex {

LamportEngine::LamportEngine(std::uint32_t self, std::uint32_t n)
    : self_(self), n_(n), head_origin_(n) {
  if (self >= n) throw std::invalid_argument("LamportEngine: self out of range");
  queues_.resize(n);
  front_ts_.assign(n, kNoRequest);
  latest_ts_.assign(n, 0);
}

void LamportEngine::broadcast(const LamportMsg& msg) {
  for (std::uint32_t peer = 0; peer < n_; ++peer) {
    if (peer == self_) continue;
    send_(peer, msg);
  }
}

void LamportEngine::insert(std::uint32_t origin, std::uint64_t ts, std::uint64_t req_id) {
  auto& queue = queues_[origin];
  const auto front = queue.items.begin() + static_cast<std::ptrdiff_t>(queue.head);
  // FIFO channels deliver an origin's requests in timestamp order, so
  // this scan stops at once and the insert is a push_back.
  auto pos = queue.items.end();
  while (pos != front && std::prev(pos)->ts > ts) --pos;
  const bool new_front = pos == front;
  queue.items.insert(pos, Pending{ts, req_id});
  ++queue_size_;
  if (!new_front) return;
  front_ts_[origin] = ts;
  if (head_origin_ == n_ ||
      std::pair{ts, origin} < std::pair{front_ts_[head_origin_], head_origin_}) {
    head_origin_ = origin;
  }
}

std::optional<std::uint64_t> LamportEngine::erase(std::uint32_t origin, std::uint64_t req_id) {
  auto& queue = queues_[origin];
  const auto front = queue.items.begin() + static_cast<std::ptrdiff_t>(queue.head);
  const auto it = std::find_if(front, queue.items.end(),
                               [req_id](const Pending& p) { return p.req_id == req_id; });
  if (it == queue.items.end()) return std::nullopt;
  const std::uint64_t ts = it->ts;
  --queue_size_;
  if (it != front) {
    // A pending request aborted behind the front: the front stays.
    queue.items.erase(it);
    return ts;
  }
  ++queue.head;
  if (queue.head == queue.items.size()) {
    queue.items.clear();
    queue.head = 0;
  } else if (2 * queue.head > queue.items.size()) {
    queue.items.erase(queue.items.begin(),
                      queue.items.begin() + static_cast<std::ptrdiff_t>(queue.head));
    queue.head = 0;
  }
  front_ts_[origin] = queue.items.empty() ? kNoRequest : queue.items[queue.head].ts;
  // Another origin's front only moved later, so the head stays put.
  if (origin == head_origin_) rescan_head();
  return ts;
}

void LamportEngine::rescan_head() {
  // min_element keeps the first minimum, so equal timestamps break
  // toward the lower origin, as (ts, origin) order requires.
  const auto it = std::min_element(front_ts_.begin(), front_ts_.end());
  head_origin_ =
      *it == kNoRequest ? n_ : static_cast<std::uint32_t>(it - front_ts_.begin());
}

std::uint64_t LamportEngine::submit(std::uint64_t req_id) {
  const auto& own = queues_[self_];
  if (std::any_of(own.items.begin() + static_cast<std::ptrdiff_t>(own.head), own.items.end(),
                  [req_id](const Pending& p) { return p.req_id == req_id; })) {
    throw std::logic_error("LamportEngine: duplicate local req_id");
  }
  const std::uint64_t ts = ++clock_;
  insert(self_, ts, req_id);
  sent_requests_ += n_ - 1;
  broadcast(LamportMsg{LamportMsg::Kind::kRequest, ts, self_, req_id});
  check_grant();  // n == 1 degenerates to immediate grant
  return ts;
}

void LamportEngine::release(std::uint64_t req_id) {
  const auto released = erase(self_, req_id);
  if (!released) throw std::logic_error("LamportEngine: release of unknown req_id");
  if (granted_ == *released) granted_.reset();
  const std::uint64_t ts = ++clock_;
  sent_releases_ += n_ - 1;
  broadcast(LamportMsg{LamportMsg::Kind::kRelease, ts, self_, req_id});
  check_grant();
}

void LamportEngine::on_message(std::uint32_t from, const LamportMsg& msg) {
  if (from >= n_ || from == self_ || msg.origin >= n_) {
    throw std::logic_error("LamportEngine: message from invalid peer");
  }
  clock_ = std::max(clock_, msg.clock) + 1;
  latest_ts_[from] = std::max(latest_ts_[from], msg.clock);
  switch (msg.kind) {
    case LamportMsg::Kind::kRequest: {
      insert(msg.origin, msg.clock, msg.req_id);
      const std::uint64_t reply_ts = ++clock_;
      ++sent_replies_;
      send_(from, LamportMsg{LamportMsg::Kind::kReply, reply_ts, self_, msg.req_id});
      break;
    }
    case LamportMsg::Kind::kReply:
      break;
    case LamportMsg::Kind::kRelease:
      erase(msg.origin, msg.req_id);
      break;
  }
  check_grant();
}

void LamportEngine::check_grant() {
  if (head_origin_ != self_) return;
  const auto& own = queues_[self_];
  const Pending head = own.items[own.head];  // a copy: on_acquired_ may re-enter
  if (granted_ == head.ts) return;           // already announced
  // Entry rule: our request heads the queue AND every peer has been
  // heard from with a timestamp later than the request's.
  for (std::uint32_t peer = 0; peer < n_; ++peer) {
    if (peer == self_) continue;
    if (latest_ts_[peer] <= head.ts) return;
  }
  granted_ = head.ts;
  if (on_acquired_) on_acquired_(head.req_id, head.ts);
}

}  // namespace mobidist::mutex
