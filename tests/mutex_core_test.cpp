// Unit tests for the reusable mutual-exclusion engines (Lamport,
// Naimi-Trehel path reversal) and the critical-section monitor, a
// differential check of the Lamport engine against its node-based
// predecessor, plus the trace-driven token-holder-conservation
// regression for the network-wired path-reversal mutex.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "mutex/lamport_engine.hpp"
#include "mutex/monitor.hpp"
#include "mutex/path_reversal.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"

namespace mobidist::mutex {
namespace {

/// Synchronous message fabric wiring n engines together. The global FIFO
/// queue preserves per-pair FIFO, which is all Lamport requires.
class EngineNet {
 public:
  explicit EngineNet(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      engines_.push_back(std::make_unique<LamportEngine>(i, n));
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      engines_[i]->set_send([this, i](std::uint32_t peer, const LamportMsg& msg) {
        queue_.push_back({i, peer, msg});
      });
      engines_[i]->set_on_acquired([this, i](std::uint64_t req_id, std::uint64_t ts) {
        grants.push_back({i, req_id, ts});
      });
    }
  }

  LamportEngine& at(std::uint32_t i) { return *engines_[i]; }

  /// Deliver queued messages until quiescent.
  void pump() {
    while (!queue_.empty()) {
      const auto [from, to, msg] = queue_.front();
      queue_.pop_front();
      engines_[to]->on_message(from, msg);
    }
  }

  /// Deliver exactly one message (for interleaving tests).
  bool step() {
    if (queue_.empty()) return false;
    const auto [from, to, msg] = queue_.front();
    queue_.pop_front();
    engines_[to]->on_message(from, msg);
    return true;
  }

  struct GrantEvent {
    std::uint32_t owner;
    std::uint64_t req_id;
    std::uint64_t ts;
  };
  std::vector<GrantEvent> grants;

 private:
  struct InFlight {
    std::uint32_t from;
    std::uint32_t to;
    LamportMsg msg;
  };
  std::vector<std::unique_ptr<LamportEngine>> engines_;
  std::deque<InFlight> queue_;
};

TEST(LamportEngine, SingleParticipantGrantsImmediately) {
  EngineNet net(1);
  net.at(0).submit(1);
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].owner, 0u);
  EXPECT_EQ(net.grants[0].req_id, 1u);
}

TEST(LamportEngine, TwoParticipantsGrantAfterReplies) {
  EngineNet net(2);
  net.at(0).submit(1);
  EXPECT_TRUE(net.grants.empty());  // no replies yet
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].owner, 0u);
}

TEST(LamportEngine, ReleaseHandsLockToNextRequest) {
  EngineNet net(3);
  net.at(0).submit(1);
  net.pump();
  net.at(1).submit(7);
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);  // participant 1 blocked behind 0
  net.at(0).release(1);
  net.pump();
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[1].owner, 1u);
  EXPECT_EQ(net.grants[1].req_id, 7u);
}

TEST(LamportEngine, ConcurrentRequestsServedInTimestampOrder) {
  EngineNet net(4);
  // All submit before any messages move: identical clocks, so the tie
  // breaks by participant id — grants must come 0, 1, 2, 3.
  for (std::uint32_t i = 0; i < 4; ++i) net.at(i).submit(100 + i);
  net.pump();
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(net.grants.size(), i + 1);
    EXPECT_EQ(net.grants[i].owner, i);
    net.at(i).release(100 + i);
    net.pump();
  }
  // Order keys strictly increase.
  for (std::size_t i = 1; i < net.grants.size(); ++i) {
    const auto prev = std::pair{net.grants[i - 1].ts, net.grants[i - 1].owner};
    const auto cur = std::pair{net.grants[i].ts, net.grants[i].owner};
    EXPECT_LT(prev, cur);
  }
}

TEST(LamportEngine, LaterRequestHasLaterTimestamp) {
  EngineNet net(2);
  const auto ts0 = net.at(0).submit(1);
  net.pump();
  net.at(0).release(1);
  net.pump();
  const auto ts1 = net.at(1).submit(2);
  EXPECT_GT(ts1, ts0);  // clocks advanced through the message exchange
}

TEST(LamportEngine, NeverTwoConcurrentGrants) {
  // Random-ish interleaving via partial pumping; at most one unreleased
  // grant may exist at any prefix of the run.
  EngineNet net(5);
  for (std::uint32_t i = 0; i < 5; ++i) net.at(i).submit(i);
  std::size_t released = 0;
  while (true) {
    // Release as soon as a grant appears; count concurrency.
    ASSERT_LE(net.grants.size(), released + 1) << "two grants outstanding";
    if (net.grants.size() == released + 1) {
      const auto& grant = net.grants[released];
      net.at(grant.owner).release(grant.req_id);
      ++released;
      continue;
    }
    if (!net.step()) break;
  }
  EXPECT_EQ(released, 5u);
}

TEST(LamportEngine, SupportsMultipleOutstandingRequestsPerParticipant) {
  // The L2 case: one MSS requests on behalf of several MHs.
  EngineNet net(2);
  net.at(0).submit(1);
  net.at(0).submit(2);
  net.at(1).submit(3);
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].req_id, 1u);
  net.at(0).release(1);
  net.pump();
  // Entry order is (ts, participant): (1,0,req1) < (1,1,req3) < (2,0,req2).
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[1].owner, 1u);
  EXPECT_EQ(net.grants[1].req_id, 3u);
  net.at(1).release(3);
  net.pump();
  ASSERT_EQ(net.grants.size(), 3u);
  EXPECT_EQ(net.grants[2].owner, 0u);
  EXPECT_EQ(net.grants[2].req_id, 2u);
  net.at(0).release(2);
  net.pump();
}

TEST(LamportEngine, MessageCountsMatchPaperFormula) {
  // One full execution among n participants: (n-1) requests + (n-1)
  // replies + (n-1) releases.
  constexpr std::uint32_t kN = 6;
  EngineNet net(kN);
  net.at(2).submit(1);
  net.pump();
  net.at(2).release(1);
  net.pump();
  EXPECT_EQ(net.at(2).sent_requests(), kN - 1);
  EXPECT_EQ(net.at(2).sent_releases(), kN - 1);
  std::uint64_t replies = 0;
  for (std::uint32_t i = 0; i < kN; ++i) replies += net.at(i).sent_replies();
  EXPECT_EQ(replies, kN - 1);
}

TEST(LamportEngine, QueueDrainsAfterAllReleases) {
  EngineNet net(3);
  for (std::uint32_t i = 0; i < 3; ++i) net.at(i).submit(i);
  net.pump();
  for (std::uint32_t i = 0; i < 3; ++i) {
    // Grants arrive in id order here.
    net.at(i).release(i);
    net.pump();
  }
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(net.at(i).queue_size(), 0u);
}

TEST(LamportEngine, DuplicateLocalReqIdThrows) {
  EngineNet net(2);
  net.at(0).submit(1);
  EXPECT_THROW(net.at(0).submit(1), std::logic_error);
}

TEST(LamportEngine, ReleaseOfUnknownReqIdThrows) {
  EngineNet net(2);
  EXPECT_THROW(net.at(0).release(42), std::logic_error);
}

TEST(LamportEngine, SelfOutOfRangeThrows) {
  EXPECT_THROW(LamportEngine(3, 3), std::invalid_argument);
}

TEST(LamportEngine, ReleaseBeforeGrantAbortsPendingRequest) {
  // L2's disconnect path: the home MSS releases a request that was never
  // granted; the other participant must still make progress.
  EngineNet net(2);
  net.at(0).submit(1);
  net.at(1).submit(2);
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);  // 0 holds
  net.at(0).release(1);              // normal release
  net.pump();
  ASSERT_EQ(net.grants.size(), 2u);  // 1 holds
  // Now abort a fresh not-yet-granted request from 0.
  net.at(0).submit(5);
  net.pump();
  net.at(0).release(5);  // aborted before grant (1 still holds)
  net.pump();
  net.at(1).release(2);
  net.pump();
  EXPECT_EQ(net.grants.size(), 2u);  // the aborted request never granted
  EXPECT_EQ(net.at(0).queue_size(), 0u);
  EXPECT_EQ(net.at(1).queue_size(), 0u);
}

// --------------------------------------------------------------------------
// LamportEngine against the node-based reference
// --------------------------------------------------------------------------

/// The engine as it was before its request queue became one FIFO per
/// origin: a std::set ordered by (ts, origin, req_id) plus an
/// (origin, req_id) -> ts index. Kept as the reference that the flat
/// engine must match message for message.
class ReferenceLamportEngine {
 public:
  ReferenceLamportEngine(std::uint32_t self, std::uint32_t n)
      : self_(self), n_(n), latest_ts_(n, 0) {}

  void set_send(LamportEngine::SendFn send) { send_ = std::move(send); }
  void set_on_acquired(LamportEngine::AcquireFn fn) { on_acquired_ = std::move(fn); }

  std::uint64_t submit(std::uint64_t req_id) {
    const std::uint64_t ts = ++clock_;
    const Entry entry{ts, self_, req_id};
    if (!index_.emplace(std::pair{self_, req_id}, ts).second) {
      throw std::logic_error("reference: duplicate local req_id");
    }
    queue_.insert(entry);
    sent_requests_ += n_ - 1;
    broadcast(LamportMsg{LamportMsg::Kind::kRequest, ts, self_, req_id});
    check_grant();
    return ts;
  }

  void release(std::uint64_t req_id) {
    const auto it = index_.find({self_, req_id});
    if (it == index_.end()) throw std::logic_error("reference: release of unknown req_id");
    const Entry entry{it->second, self_, req_id};
    queue_.erase(entry);
    index_.erase(it);
    if (granted_ && *granted_ == entry) granted_.reset();
    const std::uint64_t ts = ++clock_;
    sent_releases_ += n_ - 1;
    broadcast(LamportMsg{LamportMsg::Kind::kRelease, ts, self_, req_id});
    check_grant();
  }

  void on_message(std::uint32_t from, const LamportMsg& msg) {
    clock_ = std::max(clock_, msg.clock) + 1;
    latest_ts_[from] = std::max(latest_ts_[from], msg.clock);
    switch (msg.kind) {
      case LamportMsg::Kind::kRequest: {
        queue_.insert(Entry{msg.clock, msg.origin, msg.req_id});
        index_.emplace(std::pair{msg.origin, msg.req_id}, msg.clock);
        const std::uint64_t reply_ts = ++clock_;
        ++sent_replies_;
        send_(from, LamportMsg{LamportMsg::Kind::kReply, reply_ts, self_, msg.req_id});
        break;
      }
      case LamportMsg::Kind::kReply:
        break;
      case LamportMsg::Kind::kRelease: {
        const auto it = index_.find({msg.origin, msg.req_id});
        if (it != index_.end()) {
          queue_.erase(Entry{it->second, msg.origin, msg.req_id});
          index_.erase(it);
        }
        break;
      }
    }
    check_grant();
  }

  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }
  [[nodiscard]] std::size_t queue_size() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t sent_requests() const noexcept { return sent_requests_; }
  [[nodiscard]] std::uint64_t sent_replies() const noexcept { return sent_replies_; }
  [[nodiscard]] std::uint64_t sent_releases() const noexcept { return sent_releases_; }

 private:
  struct Entry {
    std::uint64_t ts;
    std::uint32_t origin;
    std::uint64_t req_id;
    friend auto operator<=>(const Entry&, const Entry&) = default;
  };

  void broadcast(const LamportMsg& msg) {
    for (std::uint32_t peer = 0; peer < n_; ++peer) {
      if (peer != self_) send_(peer, msg);
    }
  }

  void check_grant() {
    if (queue_.empty()) return;
    const Entry head = *queue_.begin();
    if (head.origin != self_) return;
    if (granted_ && *granted_ == head) return;
    for (std::uint32_t peer = 0; peer < n_; ++peer) {
      if (peer != self_ && latest_ts_[peer] <= head.ts) return;
    }
    granted_ = head;
    on_acquired_(head.req_id, head.ts);
  }

  std::uint32_t self_;
  std::uint32_t n_;
  std::uint64_t clock_ = 0;
  std::set<Entry> queue_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> index_;
  std::vector<std::uint64_t> latest_ts_;
  std::optional<Entry> granted_;
  LamportEngine::SendFn send_;
  LamportEngine::AcquireFn on_acquired_;
  std::uint64_t sent_requests_ = 0;
  std::uint64_t sent_replies_ = 0;
  std::uint64_t sent_releases_ = 0;
};

struct LoggedGrant {
  std::uint32_t owner;
  std::uint64_t req_id;
  std::uint64_t ts;
  friend bool operator==(const LoggedGrant&, const LoggedGrant&) = default;
};

/// n engines of one kind, wired by one FIFO per ordered pair.
template <typename Engine>
class PairFifoNet {
 public:
  explicit PairFifoNet(std::uint32_t n) : n_(n), links_(std::size_t{n} * n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      engines_.push_back(std::make_unique<Engine>(i, n));
      engines_[i]->set_send([this, i](std::uint32_t peer, const LamportMsg& msg) {
        links_[std::size_t{i} * n_ + peer].push_back(msg);
      });
      engines_[i]->set_on_acquired([this, i](std::uint64_t req_id, std::uint64_t ts) {
        grants.push_back({i, req_id, ts});
      });
    }
  }

  Engine& at(std::uint32_t i) { return *engines_[i]; }

  [[nodiscard]] bool in_flight(std::uint32_t from, std::uint32_t to) const {
    return !links_[std::size_t{from} * n_ + to].empty();
  }

  /// Deliver the oldest message on the from -> to link; returns it.
  LamportMsg deliver(std::uint32_t from, std::uint32_t to) {
    auto& link = links_[std::size_t{from} * n_ + to];
    const LamportMsg msg = link.front();
    link.pop_front();
    engines_[to]->on_message(from, msg);
    return msg;
  }

  std::vector<LoggedGrant> grants;

 private:
  std::uint32_t n_;
  std::vector<std::deque<LamportMsg>> links_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

struct DifferentialTotals {
  std::uint64_t grants = 0;
  std::uint64_t aborts = 0;
};

/// One seeded random schedule driven through both engines in lockstep:
/// each step delivers from a random busy link, submits a request (at
/// most kMaxOutstanding per participant), releases the lock holder, or
/// aborts a pending request. Grant logs, clocks and queue sizes must
/// agree after every step, and the message counters at the end.
void run_differential(std::uint32_t n, std::uint64_t seed, DifferentialTotals& totals) {
  constexpr int kSteps = 3000;
  constexpr std::size_t kMaxOutstanding = 6;
  PairFifoNet<ReferenceLamportEngine> ref(n);
  PairFifoNet<LamportEngine> flat(n);
  sim::Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> outstanding(n);  // submitted, not released
  std::vector<std::pair<std::uint32_t, std::uint64_t>> choices;
  std::uint64_t next_req_id = 1;
  std::size_t released = 0;  // grants[0, released) have been released

  auto forget = [&](std::uint32_t owner, std::uint64_t req_id) {
    auto& reqs = outstanding[owner];
    reqs.erase(std::find(reqs.begin(), reqs.end(), req_id));
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t roll = rng.below(100);
    choices.clear();
    if (roll < 60) {
      for (std::uint32_t from = 0; from < n; ++from) {
        for (std::uint32_t to = 0; to < n; ++to) {
          if (ref.in_flight(from, to)) choices.emplace_back(from, to);
        }
      }
      if (!choices.empty()) {
        const auto [from, to] = choices[rng.below(choices.size())];
        ASSERT_TRUE(flat.in_flight(from, to)) << "step " << step;
        const LamportMsg want = ref.deliver(from, to);
        const LamportMsg got = flat.deliver(from, to);
        ASSERT_EQ(std::tie(got.kind, got.clock, got.origin, got.req_id),
                  std::tie(want.kind, want.clock, want.origin, want.req_id))
            << "step " << step << ": " << from << " -> " << to;
      }
    } else if (roll < 80) {
      const auto who = static_cast<std::uint32_t>(rng.below(n));
      if (outstanding[who].size() < kMaxOutstanding) {
        const std::uint64_t req_id = next_req_id++;
        outstanding[who].push_back(req_id);
        const std::uint64_t want = ref.at(who).submit(req_id);
        ASSERT_EQ(flat.at(who).submit(req_id), want) << "step " << step;
      }
    } else if (roll < 97) {
      if (ref.grants.size() > released) {
        const LoggedGrant holder = ref.grants[released++];
        forget(holder.owner, holder.req_id);
        ref.at(holder.owner).release(holder.req_id);
        flat.at(holder.owner).release(holder.req_id);
      }
    } else {
      const bool held = ref.grants.size() > released;
      for (std::uint32_t who = 0; who < n; ++who) {
        for (const std::uint64_t req_id : outstanding[who]) {
          if (held && ref.grants.back().req_id == req_id) continue;
          choices.emplace_back(who, req_id);
        }
      }
      if (!choices.empty()) {
        const auto [who, req_id] = choices[rng.below(choices.size())];
        forget(who, req_id);
        ref.at(who).release(req_id);
        flat.at(who).release(req_id);
        ++totals.aborts;
      }
    }

    ASSERT_LE(ref.grants.size(), released + 1) << "step " << step << ": two holders";
    ASSERT_EQ(flat.grants, ref.grants) << "step " << step;
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(flat.at(i).clock(), ref.at(i).clock()) << "step " << step << " at " << i;
      ASSERT_EQ(flat.at(i).queue_size(), ref.at(i).queue_size())
          << "step " << step << " at " << i;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(flat.at(i).sent_requests(), ref.at(i).sent_requests()) << i;
    EXPECT_EQ(flat.at(i).sent_replies(), ref.at(i).sent_replies()) << i;
    EXPECT_EQ(flat.at(i).sent_releases(), ref.at(i).sent_releases()) << i;
  }
  totals.grants += ref.grants.size();
}

TEST(LamportEngine, MatchesTheNodeBasedReferenceUnderRandomSchedules) {
  DifferentialTotals totals;
  for (const std::uint32_t n : {1u, 2u, 3u, 5u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed);
      run_differential(n, seed, totals);
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The schedules must reach both the grant path and the abort path.
  EXPECT_GT(totals.grants, 100'000u);
  EXPECT_GT(totals.aborts, 10'000u);
}

// --------------------------------------------------------------------------
// PathRevEngine
// --------------------------------------------------------------------------

/// Synchronous fabric wiring m path-reversal engines. Claims and token
/// transfers queue in one FIFO; grants are recorded and the test
/// completes them explicitly with grant_done().
class PathRevNet {
 public:
  explicit PathRevNet(std::uint32_t m) {
    for (std::uint32_t i = 0; i < m; ++i) {
      engines_.push_back(std::make_unique<PathRevEngine>(
          i, /*has_token=*/i == 0,
          i == 0 ? PathRevEngine::kNoNode : 0,
          PathRevEngine::Hooks{
              [this, i](std::uint32_t to, std::uint32_t origin) {
                ++claim_hops;
                queue_.push_back({Op::kClaim, to, origin});
              },
              [this, i](std::uint32_t to) {
                ++token_passes;
                queue_.push_back({Op::kToken, to, i});
              },
              [this, i](net::MhId mh) { grants.push_back({i, mh}); },
              [this, i](std::uint32_t to) { reversals.push_back({i, to}); },
          }));
    }
  }

  PathRevEngine& at(std::uint32_t i) { return *engines_[i]; }

  /// Deliver queued messages until quiescent, asserting token
  /// conservation at every step: the token is at exactly one node or in
  /// exactly one in-flight transfer, never both, never neither.
  void pump() {
    while (!queue_.empty()) {
      check_conservation();
      const auto [op, to, arg] = queue_.front();
      queue_.pop_front();
      if (op == Op::kClaim) engines_[to]->on_claim(arg);
      else engines_[to]->on_token();
    }
    check_conservation();
  }

  void check_conservation() {
    std::size_t holders = 0;
    for (const auto& engine : engines_) holders += engine->token_here() ? 1 : 0;
    std::size_t in_flight = 0;
    for (const auto& msg : queue_) in_flight += msg.op == Op::kToken ? 1 : 0;
    ASSERT_EQ(holders + in_flight, 1u)
        << holders << " holders, " << in_flight << " transfers in flight";
  }

  struct Grant {
    std::uint32_t node;
    net::MhId mh;
  };
  std::vector<Grant> grants;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reversals;
  std::uint64_t claim_hops = 0;
  std::uint64_t token_passes = 0;

 private:
  enum class Op { kClaim, kToken };
  struct InFlight {
    Op op;
    std::uint32_t to;
    std::uint32_t arg;  // claim origin; token sender (unused)
  };
  std::vector<std::unique_ptr<PathRevEngine>> engines_;
  std::deque<InFlight> queue_;
};

net::MhId pr_mh(std::uint32_t i) { return static_cast<net::MhId>(i); }
net::MssId pr_mss(std::uint32_t i) { return static_cast<net::MssId>(i); }

TEST(PathRevEngine, RootGrantsLocalRequestWithoutMessages) {
  PathRevNet net(4);
  net.at(0).local_request(pr_mh(0));
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].node, 0u);
  EXPECT_EQ(net.claim_hops, 0u);
  EXPECT_EQ(net.token_passes, 0u);
}

TEST(PathRevEngine, ClaimReachesRootInOneHopAndTokenTransfers) {
  PathRevNet net(4);
  net.at(2).local_request(pr_mh(2));
  EXPECT_EQ(net.at(2).father(), PathRevEngine::kNoNode);  // claim in flight
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);
  EXPECT_EQ(net.grants[0].node, 2u);
  EXPECT_EQ(net.claim_hops, 1u);   // 2 -> 0
  EXPECT_EQ(net.token_passes, 1u);  // 0 -> 2
  EXPECT_TRUE(net.at(2).token_here());
  // Path reversal: the old root's father now points at the claimant.
  EXPECT_EQ(net.at(0).father(), 2u);
}

TEST(PathRevEngine, BusyTailRecordsNextAndHandsOffOnGrantDone) {
  PathRevNet net(3);
  net.at(0).local_request(pr_mh(0));  // token busy at node 0
  net.at(1).local_request(pr_mh(1));
  net.pump();
  ASSERT_EQ(net.grants.size(), 1u);         // node 1 blocked behind node 0
  EXPECT_EQ(net.at(0).next_node(), 1u);     // recorded successor
  net.at(0).grant_done();
  net.pump();
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[1].node, 1u);
  net.at(1).grant_done();
  net.pump();
}

TEST(PathRevEngine, SequentialClaimsChaseTheMovingTail) {
  // After node 1's claim, node 1 is the probable tail: node 2's claim
  // must route 2 -> 0 -> 1 (two hops, crossing the stale father), and
  // every crossed node reverses onto the origin.
  PathRevNet net(3);
  net.at(1).local_request(pr_mh(1));
  net.pump();
  net.at(1).grant_done();
  net.pump();
  EXPECT_EQ(net.at(0).father(), 1u);  // reversed by node 1's claim
  const auto hops_before = net.claim_hops;
  net.at(2).local_request(pr_mh(2));
  net.pump();
  EXPECT_EQ(net.claim_hops - hops_before, 2u);  // 2 -> 0, 0 -> 1
  EXPECT_EQ(net.at(0).father(), 2u);            // reversed again
  ASSERT_EQ(net.grants.size(), 2u);
  EXPECT_EQ(net.grants[1].node, 2u);
  net.at(2).grant_done();
  net.pump();
}

TEST(PathRevEngine, RepeatRequesterPaysNoWiredMessages) {
  // The tree collapses toward the last requester: once node 3 holds the
  // token, its further entries are free of claim/transfer traffic.
  PathRevNet net(8);
  net.at(3).local_request(pr_mh(3));
  net.pump();
  net.at(3).grant_done();
  net.pump();
  const auto hops = net.claim_hops;
  const auto passes = net.token_passes;
  for (int round = 0; round < 5; ++round) {
    net.at(3).local_request(pr_mh(3));
    net.pump();
    net.at(3).grant_done();
    net.pump();
  }
  EXPECT_EQ(net.claim_hops, hops);
  EXPECT_EQ(net.token_passes, passes);
  EXPECT_EQ(net.grants.size(), 6u);
}

TEST(PathRevEngine, AllNodesRequestingAllGetServed) {
  constexpr std::uint32_t kM = 6;
  PathRevNet net(kM);
  for (std::uint32_t i = 0; i < kM; ++i) net.at(i).local_request(pr_mh(i));
  net.pump();
  std::size_t done = 0;
  while (net.grants.size() > done) {
    net.at(net.grants[done].node).grant_done();
    ++done;
    net.pump();
  }
  EXPECT_EQ(net.grants.size(), kM);
  // Exactly one distinct grant per node.
  std::vector<bool> seen(kM, false);
  for (const auto& grant : net.grants) {
    EXPECT_FALSE(seen[grant.node]);
    seen[grant.node] = true;
  }
}

TEST(PathRevEngine, WithdrawDropsQueuedRequests) {
  PathRevNet net(2);
  net.at(0).local_request(pr_mh(0));  // granted immediately (token here)
  net.at(0).local_request(pr_mh(1));
  net.at(0).local_request(pr_mh(1));
  EXPECT_EQ(net.at(0).queued(), 2u);
  EXPECT_EQ(net.at(0).withdraw(pr_mh(1)), 2u);
  EXPECT_EQ(net.at(0).queued(), 0u);
  EXPECT_EQ(net.at(0).withdraw(pr_mh(1)), 0u);
  net.at(0).grant_done();
  net.pump();
  EXPECT_EQ(net.grants.size(), 1u);  // the withdrawn requests never grant
}

// --------------------------------------------------------------------------
// PathRevMutex: trace-driven token-holder conservation
// --------------------------------------------------------------------------

/// Regression gate for the network wiring: replay the "NT" token events
/// from the trace stream and require that arrivals and departures
/// strictly alternate (one holder at a time) and that the run ends with
/// every departure matched or exactly one transfer in flight.
void ExpectTokenHolderConservation(const net::Network& net) {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  bool held = false;  // true between an arrive and the next depart
  for (const auto& event : net.events().snapshot()) {
    if (event.detail != mutex::PathRevMutex::label()) continue;
    if (event.kind == obs::EventKind::kTokenArrive) {
      EXPECT_FALSE(held) << "two token arrivals without a departure at event "
                         << event.id;
      held = true;
      ++arrivals;
    } else if (event.kind == obs::EventKind::kTokenDepart) {
      EXPECT_TRUE(held) << "token departed while not held at event " << event.id;
      held = false;
      ++departures;
    }
  }
  EXPECT_GE(arrivals, 1u) << "no NT token events in the trace";
  // Exactly one holder at rest, or one in-flight transfer at cutoff.
  EXPECT_TRUE(arrivals - departures == 1 || arrivals == departures)
      << arrivals << " arrivals vs " << departures << " departures";
}

TEST(PathRevMutex, ServesContendersAndConservesTheToken) {
  net::Network net(test::small_config(4, 8));
  CsMonitor monitor;
  PathRevMutex mutex(net, monitor);
  net.start();
  for (std::uint32_t i = 0; i < 8; ++i) {
    net.sched().schedule_at(1 + 5 * i, [&mutex, i] { mutex.request(pr_mh(i)); });
  }
  net.run();
  test::ExpectCleanEventStream(net);
  ExpectTokenHolderConservation(net);
  EXPECT_EQ(mutex.completed(), 8u);
  EXPECT_EQ(monitor.grants(), 8u);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(mutex.queued_total(), 0u);
  EXPECT_EQ(mutex.bounced_grants(), 0u);
  EXPECT_EQ(mutex.skipped_disconnected(), 0u);
}

TEST(PathRevMutex, MovingRequesterRehomesItsRequest) {
  // mh0 requests at cell 0 while the token is busy elsewhere, then
  // moves to cell 2 mid-wait: the old cell withdraws the request, the
  // new cell re-files it, and the entry still happens exactly once.
  net::Network net(test::small_config(4, 8));
  CsMonitor monitor;
  PathRevMutex mutex(net, monitor);
  net.start();
  net.sched().schedule_at(1, [&] { mutex.request(pr_mh(4)); });  // cell 0 busy
  net.sched().schedule_at(2, [&] { mutex.request(pr_mh(0)); });  // queued behind
  net.sched().schedule_at(3, [&] { net.mh(pr_mh(0)).move_to(pr_mss(2), 4); });
  net.run();
  test::ExpectCleanEventStream(net);
  ExpectTokenHolderConservation(net);
  EXPECT_EQ(mutex.completed(), 2u);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_GE(mutex.rehomed(), 1u);
  EXPECT_EQ(mutex.queued_total(), 0u);
}

TEST(PathRevMutex, ParkedTokenReturnPrecedesRefiledRequests) {
  // mh0 holds the token in its CS at cell 0, asks again, and moves to
  // cell 2 for longer than the CS hold: the token return parks until
  // the join, where it must go uplink before the re-filed request.
  net::Network net(test::small_config(4, 8));
  CsMonitor monitor;
  PathRevMutex mutex(net, monitor);
  net.start();
  mutex.request(pr_mh(0));
  for (sim::SimTime t = 1; !monitor.busy(); ++t) {
    ASSERT_LT(t, 100u) << "mh0 never entered the CS";
    net.sched().run_until(t);
  }
  mutex.request(pr_mh(0));
  net.mh(pr_mh(0)).move_to(pr_mss(2), 20);
  net.run();
  test::ExpectCleanEventStream(net);
  ExpectTokenHolderConservation(net);
  EXPECT_EQ(mutex.completed(), 2u);
  EXPECT_EQ(monitor.violations(), 0u);
  const auto actions = test::actions_after_last_join(net, pr_mh(0));
  ASSERT_GE(actions.size(), 3u);
  // The return's token_depart and uplink, then the request's uplink.
  EXPECT_EQ(std::vector<std::string>(actions.begin(), actions.begin() + 3),
            (std::vector<std::string>{"token_depart", "send", "send"}));
}

// --------------------------------------------------------------------------
// CsMonitor
// --------------------------------------------------------------------------

TEST(CsMonitor, RecordsGrantLifecycle) {
  CsMonitor monitor;
  const auto grant = monitor.enter(static_cast<net::MhId>(3), 7, 100);
  EXPECT_TRUE(monitor.busy());
  EXPECT_EQ(monitor.holder(), static_cast<net::MhId>(3));
  monitor.exit(grant, 110);
  EXPECT_FALSE(monitor.busy());
  ASSERT_EQ(monitor.grants(), 1u);
  EXPECT_EQ(monitor.history()[0].entered, 100u);
  EXPECT_EQ(monitor.history()[0].exited, 110u);
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST(CsMonitor, DetectsOverlap) {
  CsMonitor monitor;
  monitor.enter(static_cast<net::MhId>(1), 1, 10);
  monitor.enter(static_cast<net::MhId>(2), 2, 11);  // overlap!
  EXPECT_EQ(monitor.violations(), 1u);
}

TEST(CsMonitor, DetectsDoubleExit) {
  CsMonitor monitor;
  const auto grant = monitor.enter(static_cast<net::MhId>(1), 1, 10);
  monitor.exit(grant, 20);
  monitor.exit(grant, 21);
  EXPECT_EQ(monitor.violations(), 1u);
}

TEST(CsMonitor, DetectsBogusExit) {
  CsMonitor monitor;
  monitor.exit(99, 5);
  EXPECT_EQ(monitor.violations(), 1u);
}

TEST(CsMonitor, CountsOrderInversions) {
  CsMonitor monitor;
  auto enter_exit = [&](std::uint64_t key) {
    const auto grant = monitor.enter(static_cast<net::MhId>(0), key, 0);
    monitor.exit(grant, 1);
  };
  enter_exit(1);
  enter_exit(3);
  enter_exit(2);  // inversion
  enter_exit(5);
  EXPECT_EQ(monitor.order_inversions(), 1u);
}

TEST(CsMonitor, InOrderGrantsHaveNoInversions) {
  CsMonitor monitor;
  for (std::uint64_t key = 1; key <= 10; ++key) {
    const auto grant = monitor.enter(static_cast<net::MhId>(0), key, key);
    monitor.exit(grant, key);
  }
  EXPECT_EQ(monitor.order_inversions(), 0u);
}


TEST(CsMonitor, MatchesRequestsToGrantsFifo) {
  CsMonitor monitor;
  const auto mh = static_cast<net::MhId>(4);
  monitor.note_request(mh, 10);
  monitor.note_request(mh, 20);
  const auto g1 = monitor.enter(mh, 1, 50);
  monitor.exit(g1, 55);
  const auto g2 = monitor.enter(mh, 2, 100);
  monitor.exit(g2, 105);
  ASSERT_EQ(monitor.grants(), 2u);
  EXPECT_TRUE(monitor.history()[0].has_request_time);
  EXPECT_EQ(monitor.history()[0].requested, 10u);
  EXPECT_EQ(monitor.history()[1].requested, 20u);
  // Latencies: 40 and 80 -> mean 60.
  EXPECT_DOUBLE_EQ(monitor.mean_grant_latency(), 60.0);
}

TEST(CsMonitor, GrantsWithoutRequestsHaveNoLatency) {
  CsMonitor monitor;
  const auto grant = monitor.enter(static_cast<net::MhId>(0), 1, 5);
  monitor.exit(grant, 6);
  EXPECT_FALSE(monitor.history()[0].has_request_time);
  EXPECT_DOUBLE_EQ(monitor.mean_grant_latency(), 0.0);
}

}  // namespace
}  // namespace mobidist::mutex
