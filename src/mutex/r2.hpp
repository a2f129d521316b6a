#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mutex/monitor.hpp"
#include "mutex/options.hpp"
#include "net/network.hpp"

namespace mobidist::mutex {

/// Which flavour of the MSS-ring algorithm runs (§3.1.2).
enum class RingVariant : std::uint8_t {
  kBasic,      ///< R2: a MH may be served many times per traversal (≤ N×M total)
  kCounter,    ///< R2': token_val / access_count caps each MH at 1 per traversal
  kTokenList,  ///< R2'' "Variations": <MSS,MH> pairs, robust to lying MHs
};

/// The circulating token of R2/R2'/R2''.
struct R2Token {
  /// Incremented every completed traversal (arrival back at MSS 0).
  std::uint64_t token_val = 1;
  /// R2'' only: <MSS index, MH index> pairs recording who was served
  /// where during the current traversal window.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> served;
};

// Wire messages.

/// MH -> local MSS: queue me for the token. `access_count` is the R2'
/// self-reported counter (a malicious MH under-reports it).
struct R2Request {
  net::MhId mh = net::kInvalidMh;
  std::uint64_t access_count = 0;
};

/// MSS -> MH: the token itself (grant).
struct R2TokenToMh {
  std::uint64_t token_val = 0;
  net::MssId from = net::kInvalidMss;  ///< who to return the token to
};

/// MH -> current MSS (relayed to `home` if the MH moved): token return.
struct R2TokenReturn {
  net::MssId home = net::kInvalidMss;
};

/// MSS -> successor MSS: pass the token along the ring.
struct R2TokenPass {
  R2Token token;
};

/// Algorithms R2 / R2' / R2'' (§3.1.2): Le Lann's ring restructured onto
/// the M MSSs. MSSs keep per-cell request queues; the token visits each
/// MSS, serves that cell's eligible requests (searching for MHs that
/// moved after requesting), then moves on.
///
/// Cost: M*c_fixed per traversal for the ring itself plus
/// K*(3*c_wireless + c_fixed + c_search) for the K requests served — the
/// paper's headline contrast with R1's N*(2*c_wireless + c_search)
/// traversal cost.
class R2Mutex {
 public:
  R2Mutex(net::Network& net, CsMonitor& monitor, RingVariant variant,
          MutexOptions opts = {});

  /// Inject the token at MSS 0 and circulate for `max_traversals` loops.
  void start_token(std::uint64_t max_traversals);

  /// Absorb the token early at any pass point where every request queue
  /// in the system is empty (bench convenience; defaults off).
  void set_absorb_when_idle(bool value) noexcept { absorb_when_idle_ = value; }

  /// Submit a CS request on behalf of `mh` at its current MSS.
  void request(net::MhId mh);

  /// R2' attack fixture: `mh` always reports access_count = 0.
  void set_malicious(net::MhId mh, bool value);

  /// CS executions completed so far.
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Ring loops finished so far.
  [[nodiscard]] std::uint64_t traversals_done() const noexcept { return traversals_done_; }
  /// True once the token was retired (fuel spent or absorbed idle).
  [[nodiscard]] bool token_absorbed() const noexcept { return absorbed_; }
  /// Requests skipped because the MH had disconnected at grant time.
  [[nodiscard]] std::uint64_t skipped_disconnected() const noexcept {
    return skipped_disconnected_counter_.value();
  }

  /// Grants to one MH within one traversal window (R2' invariant: ≤ 1).
  [[nodiscard]] std::uint64_t grants_for(net::MhId mh, std::uint64_t token_val) const;

 private:
  class StationAgent;
  class HostAgent;
  friend class StationAgent;
  friend class HostAgent;

  void record_grant(std::uint64_t token_val, net::MhId mh);
  [[nodiscard]] bool all_queues_empty() const;
  /// Event-stream tag for this instance: "R2", "R2'", or "R2''".
  [[nodiscard]] const char* variant_label() const noexcept;
  /// Tag for the token grant about to be recorded for `mh` in traversal
  /// `token_val`. R2' only asserts its once-per-traversal cap when every
  /// MH reports honestly and has at most one outstanding request, so the
  /// two known holes carry decorated tags — "R2'!" for runs with
  /// malicious reporters, "R2'~" for a repeat grant admitted by a stale
  /// access_count snapshot (a MH that queued requests at several cells
  /// before its counter caught up; the weakness R2'' fixes). Both stay
  /// in the R2 token family but are exempt from the traversal-cap
  /// checker. R2'' holds unconditionally and always keeps its own tag.
  [[nodiscard]] const char* grant_label(net::MhId mh, std::uint64_t token_val) const;

  net::Network& net_;
  CsMonitor& monitor_;
  RingVariant variant_;
  std::vector<std::shared_ptr<StationAgent>> stations_;
  std::vector<std::shared_ptr<HostAgent>> hosts_;
  std::uint64_t target_traversals_ = 0;
  std::uint64_t traversals_done_ = 0;
  std::uint64_t completed_ = 0;
  // Registry-backed token-path counters, bound to the network's registry
  // at construction; skipped_disconnected() reads its counter.
  obs::Counter& token_passes_counter_;
  obs::Counter& token_grants_counter_;
  obs::Counter& skipped_disconnected_counter_;
  bool absorbed_ = false;
  bool absorb_when_idle_ = false;
  bool any_malicious_ = false;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> grant_counts_;
};

}  // namespace mobidist::mutex
