#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mobidist::fault {

/// One scheduled MSS outage: the station is unreachable during
/// [at, at + down_for). Algorithm state survives (fail-stop with stable
/// storage); only the network interface dies.
struct MssCrash {
  std::uint32_t mss = 0;
  sim::SimTime at = 0;
  sim::Duration down_for = 0;
};

/// A wired partition between two MSSs: messages on the (a, b) link in
/// either direction are held until `until` while now is in [from, until).
struct CellPartition {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  sim::SimTime from = 0;
  sim::SimTime until = 0;
};

/// Everything that can go wrong in one run, fixed up front so the whole
/// fault schedule is a pure function of (seed, profile).
struct FaultProfile {
  // Wireless hop (both directions share one loss/dup/spike model).
  double wireless_loss = 0.0;       ///< per-frame drop probability
  double wireless_dup = 0.0;        ///< per-delivered-frame duplication probability
  double wireless_reorder = 0.0;    ///< per-frame extra-delay-spike probability
  sim::Duration wireless_spike_max = 8;

  // Fixed network: occasional delay spikes (never loss -- the paper's
  /// wired mesh stays reliable) plus the structural faults below.
  double wired_spike = 0.0;
  sim::Duration wired_spike_max = 16;

  std::vector<MssCrash> crashes;
  std::vector<CellPartition> partitions;

  /// When an MSS crashes, its cell loses coverage: connected MHs notice
  /// the dead beacon and re-home to the next cell through the ordinary
  /// leave/join/handoff path. Disable to model a silent outage instead.
  bool evacuate_on_crash = true;

  // Deterministic unit-test knobs: unconditionally drop the first N
  // wireless frames / duplicate the first N delivered wireless frames,
  // before any probabilistic draw applies.
  std::uint32_t drop_first_wireless = 0;
  std::uint32_t dup_first_wireless = 0;

  // Retransmission timer for the reliable wireless hop:
  // backoff(attempt) = min(rto_base << attempt, rto_cap).
  sim::Duration rto_base = 16;
  sim::Duration rto_cap = 256;

  /// True when the profile can never perturb a run (the no-op profile
  /// used to prove fault-off and fault-free runs are byte-identical).
  [[nodiscard]] bool trivial() const noexcept;
};

/// Seed mixer for the fault plane's private RNG stream. The plane must
/// never draw from the network's rng_ (and must not fork it via
/// Rng::split(), which advances the parent): either would shift the
/// fault-free message schedule, breaking the invariant that a
/// zero-probability profile is a byte-identical no-op.
[[nodiscard]] std::uint64_t fault_stream_seed(std::uint64_t network_seed) noexcept;

/// Deterministic fault injector. Passive: the Network consults it at
/// every wireless frame and wired arrival; all randomness comes from the
/// plane's own stream, all structural faults (crashes, partitions) are
/// pure functions of the profile and the current sim time.
class FaultPlane {
 public:
  FaultPlane(std::uint64_t seed, FaultProfile profile);

  /// The profile this plane was built from.
  [[nodiscard]] const FaultProfile& profile() const noexcept { return profile_; }

  // --- per-frame draws (consume the fault stream, in call order) ------------

  /// Should this wireless frame be lost? Counts one frame against the
  /// drop_first_wireless knob before falling back to the probability.
  [[nodiscard]] bool draw_wireless_loss();
  /// Should this delivered wireless frame get a link-layer copy?
  [[nodiscard]] bool draw_wireless_dup();
  /// Extra delay for this wireless frame (0 = no spike).
  [[nodiscard]] sim::Duration draw_wireless_spike();
  /// Extra delay for this wired message (0 = no spike).
  [[nodiscard]] sim::Duration draw_wired_spike();
  /// Latency for a duplicated copy, in [lo, hi] like the primary frame.
  [[nodiscard]] sim::Duration draw_latency(sim::Duration lo, sim::Duration hi);
  /// Transit time for an MH evacuating a crashed cell.
  [[nodiscard]] sim::Duration draw_evacuation_transit();

  // --- structural faults (no draws; schedule + time only) -------------------

  /// Is `mss` inside one of its crash windows at `now`?
  [[nodiscard]] bool crashed(std::uint32_t mss, sim::SimTime now) const noexcept;
  /// Earliest time >= now at which a wired message from `from` may be
  /// delivered at `to` (crash of the destination, or a partition of the
  /// link, pushes delivery to the end of the blocking window). Returns
  /// `now` when the link is clear.
  [[nodiscard]] sim::SimTime wired_release_at(std::uint32_t from, std::uint32_t to,
                                              sim::SimTime now) const noexcept;

  // --- metrics (lazily registered: an inert plane leaves no trace) ----------

  /// Registry that the count_* calls register their counters in, on
  /// first use. Unbound, the count_* calls are no-ops.
  void bind_metrics(obs::Registry& registry) noexcept { registry_ = &registry; }
  void count_loss();        ///< fault.injected_loss
  void count_dup();         ///< fault.injected_dup
  void count_spike();       ///< fault.injected_spike
  void count_crash_drop();  ///< fault.injected_crash_drop
  void count_deferral();    ///< fault.injected_wired_deferral

 private:
  void bump(obs::Counter*& slot, const char* name);

  FaultProfile profile_;
  sim::Rng rng_;
  std::uint64_t frames_seen_ = 0;     ///< drop_first_wireless progress
  std::uint64_t delivered_seen_ = 0;  ///< dup_first_wireless progress
  obs::Registry* registry_ = nullptr;
  obs::Counter* loss_ = nullptr;
  obs::Counter* dup_ = nullptr;
  obs::Counter* spike_ = nullptr;
  obs::Counter* crash_drop_ = nullptr;
  obs::Counter* deferral_ = nullptr;
};

}  // namespace mobidist::fault
