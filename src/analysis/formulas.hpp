#pragma once

#include <cstddef>
#include <cstdint>

#include "cost/cost_model.hpp"

namespace mobidist::analysis {

// Closed-form cost expressions from the paper, verbatim. Benches print
// them next to simulated measurements; tests assert exact agreement in
// controlled scenarios. All return "cost units" under the given params.

// --- §3.1.1 Lamport-style mutual exclusion --------------------------------

/// L1: one CS execution among N mobile hosts:
/// 3*(N-1)*(2*c_wireless + c_search).
[[nodiscard]] double l1_execution_cost(std::uint32_t n, const cost::CostParams& p);

/// L1 wireless hops per execution: 6*(N-1) (= total MH energy in unit
/// -energy terms).
[[nodiscard]] std::uint64_t l1_wireless_hops(std::uint32_t n);

/// L1 energy at the initiating MH: proportional to 3*(N-1).
[[nodiscard]] std::uint64_t l1_initiator_energy(std::uint32_t n);

/// L2: one CS execution with M MSSs:
/// (3*c_wireless + c_fixed + c_search) + 3*(M-1)*c_fixed.
[[nodiscard]] double l2_execution_cost(std::uint32_t m, const cost::CostParams& p);

/// L2 wireless messages per execution: exactly 3.
[[nodiscard]] constexpr std::uint64_t l2_wireless_msgs() { return 3; }

// --- §3.1.2 token-ring mutual exclusion -----------------------------------

/// R1: one traversal of the N-host ring: N*(2*c_wireless + c_search) —
/// independent of the number of requests served.
[[nodiscard]] double r1_traversal_cost(std::uint32_t n, const cost::CostParams& p);

/// R2/R2': K requests served during one ring traversal:
/// K*(3*c_wireless + c_fixed + c_search) + M*c_fixed.
[[nodiscard]] double r2_cost(std::uint64_t k, std::uint32_t m, const cost::CostParams& p);

/// Upper bound on grants per traversal for R2: N*M.
[[nodiscard]] constexpr std::uint64_t r2_max_grants_per_traversal(std::uint32_t n,
                                                                  std::uint32_t m) {
  return static_cast<std::uint64_t>(n) * m;
}
/// Upper bound on grants per traversal for R2' (and R2''): N, each MH
/// served at most once.
[[nodiscard]] constexpr std::uint64_t r2prime_max_grants_per_traversal(std::uint32_t n) {
  return n;
}

// --- Naimi–Trehel path reversal on the MSS tier (bench e10) ---------------

/// The m-th harmonic number H_m = sum_{k=1..m} 1/k (H_0 = 0).
[[nodiscard]] double harmonic(std::uint32_t m);

/// Average wired messages per CS entry under random requests across M
/// MSS nodes: H_M claim-forward hops on the dynamic father tree plus
/// one token transfer (Lavault's average-case analysis of Naimi–Trehel,
/// O(log M); see arxiv cs/0611098). Worst case is M-1 + 1.
[[nodiscard]] double pathrev_avg_messages(std::uint32_t m);

/// Average-cost upper bound for one full CS entry through an MSS
/// attachment point: (H_M + 1) wired messages plus the L2-style
/// wireless envelope (request up, grant down, return up) and one
/// search for the grant's last wireless hop:
/// (H_M + 1)*c_fixed + 3*c_wireless + c_search.
[[nodiscard]] double pathrev_entry_cost_bound(std::uint32_t m, const cost::CostParams& p);

// --- mobility models: expected significant-move fraction f (E11) ----------

/// Uniform pattern over M cells split into R contiguous regions (R
/// divides M): a move departs anywhere and lands uniformly on one of
/// the other M-1 cells, M/R - 1 of which share the region, so
/// f = (M - M/R) / (M - 1).
[[nodiscard]] double uniform_region_f(std::uint32_t m, std::uint32_t r);

/// Neighbor (ring) pattern over M cells in R regions (R divides M, at
/// least two cells per region... R == M degenerates to f = 1): each
/// region has two boundary cells and each crosses with probability 1/2,
/// so under the uniform stationary cell distribution f = R / M.
[[nodiscard]] double neighbor_region_f(std::uint32_t m, std::uint32_t r);

// --- §4 group location management -------------------------------------

/// §4.1 pure search, one group message: (|G|-1)*(2*c_wireless + c_search).
[[nodiscard]] double pure_search_msg_cost(std::size_t g, const cost::CostParams& p);

/// §4.2 always inform, one fan-out (group message or location update):
/// (|G|-1)*(2*c_wireless + c_fixed).
[[nodiscard]] double always_inform_unit_cost(std::size_t g, const cost::CostParams& p);

/// §4.2 total over a window: (MOB + MSG) * unit.
[[nodiscard]] double always_inform_total(std::uint64_t mob, std::uint64_t msg,
                                         std::size_t g, const cost::CostParams& p);

/// §4.2 effective cost per group message: (MOB/MSG + 1) * unit.
[[nodiscard]] double always_inform_effective(double mob_msg_ratio, std::size_t g,
                                             const cost::CostParams& p);

/// §4.3 location view, one group message:
/// (|LV|-1)*c_fixed + |G|*c_wireless.
[[nodiscard]] double location_view_msg_cost(std::size_t lv, std::size_t g,
                                            const cost::CostParams& p);

/// §4.3 one view update: at most (|LV|+3)*c_fixed.
[[nodiscard]] double location_view_update_bound(std::size_t lv, const cost::CostParams& p);

/// §4.3 effective cost bound per group message:
/// ((f*MOB/MSG + 1)*|LV^max| + 3*f*MOB/MSG - 1)*c_fixed + |G|*c_wireless.
[[nodiscard]] double location_view_effective_bound(double significant_mob_msg_ratio,
                                                   std::size_t lv_max, std::size_t g,
                                                   const cost::CostParams& p);

}  // namespace mobidist::analysis
