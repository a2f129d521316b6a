#pragma once

/// Umbrella header: the full public API of the mobidist library — a
/// faithful C++ implementation of "Structuring Distributed Algorithms
/// for Mobile Hosts" (Badrinath, Acharya, Imielinski; ICDCS 1994).
///
/// Layers, bottom-up:
///   sim/      deterministic discrete-event kernel
///   cost/     the paper's cost model (c_fixed / c_wireless / c_search)
///   net/      the §2 system model: MSSs, MHs, cells, handoff, search
///   mobility/ background mobility processes
///   workload/ request and message schedules
///   obs/      metric registry (counters, gauges, histograms)
///   mutex/    §3: L1, L2, R1, R2, R2', R2''
///   group/    §4: pure search, always inform, location view
///   proxy/    §5: proxy scopes/obligations + Lamport-over-proxies
///   analysis/ the paper's closed-form cost expressions

#include "analysis/formulas.hpp"
#include "core/report.hpp"
#include "cost/cost_model.hpp"
#include "group/always_inform.hpp"
#include "group/group.hpp"
#include "group/location_view.hpp"
#include "group/pure_search.hpp"
#include "mobility/mobility_model.hpp"
#include "mutex/l1.hpp"
#include "mutex/l2.hpp"
#include "mutex/monitor.hpp"
#include "mutex/r1.hpp"
#include "mutex/r2.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "proxy/proxy.hpp"
#include "proxy/static_algorithm.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "workload/workload.hpp"

namespace mobidist {

/// Library semantic version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;

}  // namespace mobidist
