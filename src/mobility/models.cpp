#include "mobility/models.hpp"

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace mobidist::mobility {

using net::MhId;
using net::MssId;

std::optional<MovePattern> pattern_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kMovePatternNames); ++i) {
    if (name == kMovePatternNames[i]) return static_cast<MovePattern>(i);
  }
  return std::nullopt;
}

namespace {

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("mobility: " + what);
}

/// splitmix64 finalizer — the same mixer exp::derive_seeds uses, so
/// per-host state (homes, cohorts) is well-spread for any base seed.
constexpr std::uint64_t splitmix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix(splitmix(a) + b);
}

/// Uniform fraction in [0, 1) from a mixed hash (53 mantissa bits).
constexpr double fraction_of(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One ring step away from `cur`, direction drawn from the shared RNG.
MssId ring_step(sim::Rng& rng, std::uint32_t cur, std::uint32_t m) {
  const bool up = rng.chance(0.5);
  return static_cast<MssId>(up ? (cur + 1) % m : (cur + m - 1) % m);
}

// --- the three original memoryless patterns --------------------------------
// Draw sequences are bit-for-bit those of the pre-library driver, so
// every committed golden trace and same-seed artifact is unchanged.

class UniformModel final : public MobilityModel {
 public:
  explicit UniformModel(std::uint32_t m) : m_(m) {}
  MssId pick_target(const MoveContext& ctx) override {
    // Uniform over the other M-1 cells.
    const auto offset = 1 + ctx.rng.below(m_ - 1);
    return static_cast<MssId>((net::index(ctx.current) + offset) % m_);
  }

 private:
  std::uint32_t m_;
};

class NeighborModel final : public MobilityModel {
 public:
  explicit NeighborModel(std::uint32_t m) : m_(m) {}
  MssId pick_target(const MoveContext& ctx) override {
    return ring_step(ctx.rng, net::index(ctx.current), m_);
  }

 private:
  std::uint32_t m_;
};

class HotspotModel final : public MobilityModel {
 public:
  HotspotModel(std::uint32_t m, double zipf_s) : zipf_(m, zipf_s) {}
  MssId pick_target(const MoveContext& ctx) override {
    for (;;) {
      const auto cell = static_cast<std::uint32_t>(zipf_.draw(ctx.rng));
      if (cell != net::index(ctx.current)) return static_cast<MssId>(cell);
    }
  }

 private:
  sim::ZipfTable zipf_;
};

// --- random waypoint over a cell lattice -----------------------------------

/// Each host holds a waypoint cell; every move is one lattice hop toward
/// it (rows first, then columns), and reaching the waypoint draws a
/// fresh one uniformly. Successive moves are spatially correlated — the
/// property the memoryless uniform pattern cannot produce.
class WaypointModel final : public MobilityModel {
 public:
  WaypointModel(std::uint32_t m, std::uint32_t width, std::uint32_t num_mh)
      : m_(m), width_(width), waypoint_(num_mh, kNone) {}

  MssId pick_target(const MoveContext& ctx) override {
    const std::uint32_t cur = net::index(ctx.current);
    auto& wp = waypoint_[net::index(ctx.host)];
    if (wp == kNone || wp == cur) {
      wp = static_cast<std::uint32_t>((cur + 1 + ctx.rng.below(m_ - 1)) % m_);
    }
    const std::uint32_t cur_row = cur / width_;
    const std::uint32_t wp_row = wp / width_;
    if (cur_row != wp_row) {
      return static_cast<MssId>(wp_row > cur_row ? cur + width_ : cur - width_);
    }
    return static_cast<MssId>(wp > cur ? cur + 1 : cur - 1);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::uint32_t m_;
  std::uint32_t width_;
  std::vector<std::uint32_t> waypoint_;
};

/// Divisor of m nearest sqrt(m) (auto lattice width).
std::uint32_t auto_width(std::uint32_t m) {
  const double root = std::sqrt(static_cast<double>(m));
  std::uint32_t best = 1;
  for (std::uint32_t w = 1; w <= m; ++w) {
    if (m % w != 0) continue;
    if (std::abs(static_cast<double>(w) - root) <
        std::abs(static_cast<double>(best) - root)) {
      best = w;
    }
  }
  return best;
}

// --- commuter flows with a day-night phase cycle ---------------------------

/// Every host owns a uniformly-placed home cell and a Zipf-skewed work
/// cell (downtown = cell 0), both derived from the seed at construction.
/// During the day phase it heads to work, at night back home; a host
/// already at its phase target wanders one ring step instead. Hosts
/// whose home and work share a region rarely cross a boundary, so the
/// per-region significant-move fraction f is structurally skewed.
class CommuterModel final : public MobilityModel {
 public:
  CommuterModel(const MobilityConfig& cfg, std::uint32_t m, std::uint32_t num_mh,
                std::uint64_t seed)
      : m_(m), phase_period_(cfg.phase_period) {
    day_ticks_ = static_cast<std::uint64_t>(cfg.day_fraction *
                                            static_cast<double>(cfg.phase_period));
    sim::Rng priv(mix(seed, 0x636f6d6dULL));  // "comm"
    const sim::ZipfTable work_zipf(m, cfg.zipf_s);
    home_.reserve(num_mh);
    work_.reserve(num_mh);
    for (std::uint32_t h = 0; h < num_mh; ++h) {
      const auto home = static_cast<std::uint32_t>(priv.below(m));
      auto work = static_cast<std::uint32_t>(work_zipf.draw(priv));
      if (work == home) work = (home + 1) % m;
      home_.push_back(home);
      work_.push_back(work);
    }
  }

  MssId pick_target(const MoveContext& ctx) override {
    const bool day = (ctx.now % phase_period_) < day_ticks_;
    const std::uint32_t h = net::index(ctx.host);
    const std::uint32_t target = day ? work_[h] : home_[h];
    const std::uint32_t cur = net::index(ctx.current);
    if (target == cur) return ring_step(ctx.rng, cur, m_);
    return static_cast<MssId>(target);
  }

 private:
  std::uint32_t m_;
  std::uint64_t phase_period_;
  std::uint64_t day_ticks_;
  std::vector<std::uint32_t> home_;
  std::vector<std::uint32_t> work_;
};

// --- flash-crowd group churn -----------------------------------------------

/// Time is sliced into crowd_period windows; each window k opens with a
/// crowd_dwell-tick event in a seed-derived cell, and a seed-derived
/// cohort of roughly crowd_fraction of the hosts converges on it (a
/// correlated burst of joins in one cell). Outside the window — or for
/// hosts not in the cohort — everyone drifts back to a uniform home
/// cell. Membership is per (window, host), so consecutive events churn
/// different cohorts.
class FlashCrowdModel final : public MobilityModel {
 public:
  FlashCrowdModel(const MobilityConfig& cfg, std::uint32_t m, std::uint32_t num_mh,
                  std::uint64_t seed)
      : m_(m),
        period_(cfg.crowd_period),
        dwell_(cfg.crowd_dwell),
        fraction_(cfg.crowd_fraction),
        seed_(seed) {
    sim::Rng priv(mix(seed, 0x666c617368ULL));  // "flash"
    home_.reserve(num_mh);
    for (std::uint32_t h = 0; h < num_mh; ++h) {
      home_.push_back(static_cast<std::uint32_t>(priv.below(m)));
    }
  }

  /// Event cell of window k (uniform over cells, fresh per window).
  [[nodiscard]] std::uint32_t event_cell(std::uint64_t window) const noexcept {
    return static_cast<std::uint32_t>(mix(seed_, window * 2 + 1) % m_);
  }

  /// Is `host` in window k's cohort?
  [[nodiscard]] bool in_cohort(std::uint64_t window, std::uint32_t host) const noexcept {
    return fraction_of(mix(seed_ ^ 0x63726f7764ULL, window * 1'000'003ULL + host)) <
           fraction_;
  }

  MssId pick_target(const MoveContext& ctx) override {
    const std::uint64_t window = ctx.now / period_;
    const bool open = (ctx.now % period_) < dwell_;
    const std::uint32_t h = net::index(ctx.host);
    const std::uint32_t cur = net::index(ctx.current);
    std::uint32_t target;
    if (open && in_cohort(window, h)) {
      target = event_cell(window);
    } else {
      target = home_[h];
    }
    if (target == cur) return ring_step(ctx.rng, cur, m_);
    return static_cast<MssId>(target);
  }

 private:
  std::uint32_t m_;
  std::uint64_t period_;
  std::uint64_t dwell_;
  double fraction_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> home_;
};

}  // namespace

std::unique_ptr<MobilityModel> make_model(const MobilityConfig& cfg, std::uint32_t num_mss,
                                          std::uint32_t num_mh, std::uint64_t seed) {
  if (num_mss < 2) bad_config("models need at least two cells");
  switch (cfg.pattern) {
    case MovePattern::kUniform:
      return std::make_unique<UniformModel>(num_mss);
    case MovePattern::kNeighbor:
      return std::make_unique<NeighborModel>(num_mss);
    case MovePattern::kHotspot:
      return std::make_unique<HotspotModel>(num_mss, cfg.zipf_s);
    case MovePattern::kWaypoint: {
      std::uint32_t width = cfg.grid_width;
      if (width == 0) {
        width = auto_width(num_mss);
      } else if (width > num_mss || num_mss % width != 0) {
        bad_config("grid_width " + std::to_string(width) + " does not divide " +
                   std::to_string(num_mss) + " cells");
      }
      return std::make_unique<WaypointModel>(num_mss, width, num_mh);
    }
    case MovePattern::kCommuter:
      if (cfg.phase_period == 0) bad_config("phase_period must be > 0");
      if (cfg.day_fraction < 0.0 || cfg.day_fraction > 1.0) {
        bad_config("day_fraction must be in [0, 1]");
      }
      return std::make_unique<CommuterModel>(cfg, num_mss, num_mh, seed);
    case MovePattern::kFlashCrowd:
      if (cfg.crowd_period == 0) bad_config("crowd_period must be > 0");
      if (cfg.crowd_dwell > cfg.crowd_period) {
        bad_config("crowd_dwell must not exceed crowd_period");
      }
      return std::make_unique<FlashCrowdModel>(cfg, num_mss, num_mh, seed);
  }
  bad_config("unknown pattern");
}

}  // namespace mobidist::mobility
