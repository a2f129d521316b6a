#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mobility/models.hpp"
#include "net/ids.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace mobidist::mobility {

/// Drives moves for a set of MHs through a MobilityModel. Plays nicely
/// with algorithms: a host that is not connected when its departure
/// timer fires simply reschedules. Deterministic given the network's
/// RNG state. Counts moves per region of the *departure* cell and how
/// many crossed a region boundary — the empirical per-region
/// significant-move fraction f of the paper's §4 cost analysis.
class MobilityDriver {
 public:
  /// Custom target picker; returns the destination cell for a host's
  /// next move (must differ from the current cell). Overrides the
  /// configured pattern/model when set.
  using TargetPicker = std::function<net::MssId(net::MhId, net::MssId current)>;

  /// Drive all hosts in the network.
  MobilityDriver(net::Network& net, MobilityConfig cfg);
  /// Drive a subset.
  MobilityDriver(net::Network& net, MobilityConfig cfg, std::vector<net::MhId> hosts);

  /// Install a custom picker (wins over the configured model).
  void set_target_picker(TargetPicker picker) { picker_ = std::move(picker); }

  /// Schedule the first departure for every driven host.
  void start();

  /// Moves completed so far (departures that actually happened).
  [[nodiscard]] std::uint64_t moves() const noexcept { return moves_; }
  /// Disconnect cycles taken instead of moves.
  [[nodiscard]] std::uint64_t disconnects() const noexcept { return disconnects_; }

  /// Region count f is reported over (cfg.regions clamped to the
  /// topology).
  [[nodiscard]] std::uint32_t regions() const noexcept { return regions_; }
  /// Moves that departed from region r.
  [[nodiscard]] std::uint64_t moves_in_region(std::uint32_t r) const {
    return moves_by_region_.at(r);
  }
  /// Moves that departed from region r and crossed a region boundary.
  [[nodiscard]] std::uint64_t significant_in_region(std::uint32_t r) const {
    return significant_by_region_.at(r);
  }
  /// Empirical f for region r: significant / total departures (0 when
  /// the region saw none).
  [[nodiscard]] double f_region(std::uint32_t r) const;
  /// Empirical f over all regions.
  [[nodiscard]] double f_overall() const;

 private:
  void schedule_next(net::MhId host);
  void depart(net::MhId host);
  [[nodiscard]] net::MssId pick_target(net::MhId host, net::MssId current);

  net::Network& net_;
  MobilityConfig cfg_;
  std::vector<net::MhId> hosts_;
  std::vector<std::uint64_t> moves_per_host_;
  std::unique_ptr<MobilityModel> model_;
  TargetPicker picker_;
  std::uint32_t regions_ = 1;
  std::vector<std::uint64_t> moves_by_region_;
  std::vector<std::uint64_t> significant_by_region_;
  std::uint64_t moves_ = 0;
  std::uint64_t disconnects_ = 0;
};

}  // namespace mobidist::mobility
