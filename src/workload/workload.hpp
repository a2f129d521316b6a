#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace mobidist::workload {

/// Schedule `count` invocations of `fn` with exponential inter-arrival
/// gaps (mean `mean_gap`), starting `start` ticks from now. Arrival
/// times are drawn up front from the network RNG so the schedule is
/// independent of what `fn` itself does.
void poisson_calls(net::Network& net, std::uint64_t count, double mean_gap,
                   sim::Duration start, std::function<void(std::uint64_t seq)> fn);

/// Schedule `count` invocations of `fn` at a fixed pace.
void paced_calls(net::Network& net, std::uint64_t count, sim::Duration gap,
                 sim::Duration start, std::function<void(std::uint64_t seq)> fn);

/// E5's controlled mobility process: interleaves MOB moves and MSG
/// message-send callbacks at a fixed ratio, steering the *significant
/// fraction* f of moves for a clustered group.
///
/// Construction: `anchors` never move and pin their cells into LV(G);
/// `rover` is the member whose moves we script. A non-significant move
/// hops the rover between two anchored cells; a significant one sends it
/// to (or back from) a fresh, unanchored cell.
class MobMsgDriver {
 public:
  /// Shape of the interleaved schedule: the MOB/MSG ratio, the scripted
  /// significant fraction f, and the pacing between events.
  struct Config {
    std::uint64_t messages = 50;       ///< MSG
    double mob_per_msg = 1.0;          ///< MOB/MSG ratio
    double significant_fraction = 0.5; ///< f
    sim::Duration step = 40;           ///< gap between consecutive events
    sim::Duration transit = 3;
  };

  MobMsgDriver(net::Network& net, Config cfg, std::vector<net::MssId> anchored_cells,
               std::vector<net::MssId> fresh_cells, net::MhId rover,
               std::function<void(std::uint64_t seq)> send_fn);

  /// Lay out the whole schedule (moves interleaved with sends).
  void start();

  /// Moves laid out by start() (MOB).
  [[nodiscard]] std::uint64_t moves_scheduled() const noexcept { return moves_; }
  /// Message sends laid out by start() (MSG).
  [[nodiscard]] std::uint64_t messages_scheduled() const noexcept { return messages_; }
  /// Scheduled moves that were significant (left the anchored cells).
  [[nodiscard]] std::uint64_t significant_scheduled() const noexcept {
    return significant_;
  }

 private:
  net::Network& net_;
  Config cfg_;
  std::vector<net::MssId> anchored_;
  std::vector<net::MssId> fresh_;
  net::MhId rover_;
  std::function<void(std::uint64_t)> send_fn_;
  std::uint64_t moves_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t significant_ = 0;
};

}  // namespace mobidist::workload
