#include "mobility/mobility_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobidist::mobility {

using net::MhId;
using net::MssId;

namespace {
std::vector<MhId> all_hosts(const net::Network& net) {
  std::vector<MhId> hosts;
  hosts.reserve(net.num_mh());
  for (std::uint32_t i = 0; i < net.num_mh(); ++i) hosts.push_back(static_cast<MhId>(i));
  return hosts;
}
}  // namespace

MobilityDriver::MobilityDriver(net::Network& net, MobilityConfig cfg)
    : MobilityDriver(net, cfg, all_hosts(net)) {}

MobilityDriver::MobilityDriver(net::Network& net, MobilityConfig cfg,
                               std::vector<net::MhId> hosts)
    : net_(net), cfg_(cfg), hosts_(std::move(hosts)) {
  if (net_.num_mss() < 2) {
    if (!hosts_.empty() && cfg_.disconnect_prob < 1.0) {
      throw std::invalid_argument("MobilityDriver: moving needs at least two cells");
    }
  } else {
    model_ = make_model(cfg_, net_.num_mss(), net_.num_mh(), net_.config().seed);
  }
  std::uint32_t max_index = 0;
  for (const auto host : hosts_) max_index = std::max(max_index, net::index(host));
  moves_per_host_.assign(max_index + 1, 0);
  regions_ = std::clamp<std::uint32_t>(cfg_.regions, 1, std::max(1u, net_.num_mss()));
  moves_by_region_.assign(regions_, 0);
  significant_by_region_.assign(regions_, 0);
}

double MobilityDriver::f_region(std::uint32_t r) const {
  const auto total = moves_by_region_.at(r);
  if (total == 0) return 0.0;
  return static_cast<double>(significant_by_region_[r]) / static_cast<double>(total);
}

double MobilityDriver::f_overall() const {
  std::uint64_t total = 0;
  std::uint64_t significant = 0;
  for (std::uint32_t r = 0; r < regions_; ++r) {
    total += moves_by_region_[r];
    significant += significant_by_region_[r];
  }
  if (total == 0) return 0.0;
  return static_cast<double>(significant) / static_cast<double>(total);
}

void MobilityDriver::start() {
  for (const auto host : hosts_) schedule_next(host);
}

void MobilityDriver::schedule_next(MhId host) {
  if (moves_per_host_[net::index(host)] >= cfg_.max_moves_per_host) return;
  const auto pause =
      static_cast<sim::Duration>(net_.rng().exponential(cfg_.mean_pause)) + 1;
  if (cfg_.stop_at != sim::kTimeNever && net_.sched().now() + pause > cfg_.stop_at) return;
  net_.sched().schedule(pause, [this, host] { depart(host); });
}

void MobilityDriver::depart(MhId host) {
  auto& mobile = net_.mh(host);
  if (!mobile.connected()) {
    // Busy (in transit from an algorithm-driven move, or disconnected by
    // someone else): try again later.
    schedule_next(host);
    return;
  }
  ++moves_per_host_[net::index(host)];
  if (cfg_.disconnect_prob > 0.0 && net_.rng().chance(cfg_.disconnect_prob)) {
    ++disconnects_;
    const MssId came_from = mobile.current_mss();
    mobile.disconnect();
    const auto away =
        static_cast<sim::Duration>(net_.rng().exponential(cfg_.mean_disconnect)) + 1;
    // Reconnect either where we left or in a fresh cell.
    const MssId back = net_.rng().chance(0.5) ? came_from : pick_target(host, came_from);
    net_.sched().schedule(away, [this, host, back] {
      if (net_.mh(host).state() == net::MhState::kDisconnected) {
        net_.mh(host).reconnect_at(back, 1);
      }
      schedule_next(host);
    });
    return;
  }
  ++moves_;
  const MssId current = mobile.current_mss();
  const MssId target = pick_target(host, current);
  const std::uint32_t m = net_.num_mss();
  const auto from_region = region_of(net::index(current), m, regions_);
  ++moves_by_region_[from_region];
  if (region_of(net::index(target), m, regions_) != from_region) {
    ++significant_by_region_[from_region];
  }
  const auto transit =
      static_cast<sim::Duration>(net_.rng().exponential(cfg_.mean_transit)) + 1;
  mobile.move_to(target, transit);
  net_.sched().schedule(transit + 1, [this, host] { schedule_next(host); });
}

MssId MobilityDriver::pick_target(MhId host, MssId current) {
  if (picker_) {
    const MssId chosen = picker_(host, current);
    if (chosen == current) {
      throw std::logic_error("MobilityDriver: target picker returned the current cell");
    }
    return chosen;
  }
  if (!model_) {
    throw std::logic_error("MobilityDriver: no model (single-cell topology)");
  }
  return model_->pick_target({net_.rng(), net_.sched().now(), host, current});
}

}  // namespace mobidist::mobility
