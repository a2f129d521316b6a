#include "cost/cost_model.hpp"

#include <algorithm>

namespace mobidist::cost {

void CostLedger::charge_wireless(std::uint64_t mh_key, bool mh_transmitted) {
  ++wireless_msgs_;
  if (mh_key >= per_mh_.size()) per_mh_.resize(mh_key + 1);
  auto& counts = per_mh_[mh_key];
  if (mh_transmitted) {
    ++wireless_tx_;
    ++counts.tx;
  } else {
    ++wireless_rx_;
    ++counts.rx;
  }
}

double CostLedger::total(const CostParams& p) const noexcept {
  return static_cast<double>(wired_packets_) * p.c_fixed +
         static_cast<double>(fixed_msgs_) * p.c_wired_msg +
         static_cast<double>(wireless_msgs_) * p.c_wireless +
         static_cast<double>(searches_) * p.c_search;
}

double CostLedger::energy_at(std::uint64_t mh_key, const CostParams& p) const noexcept {
  if (mh_key >= per_mh_.size()) return 0.0;
  return static_cast<double>(per_mh_[mh_key].tx) * p.energy_tx +
         static_cast<double>(per_mh_[mh_key].rx) * p.energy_rx;
}

double CostLedger::total_energy(const CostParams& p) const noexcept {
  return static_cast<double>(wireless_tx_) * p.energy_tx +
         static_cast<double>(wireless_rx_) * p.energy_rx;
}

std::uint64_t CostLedger::wireless_hops_at(std::uint64_t mh_key) const noexcept {
  if (mh_key >= per_mh_.size()) return 0;
  return per_mh_[mh_key].tx + per_mh_[mh_key].rx;
}

CostLedger CostLedger::delta_since(const CostLedger& baseline) const {
  CostLedger d;
  d.fixed_msgs_ = fixed_msgs_ - baseline.fixed_msgs_;
  d.wired_packets_ = wired_packets_ - baseline.wired_packets_;
  d.wireless_msgs_ = wireless_msgs_ - baseline.wireless_msgs_;
  d.searches_ = searches_ - baseline.searches_;
  d.wireless_tx_ = wireless_tx_ - baseline.wireless_tx_;
  d.wireless_rx_ = wireless_rx_ - baseline.wireless_rx_;
  d.per_mh_ = per_mh_;
  const auto shared = std::min(per_mh_.size(), baseline.per_mh_.size());
  for (std::size_t key = 0; key < shared; ++key) {
    d.per_mh_[key].tx -= baseline.per_mh_[key].tx;
    d.per_mh_[key].rx -= baseline.per_mh_[key].rx;
  }
  return d;
}

void CostLedger::merge_from(const CostLedger& other) {
  fixed_msgs_ += other.fixed_msgs_;
  wired_packets_ += other.wired_packets_;
  wireless_msgs_ += other.wireless_msgs_;
  searches_ += other.searches_;
  wireless_tx_ += other.wireless_tx_;
  wireless_rx_ += other.wireless_rx_;
  if (other.per_mh_.size() > per_mh_.size()) per_mh_.resize(other.per_mh_.size());
  for (std::size_t key = 0; key < other.per_mh_.size(); ++key) {
    per_mh_[key].tx += other.per_mh_[key].tx;
    per_mh_[key].rx += other.per_mh_[key].rx;
  }
}

void CostLedger::reset() { *this = CostLedger{}; }

}  // namespace mobidist::cost
