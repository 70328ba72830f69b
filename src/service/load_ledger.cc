#include "service/load_ledger.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace costream::service {

ClusterLoadLedger::ClusterLoadLedger(sim::Cluster cluster,
                                     const LedgerConfig& config)
    : cluster_(std::move(cluster)), config_(config) {
  COSTREAM_CHECK(cluster_.num_nodes() > 0);
  COSTREAM_CHECK(config_.capacity_margin > 0.0);
  COSTREAM_CHECK(config_.history_weight >= 0.0);
  COSTREAM_CHECK(config_.overflow_growth >= 1.0);
  capacity_.reserve(cluster_.nodes.size());
  for (const sim::HardwareNode& node : cluster_.nodes) {
    capacity_.push_back(sim::CapacityOf(node));
  }
  he_.assign(cluster_.num_nodes(), 0);
  of_.assign(cluster_.num_nodes(), 0);
  overflow_table_.resize(kOverflowTableSize);
  double penalty = 1.0;
  for (int k = 0; k < kOverflowTableSize; ++k) {
    overflow_table_[k] = std::min(penalty, config_.max_penalty);
    penalty *= config_.overflow_growth;
  }
}

void ClusterLoadLedger::Admit(int64_t id, const sim::BackgroundLoad& load) {
  COSTREAM_CHECK(!Contains(id));
  COSTREAM_CHECK(static_cast<int>(load.cpu_load_us.size()) == num_nodes());
  COSTREAM_CHECK(static_cast<int>(load.out_bytes_per_s.size()) == num_nodes());
  COSTREAM_CHECK(static_cast<int>(load.memory_mb.size()) == num_nodes());
  // An id above every live id is the next step of the ascending-id fold
  // (the first step being 0.0 + load, as in AccumulateBackgroundLoad).
  if (!total_stale_ && (loads_.empty() || id > loads_.rbegin()->first)) {
    sim::AccumulateBackgroundLoad(load, num_nodes(), &total_);
  } else {
    total_stale_ = true;
  }
  loads_.emplace(id, load);
}

bool ClusterLoadLedger::Retire(int64_t id) {
  if (loads_.erase(id) == 0) return false;
  total_stale_ = true;
  return true;
}

std::vector<int64_t> ClusterLoadLedger::QueryIds() const {
  std::vector<int64_t> ids;
  ids.reserve(loads_.size());
  for (const auto& [id, load] : loads_) ids.push_back(id);
  return ids;
}

const sim::BackgroundLoad& ClusterLoadLedger::LoadOf(int64_t id) const {
  const auto it = loads_.find(id);
  COSTREAM_CHECK(it != loads_.end());
  return it->second;
}

const sim::BackgroundLoad& ClusterLoadLedger::TotalLoad() const {
  if (total_stale_) {
    total_ = TotalLoadExcluding(std::numeric_limits<int64_t>::min());
    total_stale_ = false;
  }
  return total_;
}

sim::BackgroundLoad ClusterLoadLedger::TotalLoadExcluding(int64_t id) const {
  sim::BackgroundLoad total;
  // Ascending-id summation: the total is a pure function of the live set,
  // never of the admission/retirement history.
  for (const auto& [query_id, load] : loads_) {
    if (query_id == id) continue;
    sim::AccumulateBackgroundLoad(load, num_nodes(), &total);
  }
  return total;
}

sim::Cluster ClusterLoadLedger::LoadedView() const {
  return sim::DerateCluster(cluster_, TotalLoad());
}

sim::Cluster ClusterLoadLedger::LoadedViewExcluding(int64_t id) const {
  return sim::DerateCluster(cluster_, TotalLoadExcluding(id));
}

double ClusterLoadLedger::NodeUtilization(int n) const {
  COSTREAM_CHECK(n >= 0 && n < num_nodes());
  const sim::BackgroundLoad& total = TotalLoad();
  if (total.empty()) return 0.0;
  const sim::NodeCapacity& cap = capacity_[n];
  const double cpu = total.cpu_load_us[n] / cap.cpu_us_per_s;
  const double net = total.out_bytes_per_s[n] / cap.net_bytes_per_s;
  const double ram = total.memory_mb[n] / std::max(cap.ram_mb, 1.0);
  return std::max({cpu, net, ram});
}

std::vector<int> ClusterLoadLedger::OverflowedNodes() const {
  std::vector<int> overflowed;
  for (int n = 0; n < num_nodes(); ++n) {
    if (NodeUtilization(n) > config_.capacity_margin) overflowed.push_back(n);
  }
  return overflowed;
}

int ClusterLoadLedger::OverflowMagnitude(double util) const {
  const double excess = util - config_.capacity_margin;
  if (excess <= 0.0) return 0;
  // Margin-quarters, so a node 2x over capacity prices several table steps
  // above one barely over.
  return std::min<int>(
      static_cast<int>(std::ceil(excess / (0.25 * config_.capacity_margin))),
      kOverflowTableSize - 1);
}

std::vector<int> ClusterLoadLedger::UpdateCongestion() {
  std::vector<int> overflowed;
  for (int n = 0; n < num_nodes(); ++n) {
    const double util = NodeUtilization(n);
    of_[n] = OverflowMagnitude(util);
    if (of_[n] > 0) {
      overflowed.push_back(n);
      ++he_[n];
    }
  }
  return overflowed;
}

double ClusterLoadLedger::NodePenalty(int n) const {
  COSTREAM_CHECK(n >= 0 && n < num_nodes());
  const double penalty =
      (1.0 + config_.history_weight * he_[n]) * overflow_table_[of_[n]];
  return std::min(penalty, config_.max_penalty);
}

double ClusterLoadLedger::PlacementPenalty(
    const sim::BackgroundLoad& extra) const {
  return PlacementPenalty(extra, TotalLoad());
}

double ClusterLoadLedger::PlacementPenalty(
    const sim::BackgroundLoad& extra, const sim::BackgroundLoad& total) const {
  COSTREAM_CHECK(static_cast<int>(extra.cpu_load_us.size()) == num_nodes());
  double sum = 0.0;
  int touched = 0;
  for (int n = 0; n < num_nodes(); ++n) {
    if (extra.cpu_load_us[n] <= 0.0 && extra.out_bytes_per_s[n] <= 0.0 &&
        extra.memory_mb[n] <= 0.0) {
      continue;
    }
    double cpu = extra.cpu_load_us[n];
    double net = extra.out_bytes_per_s[n];
    double ram = extra.memory_mb[n];
    if (!total.empty()) {
      cpu += total.cpu_load_us[n];
      net += total.out_bytes_per_s[n];
      ram += total.memory_mb[n];
    }
    const sim::NodeCapacity& cap = capacity_[n];
    const double util =
        std::max({cpu / cap.cpu_us_per_s, net / cap.net_bytes_per_s,
                  ram / std::max(cap.ram_mb, 1.0)});
    const int of_projected = std::max(of_[n], OverflowMagnitude(util));
    const double penalty = (1.0 + config_.history_weight * he_[n]) *
                           overflow_table_[of_projected];
    sum += std::min(penalty, config_.max_penalty);
    ++touched;
  }
  return touched == 0 ? 1.0 : sum / static_cast<double>(touched);
}

void ClusterLoadLedger::ResetCongestion() {
  std::fill(he_.begin(), he_.end(), 0);
  std::fill(of_.begin(), of_.end(), 0);
}

std::string ClusterLoadLedger::CheckInvariants() const {
  std::ostringstream error;
  for (const auto& [id, load] : loads_) {
    if (static_cast<int>(load.cpu_load_us.size()) != num_nodes() ||
        static_cast<int>(load.out_bytes_per_s.size()) != num_nodes() ||
        static_cast<int>(load.memory_mb.size()) != num_nodes()) {
      error << "query " << id << ": load not sized to the cluster";
      return error.str();
    }
    for (int n = 0; n < num_nodes(); ++n) {
      if (load.cpu_load_us[n] < 0.0 || load.out_bytes_per_s[n] < 0.0 ||
          load.memory_mb[n] < 0.0 || !std::isfinite(load.cpu_load_us[n]) ||
          !std::isfinite(load.out_bytes_per_s[n]) ||
          !std::isfinite(load.memory_mb[n])) {
        error << "query " << id << ": negative or non-finite load on node "
              << n;
        return error.str();
      }
    }
  }
  // The cached aggregate must equal a fresh ascending-id sum of the live
  // loads exactly: this guards the cache's incremental and stale paths.
  const sim::BackgroundLoad& total = TotalLoad();
  sim::BackgroundLoad recomputed;
  for (const auto& [id, load] : loads_) {
    sim::AccumulateBackgroundLoad(load, num_nodes(), &recomputed);
  }
  if (total.empty() != recomputed.empty()) {
    return "total/recomputed emptiness mismatch";
  }
  for (int n = 0; n < num_nodes() && !total.empty(); ++n) {
    if (total.cpu_load_us[n] != recomputed.cpu_load_us[n] ||
        total.out_bytes_per_s[n] != recomputed.out_bytes_per_s[n] ||
        total.memory_mb[n] != recomputed.memory_mb[n]) {
      error << "aggregated demand diverges from the live-set sum on node "
            << n;
      return error.str();
    }
  }
  return "";
}

}  // namespace costream::service
