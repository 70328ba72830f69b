#ifndef COSTREAM_SERVICE_LOAD_LEDGER_H_
#define COSTREAM_SERVICE_LOAD_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/fluid_engine.h"
#include "sim/hardware.h"

namespace costream::service {

// Congestion parameters of the ledger (negotiated-congestion pricing in the
// style of PathFinder-class routers: per-node history `he` and overflow `of`
// terms with a precomputed escalating penalty table).
struct LedgerConfig {
  // A node counts as overflowed when any resource's demand exceeds
  // margin * capacity. 1.0 = the fluid engine's backpressure boundary.
  double capacity_margin = 1.0;
  // Weight of the history term: penalty *= (1 + history_weight * he).
  double history_weight = 0.5;
  // Base of the precomputed overflow table: table[of] = growth^of (clamped).
  double overflow_growth = 2.0;
  // Penalties never exceed this (keeps scores finite on hopeless fixtures).
  double max_penalty = 1e6;
};

// Shared per-node load state of a long-lived multi-tenant cluster. Every live
// query contributes the steady-state BackgroundLoad of its placement; the
// ledger aggregates demand per node, detects overflow against the absolute
// sim::NodeCapacity, and maintains the negotiated-congestion state (history
// and overflow counts with escalating penalties) that the placement service
// uses to reprice contended nodes across rip-up iterations.
//
// Determinism: the total is the sum of the per-query loads in ascending id
// order, so it is a pure function of the live set — admitting and then
// retiring a query restores the previous total bitwise, and the result never
// depends on the order in which queries arrived or departed. The sum is
// cached: admitting an id above every live id adds its load to the cache
// (the next step of the same fold); any other admission and every
// retirement mark the cache stale, and the next reader sums afresh.
class ClusterLoadLedger {
 public:
  explicit ClusterLoadLedger(sim::Cluster cluster,
                             const LedgerConfig& config = LedgerConfig());

  const sim::Cluster& cluster() const { return cluster_; }
  int num_nodes() const { return cluster_.num_nodes(); }
  const LedgerConfig& config() const { return config_; }

  // --- Live-set bookkeeping -------------------------------------------------

  // Registers `load` under `id`. `id` must not be live; loads must be sized
  // to the cluster.
  void Admit(int64_t id, const sim::BackgroundLoad& load);
  // Removes `id` from the live set. Returns false when `id` was not live.
  bool Retire(int64_t id);
  bool Contains(int64_t id) const { return loads_.count(id) > 0; }
  int live_queries() const { return static_cast<int>(loads_.size()); }
  // Ascending.
  std::vector<int64_t> QueryIds() const;
  // `id` must be live.
  const sim::BackgroundLoad& LoadOf(int64_t id) const;

  // --- Aggregated demand ----------------------------------------------------

  // Sum of all live loads (empty BackgroundLoad when no query is live). The
  // reference stays valid until the next Admit or Retire. Not safe to call
  // concurrently with itself: a stale cache is refreshed here.
  const sim::BackgroundLoad& TotalLoad() const;
  // Sum of all live loads except `id` (which may or may not be live).
  sim::BackgroundLoad TotalLoadExcluding(int64_t id) const;

  // The cluster as a *new* query sees it: capacities derated by the total
  // demand (sim::DerateCluster).
  sim::Cluster LoadedView() const;
  sim::Cluster LoadedViewExcluding(int64_t id) const;

  // max over resources of demand / capacity for node `n` under TotalLoad().
  double NodeUtilization(int n) const;
  // Nodes whose utilization exceeds the capacity margin, ascending.
  std::vector<int> OverflowedNodes() const;

  // --- Negotiated congestion ------------------------------------------------

  // One repricing step: recomputes per-node overflow counts `of` from the
  // current demand (how many margin-fractions the node is over capacity) and
  // increments the history `he` of every currently-overflowed node. Returns
  // the overflowed nodes, ascending. Penalties escalate monotonically in the
  // number of iterations a node stays contended.
  std::vector<int> UpdateCongestion();

  // Current price multiplier of node `n`:
  //   (1 + history_weight * he[n]) * overflow_table[of[n]]   (>= 1).
  double NodePenalty(int n) const;
  // Price of adding `extra` demand on top of the current total: mean, over
  // the nodes `extra` touches, of the node's history term times the overflow
  // table indexed by max(of[n], projected overflow with `extra` included).
  // Unlike NodePenalty this reflects *present* congestion — including the
  // candidate's own contribution and everything re-placed since the last
  // UpdateCongestion() — so within one rip-up iteration sequentially
  // re-placed queries immediately price each other's landings (PathFinder's
  // present-congestion p(n) term, on top of the lagged history term).
  double PlacementPenalty(const sim::BackgroundLoad& extra) const;
  // Same, against a caller-precomputed `total` (must be TotalLoad() or a
  // TotalLoadExcluding(...) of this ledger) — hot scoring loops compute the
  // total once and price every candidate against it.
  double PlacementPenalty(const sim::BackgroundLoad& extra,
                          const sim::BackgroundLoad& total) const;
  int history(int n) const { return he_[n]; }
  int overflow_count(int n) const { return of_[n]; }
  // Forgets all congestion state (demand bookkeeping is untouched).
  void ResetCongestion();

  // --- Self-check (tests, costream_serve --check) ---------------------------

  // Verifies the ledger's internal invariants: every stored load is sized to
  // the cluster and non-negative, and the cached total equals a fresh
  // ascending-id sum of the live per-query loads exactly. Returns "" when
  // consistent.
  std::string CheckInvariants() const;

 private:
  static constexpr int kOverflowTableSize = 64;

  // Overflow magnitude of a utilization value, in margin-quarters over
  // capacity (0 when within the margin), clamped to the table.
  int OverflowMagnitude(double util) const;

  sim::Cluster cluster_;
  LedgerConfig config_;
  std::vector<sim::NodeCapacity> capacity_;
  // Live loads keyed by query id; std::map keeps iteration (and therefore
  // summation) in ascending-id order.
  std::map<int64_t, sim::BackgroundLoad> loads_;
  // TotalLoad() cache; refreshed by the const reader when stale.
  mutable sim::BackgroundLoad total_;
  mutable bool total_stale_ = false;
  std::vector<int> he_;  // history: iterations a node has spent overflowed
  std::vector<int> of_;  // current overflow magnitude (margin-fractions over)
  // Precomputed escalating overflow penalties: table[k] = growth^k, clamped
  // to max_penalty (cf. the VLSIGR router's cost_pe table).
  std::vector<double> overflow_table_;
};

}  // namespace costream::service

#endif  // COSTREAM_SERVICE_LOAD_LEDGER_H_
