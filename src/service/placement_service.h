#ifndef COSTREAM_SERVICE_PLACEMENT_SERVICE_H_
#define COSTREAM_SERVICE_PLACEMENT_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "dsps/query_graph.h"
#include "nn/quantized.h"
#include "service/load_ledger.h"
#include "sim/cost_metrics.h"
#include "sim/hardware.h"

namespace costream::common {
class ThreadPool;
}  // namespace costream::common

namespace costream::service {

class ScoringEngine;

// How a query's initial placement is chosen at admission.
enum class AdmissionPolicy {
  // Learned scoring (PlacementScorer over the load-adjusted cluster view)
  // with negotiated-congestion penalties. The production policy.
  kLearned,
  // Co-locate every operator on the first node (by index) with enough
  // residual capacity, falling back to the least-utilized node. The baseline
  // the convergence property test and bench compare against.
  kGreedyFirstFit,
};

struct ServiceConfig {
  // Optimization objective; throughput is maximized, latencies minimized.
  sim::Metric target = sim::Metric::kThroughput;
  AdmissionPolicy policy = AdmissionPolicy::kLearned;
  // Candidate enumeration per (re-)placement.
  int num_candidates = 16;
  int num_bins = 3;
  // Base seed; per-placement enumeration seeds are splitmix64-derived from
  // (seed, query id, iteration), so decisions depend on nothing but the
  // admission history — never on thread count or wall clock.
  uint64_t seed = 1;
  // Worker threads for candidate pricing and scoring (<= 0: all hardware
  // threads), one pool kept for the service's lifetime. Results are
  // bitwise-identical for every value (per-candidate slots, selection in
  // enumeration order).
  int num_threads = 0;
  // Rip-up iteration cap of Converge().
  int max_iterations = 16;
  // Scales the congestion term when penalizing candidate scores.
  double penalty_weight = 1.0;
  // Interval pre-pass (verify/interval_analysis.h): candidates whose proven
  // memory lower bound already exceeds a node's crash threshold on the bare
  // cluster skip GEMM scoring (counted in service.scoring.pruned). Decisions
  // are bitwise-unchanged by construction on the full-precision path: proven-
  // crash candidates are demoted below every unproven candidate in BOTH
  // modes, so their scores can never influence which candidate wins, and
  // they are only scored (and can only win) when every candidate is proven
  // to crash.
  bool interval_pruning = true;
  LedgerConfig ledger;

  // --- Scoring fast path (service/scoring_engine.h) ---
  // Pools per-structure scoring workspaces and forward plans across requests
  // and caches candidate scores on (query, view, co-location signature).
  // Decisions stay bitwise identical to the unpooled path.
  bool fast_path = true;
  // Rank candidates with the low-precision tier (bf16/int8 weight copies)
  // and re-score only the top rank_top_k in full precision. Changes which
  // candidates reach the full model — decisions agree with the
  // full-precision path within the benched agreement gate — so it is off by
  // default; latency-sensitive deployments opt in.
  bool quantized_ranking = false;
  nn::QuantKind quant_kind = nn::QuantKind::kInt8;
  int rank_top_k = 4;
  // Ensemble members the ranking tier snapshots (0 = all; a subset is
  // cheaper but measurably costs top-1 agreement).
  int rank_members = 0;
  // Doubling rounds the infeasible-head fallback may widen the re-scored
  // set by before resolving best-any over what it scored (< 0: scan to the
  // exact full-precision best-any). See FastPathConfig::rank_widen_rounds.
  int rank_widen_rounds = 2;
  bool candidate_cache = true;
};

struct AdmitResult {
  int64_t id = -1;
  sim::Placement placement;
  // Prediction of the target ensemble for the chosen candidate (on the
  // load-adjusted view at admission time).
  double predicted = 0.0;
  // `predicted` adjusted by the congestion penalties of the used nodes —
  // what the admission actually minimized/maximized.
  double penalized = 0.0;
  // True when the chosen candidate survived the success/backpressure filter.
  bool feasible = false;
  int candidates_evaluated = 0;
};

struct ConvergeResult {
  // Rip-up iterations executed (0 when the ledger was already clean).
  int iterations = 0;
  // Query re-placements across all iterations.
  int ripups = 0;
  bool converged = false;
  // Nodes still overflowed when the loop stopped (empty iff converged).
  std::vector<int> overflowed_nodes;
};

// Aggregate steady-state throughput of the live queries, each evaluated on
// the cluster derated by everyone else's demand.
struct AggregateThroughput {
  int queries = 0;          // queries actually evaluated (<= live)
  double predicted = 0.0;   // sum of learned predictions
  double des = 0.0;         // sum of DES sink throughputs
};

// Long-lived multi-tenant placement service (ROADMAP: negotiated-congestion
// re-placement). Queries arrive (Admit) and depart (Retire) continuously;
// node load is shared state in a ClusterLoadLedger; and contended nodes
// reprice over Converge() iterations: every overflowed node's history and
// overflow penalties escalate, the queries touching it are ripped up, and
// each is re-placed with the learned scorer against the load-adjusted view —
// candidates using expensive nodes score worse, so queries negotiate their
// way off contended hardware until no node exceeds capacity or the iteration
// cap hits.
//
// All decisions are deterministic in (config.seed, admission history) and
// bitwise-identical for every num_threads.
class PlacementService {
 public:
  // `target` must be a regression ensemble matching `config.target`;
  // `success` / `backpressure` may be null to skip the sanity filter. The
  // ensembles must outlive the service.
  PlacementService(sim::Cluster cluster, const core::Ensemble* target,
                   const core::Ensemble* success,
                   const core::Ensemble* backpressure,
                   const ServiceConfig& config);
  ~PlacementService();

  // Places `query` against the current loaded view and records it in the
  // ledger. The query is copied (re-placement needs it after the caller
  // moves on).
  AdmitResult Admit(const dsps::QueryGraph& query);

  // Async admission queue. AdmitAsync enqueues `query` and returns the id it
  // will be admitted under (assigned at submission, so sync and async
  // admissions interleave deterministically); DrainAdmissions then admits
  // every queued query in FIFO order against ONE consistent snapshot of the
  // loaded view, batching all same-structure requests' candidates into
  // shared ranking GEMMs. Ledger updates still apply sequentially per
  // request, so later requests in a batch see earlier ones through the
  // congestion penalties; only the derated node features are shared. A batch
  // of one is bitwise identical to a synchronous Admit.
  int64_t AdmitAsync(const dsps::QueryGraph& query);
  std::vector<AdmitResult> DrainAdmissions();
  int pending_admissions() const { return static_cast<int>(pending_.size()); }

  // Admits `query` at a forced `placement` (no scoring). Used to replay
  // recorded decisions and to build adversarial contention fixtures.
  AdmitResult AdmitWithPlacement(const dsps::QueryGraph& query,
                                 const sim::Placement& placement);

  // Removes the query from the service and its demand from the ledger.
  // Returns false when `id` is not live.
  bool Retire(int64_t id);

  // Rip-up-and-re-place until no node exceeds capacity or
  // config.max_iterations is reached.
  ConvergeResult Converge();

  // Evaluates up to `max_queries` live queries (deterministic stride over the
  // ascending id order; <= 0 means all): the learned prediction and a DES run
  // of `des_duration_s` simulated seconds, both on the cluster derated by the
  // other queries' demand.
  AggregateThroughput MeasureAggregateThroughput(int max_queries,
                                                 double des_duration_s) const;

  const ClusterLoadLedger& ledger() const { return ledger_; }
  const ServiceConfig& config() const { return config_; }
  int live_queries() const { return ledger_.live_queries(); }
  // Ids of the live queries, ascending.
  std::vector<int64_t> QueryIds() const { return ledger_.QueryIds(); }
  // `id` must be live.
  const sim::Placement& PlacementOf(int64_t id) const;
  const dsps::QueryGraph& QueryOf(int64_t id) const;

 private:
  struct Entry {
    dsps::QueryGraph query;
    sim::Placement placement;
  };

  struct Choice {
    sim::Placement placement;
    double predicted = 0.0;
    double penalized = 0.0;
    bool feasible = false;
    int candidates_evaluated = 0;
    // Steady-state demand of `placement` on the bare cluster (what Record
    // admits to the ledger), kept from the pricing that chose it.
    sim::BackgroundLoad load;
  };

  // One learned (or greedy) placement decision for `query` against `view`.
  Choice PlaceOne(const dsps::QueryGraph& query, const sim::Cluster& view,
                  uint64_t salt) const;
  // Interval pre-pass: mask[i] is 1 when candidate i is *proven* to crash a
  // node (memory lower bound above the crash threshold) on the bare cluster
  // with no background load — a query-intrinsic property, so the mask never
  // depends on the admission history.
  std::vector<char> ProvenCrashMask(
      const dsps::QueryGraph& query,
      const std::vector<sim::Placement>& candidates) const;
  // Scores `candidates` through the engine (ranked non-null: quantized
  // pre-ranking results) and selects under the congestion-penalized
  // objective, in enumeration order. `demoted` (the proven-crash mask, may
  // be null) ranks below every unproven candidate; with interval_pruning on,
  // demoted candidates are not scored at all unless every candidate is
  // demoted.
  Choice SelectCandidates(const dsps::QueryGraph& query,
                          const sim::Cluster& view,
                          const std::vector<sim::Placement>& candidates,
                          const std::vector<double>* ranked,
                          const std::vector<char>* demoted) const;
  Choice PlaceGreedyFirstFit(const dsps::QueryGraph& query) const;
  AdmitResult Record(int64_t id, const dsps::QueryGraph& query,
                     const Choice& choice);

  const core::Ensemble* target_;
  const core::Ensemble* success_;
  const core::Ensemble* backpressure_;
  ServiceConfig config_;
  ClusterLoadLedger ledger_;
  std::map<int64_t, Entry> entries_;
  int64_t next_id_ = 0;
  std::vector<std::pair<int64_t, dsps::QueryGraph>> pending_;
  // Workers for candidate pricing, shared with engine_ (declared first so
  // it outlives the engine).
  std::unique_ptr<common::ThreadPool> pool_;
  // Cross-request scoring state (pooled workspaces, candidate cache,
  // quantized weight snapshots). Mutable because placement decisions are
  // logically const; the service's public API is externally serialized.
  mutable std::unique_ptr<ScoringEngine> engine_;
};

}  // namespace costream::service

#endif  // COSTREAM_SERVICE_PLACEMENT_SERVICE_H_
