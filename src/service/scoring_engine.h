#ifndef COSTREAM_SERVICE_SCORING_ENGINE_H_
#define COSTREAM_SERVICE_SCORING_ENGINE_H_

// Cross-request scoring fast path of the placement service. The engine owns
// everything that is worth sharing between admissions:
//
//   - per-structure pools of PlacementScorer workspaces, so two tenants with
//     the same query shape reuse each other's warm graphs, forward plans and
//     encoder caches instead of re-allocating them,
//   - a candidate score cache keyed on (query contents, loaded view,
//     canonical candidate signature): a rip-up that re-enumerates an already
//     scored placement — or a candidate using a different but
//     feature-identical node — returns the cached bits without touching the
//     model (observable via service.scoring.cache_{hits,misses}),
//   - one pooled low-precision weight snapshot (QuantizedEnsemble) per
//     target ensemble, feeding the quantized ranking tier: all candidates of
//     all same-structure requests in a batch are ranked by shared GEMMs and
//     only the top-k by penalized rank are re-scored in full precision.
//
// Determinism: ranking is single-threaded with fixed accumulation orders;
// full scoring uses per-candidate slots; cached scores are bitwise equal to
// recomputed ones (equal signatures imply element-identical joint graphs).
// Decisions therefore never depend on thread count, batch composition, or
// whether the cache is warm. With the quantized tier off, decisions are
// bitwise identical to the plain scorer path.

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/ensemble.h"
#include "dsps/query_graph.h"
#include "placement/rank_scorer.h"
#include "placement/scorer.h"
#include "sim/hardware.h"

namespace costream::common {
class ThreadPool;
}  // namespace costream::common

namespace costream::service {

struct FastPathConfig {
  // Master switch: off = fresh workspaces per request, no cache, no ranking
  // (the pre-engine behavior, bit for bit).
  bool enabled = true;
  // Rank with the low-precision tier, full-score only the top-k.
  bool quantized_ranking = false;
  nn::QuantKind quant_kind = nn::QuantKind::kInt8;
  int rank_top_k = 4;
  // Ensemble members the ranking tier snapshots (0 = all). Ranking is a
  // preselection heuristic — the decision always comes from full-precision
  // rescoring — but a member subset ranks by a different mean than the full
  // ensemble scores by, which measurably costs top-1 agreement; the default
  // keeps every member and leaves the subset as an explicit cheapness knob.
  int rank_members = 0;
  // Widening budget of the infeasible-head fallback, in doubling rounds:
  // at most rank_top_k * 2^rounds candidates get full-scored hunting for a
  // feasible one. A request that exhausts the budget resolves best-any over
  // the scored subset — the same approximation the ranking tier already
  // makes — instead of degenerating to a full scan on fully infeasible
  // requests. Negative: unbounded (exact best-any, full scan worst case).
  int rank_widen_rounds = 2;
  bool candidate_cache = true;
  // Worker threads for full-precision scoring (<= 0: all hardware threads).
  // A pool passed to the engine must have this many threads.
  int num_threads = 0;
};

class ScoringEngine {
 public:
  // Ensembles must outlive the engine; `success` / `backpressure` may be
  // null. Not thread-safe: callers (the placement service) are externally
  // serialized; internal scoring still fans out over num_threads workers.
  // Scoring runs on `pool` when given (it must outlive the engine);
  // otherwise the engine keeps a pool of its own.
  ScoringEngine(const core::Ensemble* target, const core::Ensemble* success,
                const core::Ensemble* backpressure,
                const FastPathConfig& config,
                common::ThreadPool* pool = nullptr);
  ~ScoringEngine();

  // True when the quantized ranking tier will run for this configuration.
  bool RankingActive(int num_candidates) const;

  // Ranks every request's candidates against `view` with the quantized
  // tier, batching all same-structure requests into shared GEMMs.
  // `ranked[r][c]` approximates the target prediction of request r's
  // candidate c; `ranked` is left empty when the tier is inactive. Rank
  // values for a request are bitwise independent of which other requests
  // share its batch (GEMM rows are row-independent), so a drain batch of
  // one ranks exactly like a synchronous admission. With the candidate
  // cache on, rank vectors are also memoized per (query contents, view,
  // candidate list): a rip-up re-ranking an unchanged request skips the
  // GEMMs entirely (service.scoring.rank_cache_{hits,misses}).
  void RankRequests(const std::vector<const dsps::QueryGraph*>& queries,
                    const std::vector<const std::vector<sim::Placement>*>&
                        candidates,
                    const sim::Cluster& view,
                    std::vector<std::vector<double>>& ranked);

  struct ScoreResult {
    std::vector<placement::PlacementScorer::CandidateScore> scored;
    // scored[i] is meaningful iff have_full[i]; ranking-skipped candidates
    // have neither a score nor a feasibility verdict.
    std::vector<char> have_full;
    int full_scored = 0;
  };

  // Full-precision scores for one request. With the fast path and a
  // non-empty `ranked`, only the top-k candidates by penalized rank
  // (maximize ? rank / factor : rank * factor) are scored; if none of them
  // is feasible, the scored set widens geometrically down the ranked order
  // until a feasible candidate appears or the widening budget
  // (rank_widen_rounds) runs out; an exhausted budget resolves best-any
  // over the scored head, an unbounded one (< 0) scans to the exact
  // best-any choice.
  ScoreResult ScoreRequest(const dsps::QueryGraph& query,
                           const sim::Cluster& view,
                           const std::vector<sim::Placement>& candidates,
                           const std::vector<double>& penalty_factors,
                           bool maximize, const std::vector<double>& ranked);

  const FastPathConfig& config() const { return config_; }

 private:
  struct StructurePool {
    std::vector<placement::PlacementScorer::Workspace> workspaces;
    // Candidate score cache, valid for one (query contents, view) session.
    uint64_t session_key = 0;
    bool session_valid = false;
    struct CachedScore {
      std::vector<int> signature;  // collision guard
      placement::PlacementScorer::CandidateScore score;
    };
    std::unordered_map<uint64_t, CachedScore> scores;
  };

  StructurePool& PoolFor(uint64_t structure_hash);
  const placement::QuantizedEnsemble& QuantizedTarget();

  // Scores `indices` (ascending) through the cache into `out`.
  void ScoreSubset(const placement::PlacementScorer& scorer,
                   StructurePool* pool,
                   std::vector<placement::PlacementScorer::Workspace>&
                       workspaces,
                   const std::vector<sim::Placement>& candidates,
                   const std::vector<int>& indices,
                   const std::vector<int>& host_class, ScoreResult& out);

  const core::Ensemble* target_;
  const core::Ensemble* success_;
  const core::Ensemble* backpressure_;
  FastPathConfig config_;
  std::unique_ptr<common::ThreadPool> own_pool_;  // null when one was given
  common::ThreadPool* workers_;
  std::map<uint64_t, StructurePool> pools_;
  std::unique_ptr<placement::QuantizedEnsemble> quantized_;
  // The ranking tier's batch graph, plan and float buffers, reused by the
  // fresh QuantizedRanker each structure group gets.
  placement::RankWorkspace rank_workspace_;

  // Memoized rank vectors. Keyed on a 64-bit mix of (session key, candidate
  // list hash); entries store both components and the candidate count, so a
  // hit requires a three-way match. Kept engine-wide (not per pool) because
  // drain waves interleave same-structure requests with different sessions.
  struct RankCacheEntry {
    uint64_t session = 0;
    uint64_t cand_hash = 0;
    size_t count = 0;
    std::vector<double> ranked;
  };
  std::unordered_map<uint64_t, RankCacheEntry> rank_cache_;

  // Per-call scratch.
  std::vector<int> sig_scratch_;
};

}  // namespace costream::service

#endif  // COSTREAM_SERVICE_SCORING_ENGINE_H_
