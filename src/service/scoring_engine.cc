#include "service/scoring_engine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/featurizer.h"
#include "obs/metrics.h"

namespace costream::service {

namespace {

// FNV-1a 64; doubles hash by bit pattern so a hash-equal view is bit-equal.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t FnvMixDouble(uint64_t h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return FnvMix(h, bits);
}

// Hash over everything the joint-graph STRUCTURE depends on: operator kinds,
// dataflow edges, and the cluster size. Two queries agreeing here produce
// identically shaped graphs and forward plans for every candidate, so their
// scoring state is interchangeable (features are rebound per request).
uint64_t StructureHash(const core::JointGraph& op_graph,
                       const sim::Cluster& view) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(op_graph.nodes.size()));
  for (const core::JointNode& node : op_graph.nodes) {
    h = FnvMix(h, static_cast<uint64_t>(node.kind));
  }
  for (const auto& [from, to] : op_graph.dataflow_edges) {
    h = FnvMix(h, static_cast<uint64_t>(from));
    h = FnvMix(h, static_cast<uint64_t>(to));
  }
  h = FnvMix(h, static_cast<uint64_t>(view.num_nodes()));
  return h;
}

// Every hardware node's host features under kFull. They fix the host
// encoder's input under every featurization (kPlacementOnly blanks them to a
// constant) and include the link terms of a link-matrix view.
std::vector<std::vector<double>> ViewHostFeatures(const sim::Cluster& view) {
  std::vector<std::vector<double>> features;
  features.reserve(view.num_nodes());
  for (int i = 0; i < view.num_nodes(); ++i) {
    features.push_back(
        core::HostNodeFeatures(view, i, core::FeaturizationMode::kFull));
  }
  return features;
}

// Hash over the score-relevant CONTENTS of one (query, view) pair: operator
// feature values plus every hardware node's host features. Candidate scores
// are pure functions of this plus the candidate signature, so the cache is
// valid exactly as long as this key is.
uint64_t SessionKey(const core::JointGraph& op_graph,
                    const std::vector<std::vector<double>>& host_features) {
  uint64_t h = kFnvOffset;
  for (const core::JointNode& node : op_graph.nodes) {
    h = FnvMix(h, static_cast<uint64_t>(node.features.size()));
    for (double f : node.features) h = FnvMixDouble(h, f);
  }
  for (const std::vector<double>& node : host_features) {
    for (double f : node) h = FnvMixDouble(h, f);
  }
  return h;
}

// Equivalence classes of the view's hardware nodes: nodes with identical host
// features get the same class id (first-occurrence order). Swapping a
// candidate's node for a same-class one yields an element-identical joint
// graph, so such candidates share one cache entry ("interchangeable nodes").
void HostClasses(const std::vector<std::vector<double>>& host_features,
                 std::vector<int>& classes) {
  const int n = static_cast<int>(host_features.size());
  classes.assign(n, -1);
  std::vector<int> reps;
  for (int i = 0; i < n; ++i) {
    for (size_t c = 0; c < reps.size(); ++c) {
      if (host_features[i] == host_features[reps[c]]) {
        classes[i] = static_cast<int>(c);
        break;
      }
    }
    if (classes[i] < 0) {
      classes[i] = static_cast<int>(reps.size());
      reps.push_back(i);
    }
  }
}

// Canonical candidate signature: each operator's host number in first-use
// order (the co-location pattern, core::NumberHosts, the numbering every
// joint graph gives its host nodes) followed by each host's class. Equal
// signatures imply element-identical joint graphs under the current view,
// hence bitwise-equal scores.
void BuildSignature(const sim::Placement& placement,
                    const std::vector<int>& host_class,
                    std::vector<int>& hw_host_scratch,
                    std::vector<int>& host_hw_scratch,
                    std::vector<int>& sig) {
  sig.clear();
  host_hw_scratch.clear();
  core::NumberHosts(placement, static_cast<int>(host_class.size()),
                    hw_host_scratch, sig, host_hw_scratch);
  sig.push_back(-1);
  for (const int hw : host_hw_scratch) sig.push_back(host_class[hw]);
}

uint64_t HashSignature(const std::vector<int>& sig) {
  uint64_t h = kFnvOffset;
  for (int v : sig) {
    h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(v)));
  }
  return h;
}

obs::Counter& CacheHitCounter() {
  static obs::Counter& c = obs::GetCounter("service.scoring.cache_hits");
  return c;
}
obs::Counter& CacheMissCounter() {
  static obs::Counter& c = obs::GetCounter("service.scoring.cache_misses");
  return c;
}
obs::Counter& RankCacheHitCounter() {
  static obs::Counter& c = obs::GetCounter("service.scoring.rank_cache_hits");
  return c;
}
obs::Counter& RankCacheMissCounter() {
  static obs::Counter& c =
      obs::GetCounter("service.scoring.rank_cache_misses");
  return c;
}

// Content hash of a candidate list (placements as raw op -> node vectors).
uint64_t CandidatesHash(const std::vector<sim::Placement>& candidates) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(candidates.size()));
  for (const sim::Placement& p : candidates) {
    h = FnvMix(h, static_cast<uint64_t>(p.size()));
    for (int node : p) h = FnvMix(h, static_cast<uint64_t>(node));
  }
  return h;
}

}  // namespace

ScoringEngine::ScoringEngine(const core::Ensemble* target,
                             const core::Ensemble* success,
                             const core::Ensemble* backpressure,
                             const FastPathConfig& config,
                             common::ThreadPool* pool)
    : target_(target),
      success_(success),
      backpressure_(backpressure),
      config_(config),
      own_pool_(pool == nullptr
                    ? std::make_unique<common::ThreadPool>(config.num_threads)
                    : nullptr),
      workers_(pool == nullptr ? own_pool_.get() : pool) {
  COSTREAM_CHECK(target_ != nullptr);
  COSTREAM_CHECK(config_.rank_top_k > 0);
  COSTREAM_CHECK(workers_->num_threads() ==
                 common::ResolveNumThreads(config_.num_threads));
}

ScoringEngine::~ScoringEngine() = default;

bool ScoringEngine::RankingActive(int num_candidates) const {
  return config_.enabled && config_.quantized_ranking &&
         num_candidates > config_.rank_top_k &&
         placement::QuantizedRanker::CanRank(*target_);
}

const placement::QuantizedEnsemble& ScoringEngine::QuantizedTarget() {
  if (quantized_ == nullptr) {
    quantized_ = std::make_unique<placement::QuantizedEnsemble>(
        *target_, config_.quant_kind, config_.rank_members);
  }
  return *quantized_;
}

ScoringEngine::StructurePool& ScoringEngine::PoolFor(uint64_t structure_hash) {
  // Backstop against unbounded growth under adversarial structure churn; a
  // real service sees a handful of query shapes.
  if (pools_.size() > 64 && pools_.find(structure_hash) == pools_.end()) {
    pools_.clear();
  }
  return pools_[structure_hash];
}

void ScoringEngine::RankRequests(
    const std::vector<const dsps::QueryGraph*>& queries,
    const std::vector<const std::vector<sim::Placement>*>& candidates,
    const sim::Cluster& view, std::vector<std::vector<double>>& ranked) {
  ranked.clear();
  COSTREAM_CHECK(queries.size() == candidates.size());
  if (queries.empty()) return;
  bool any = false;
  for (const std::vector<sim::Placement>* c : candidates) {
    if (RankingActive(static_cast<int>(c->size()))) any = true;
  }
  if (!any) return;

  static obs::Counter& metric_ranked =
      obs::GetCounter("service.scoring.ranked_candidates");
  static obs::Counter& metric_batches =
      obs::GetCounter("service.scoring.rank_batches");

  ranked.resize(queries.size());
  // Group same-structure requests so their candidates share stage GEMMs
  // (std::map iteration keeps the group order deterministic). Requests whose
  // rank vector is memoized from an earlier wave never enter a group: a
  // rip-up re-ranking an unchanged (query, view, candidates) triple is pure
  // lookup. Cached and freshly computed vectors are bitwise identical (rank
  // rows are row-independent and deterministic), so memoization cannot move
  // a decision.
  const bool use_rank_cache = config_.candidate_cache;
  std::vector<uint64_t> keys(queries.size(), 0);
  std::vector<uint64_t> sessions(queries.size(), 0);
  std::vector<uint64_t> cand_hashes(queries.size(), 0);
  std::map<uint64_t, std::vector<int>> groups;
  const std::vector<std::vector<double>> host_features =
      use_rank_cache ? ViewHostFeatures(view)
                     : std::vector<std::vector<double>>{};
  for (size_t r = 0; r < queries.size(); ++r) {
    const core::JointGraph op_graph = core::BuildOperatorGraph(*queries[r]);
    if (use_rank_cache) {
      sessions[r] = SessionKey(op_graph, host_features);
      cand_hashes[r] = CandidatesHash(*candidates[r]);
      keys[r] = FnvMix(FnvMix(kFnvOffset, sessions[r]), cand_hashes[r]);
      const auto it = rank_cache_.find(keys[r]);
      if (it != rank_cache_.end() && it->second.session == sessions[r] &&
          it->second.cand_hash == cand_hashes[r] &&
          it->second.count == candidates[r]->size()) {
        ranked[r] = it->second.ranked;
        RankCacheHitCounter().Increment();
        continue;
      }
      RankCacheMissCounter().Increment();
    }
    groups[StructureHash(op_graph, view)].push_back(static_cast<int>(r));
  }

  if (use_rank_cache && rank_cache_.size() > 512) rank_cache_.clear();

  const placement::QuantizedEnsemble& weights = QuantizedTarget();
  for (const auto& [hash, members] : groups) {
    placement::QuantizedRanker ranker(*queries[members[0]], view, target_,
                                      &weights, &rank_workspace_);
    std::vector<placement::QuantizedRanker::Request> requests;
    requests.reserve(members.size());
    for (size_t j = 0; j < members.size(); ++j) {
      placement::QuantizedRanker::Request request;
      request.query_slot =
          j == 0 ? 0 : ranker.AddQuery(*queries[members[j]]);
      request.candidates = candidates[members[j]];
      requests.push_back(request);
    }
    std::vector<std::vector<double>> costs;
    ranker.RankBatch(requests, costs);
    metric_batches.Increment();
    for (size_t j = 0; j < members.size(); ++j) {
      const int r = members[j];
      metric_ranked.Add(costs[j].size());
      ranked[r] = std::move(costs[j]);
      if (use_rank_cache) {
        RankCacheEntry& entry = rank_cache_[keys[r]];
        entry.session = sessions[r];
        entry.cand_hash = cand_hashes[r];
        entry.count = candidates[r]->size();
        entry.ranked = ranked[r];
      }
    }
  }
}

void ScoringEngine::ScoreSubset(
    const placement::PlacementScorer& scorer, StructurePool* pool,
    std::vector<placement::PlacementScorer::Workspace>& workspaces,
    const std::vector<sim::Placement>& candidates,
    const std::vector<int>& indices, const std::vector<int>& host_class,
    ScoreResult& out) {
  const bool use_cache = pool != nullptr && config_.candidate_cache;
  struct Miss {
    int idx;
    uint64_t hash;
    std::vector<int> signature;
  };
  std::vector<Miss> misses;
  std::vector<Miss> dups;

  if (!use_cache) {
    misses.reserve(indices.size());
    for (int idx : indices) misses.push_back({idx, 0, {}});
  } else {
    std::vector<int> hw_host_scratch;
    std::vector<int> host_hw_scratch;
    std::unordered_map<uint64_t, size_t> seen_this_call;
    for (int idx : indices) {
      BuildSignature(candidates[idx], host_class, hw_host_scratch,
                     host_hw_scratch, sig_scratch_);
      const uint64_t hash = HashSignature(sig_scratch_);
      const auto it = pool->scores.find(hash);
      if (it != pool->scores.end() && it->second.signature == sig_scratch_) {
        out.scored[idx] = it->second.score;
        out.have_full[idx] = 1;
        CacheHitCounter().Increment();
        continue;
      }
      const auto seen = seen_this_call.find(hash);
      if (seen != seen_this_call.end() &&
          misses[seen->second].signature == sig_scratch_) {
        dups.push_back({idx, hash, sig_scratch_});
        continue;
      }
      seen_this_call.emplace(hash, misses.size());
      misses.push_back({idx, hash, sig_scratch_});
    }
  }

  if (!misses.empty()) {
    // Worker slots stay below min(pool threads, count), and the caller
    // prepared that many workspaces.
    const int count = static_cast<int>(misses.size());
    COSTREAM_CHECK(static_cast<int>(workspaces.size()) >=
                   std::min(workers_->num_threads(), count));
    workers_->ParallelForIndexed(count, [&](int worker, int k) {
      out.scored[misses[k].idx] =
          scorer.Score(workspaces[worker], candidates[misses[k].idx]);
    });
    for (const Miss& miss : misses) {
      out.have_full[miss.idx] = 1;
      if (use_cache) {
        CacheMissCounter().Increment();
        StructurePool::CachedScore& entry = pool->scores[miss.hash];
        entry.signature = miss.signature;
        entry.score = out.scored[miss.idx];
      }
    }
  }
  for (const Miss& dup : dups) {
    const auto it = pool->scores.find(dup.hash);
    COSTREAM_CHECK(it != pool->scores.end());
    out.scored[dup.idx] = it->second.score;
    out.have_full[dup.idx] = 1;
    CacheHitCounter().Increment();
  }
}

ScoringEngine::ScoreResult ScoringEngine::ScoreRequest(
    const dsps::QueryGraph& query, const sim::Cluster& view,
    const std::vector<sim::Placement>& candidates,
    const std::vector<double>& penalty_factors, bool maximize,
    const std::vector<double>& ranked) {
  const int n = static_cast<int>(candidates.size());
  ScoreResult out;
  out.scored.resize(n);
  out.have_full.assign(n, 0);
  if (n == 0) return out;
  COSTREAM_CHECK(static_cast<int>(penalty_factors.size()) == n);

  const placement::PlacementScorer scorer(query, view, target_, success_,
                                          backpressure_);
  const int threads = std::max(
      1, std::min(common::ResolveNumThreads(config_.num_threads), n));

  if (!config_.enabled) {
    // Pre-engine behavior, bit for bit: fresh workspaces, score everything.
    std::vector<placement::PlacementScorer::Workspace> workspaces;
    workspaces.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workspaces.push_back(scorer.MakeWorkspace());
    }
    workers_->ParallelForIndexed(n, [&](int worker, int i) {
      out.scored[i] = scorer.Score(workspaces[worker], candidates[i]);
    });
    std::fill(out.have_full.begin(), out.have_full.end(), 1);
    out.full_scored = n;
    return out;
  }

  const core::JointGraph op_graph = core::BuildOperatorGraph(query);
  StructurePool& pool = PoolFor(StructureHash(op_graph, view));

  const std::vector<std::vector<double>> host_features =
      ViewHostFeatures(view);
  const uint64_t session = SessionKey(op_graph, host_features);
  if (!pool.session_valid || pool.session_key != session) {
    pool.scores.clear();
    pool.session_key = session;
    pool.session_valid = true;
  }

  std::vector<int> host_class;
  HostClasses(host_features, host_class);

  // Warm per-structure workspaces: reuse (re-targeted) where they exist,
  // allocate the rest once and keep them pooled for the next tenant.
  const size_t existing =
      std::min(pool.workspaces.size(), static_cast<size_t>(threads));
  for (size_t t = 0; t < existing; ++t) {
    scorer.ResetWorkspace(pool.workspaces[t]);
  }
  while (pool.workspaces.size() < static_cast<size_t>(threads)) {
    pool.workspaces.push_back(scorer.MakeWorkspace());
  }

  const bool use_ranking = static_cast<int>(ranked.size()) == n &&
                           RankingActive(n);
  if (!use_ranking) {
    std::vector<int> all(n);
    for (int i = 0; i < n; ++i) all[i] = i;
    ScoreSubset(scorer, &pool, pool.workspaces, candidates, all, host_class,
                out);
  } else {
    static obs::Counter& metric_rescored =
        obs::GetCounter("service.scoring.rescored_candidates");
    static obs::Counter& metric_fallbacks =
        obs::GetCounter("service.scoring.rank_fallbacks");
    // Top-k by penalized rank — the same congestion-priced objective the
    // final selection uses, so an expensive-but-contended candidate cannot
    // crowd feasible cheap ones out of the re-scoring set.
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    const auto better = [&](int a, int b) {
      const double pa =
          maximize ? ranked[a] / penalty_factors[a] : ranked[a] * penalty_factors[a];
      const double pb =
          maximize ? ranked[b] / penalty_factors[b] : ranked[b] * penalty_factors[b];
      if (pa != pb) return maximize ? pa > pb : pa < pb;
      return a < b;  // deterministic tie-break: enumeration order
    };
    const int k = std::min(config_.rank_top_k, n);
    std::partial_sort(order.begin(), order.begin() + k, order.end(), better);
    std::vector<int> top(order.begin(), order.begin() + k);
    std::sort(top.begin(), top.end());
    metric_rescored.Add(static_cast<uint64_t>(k));
    ScoreSubset(scorer, &pool, pool.workspaces, candidates, top, host_class,
                out);
    bool any_feasible = false;
    for (int idx : top) any_feasible |= out.scored[idx].feasible;
    if (!any_feasible && k < n) {
      // Infeasible head: widen geometrically down the ranked order until a
      // feasible candidate appears instead of re-scoring everything — under
      // sparse feasibility the expected extra work stays O(k). The widening
      // budget bounds the damage of fully infeasible requests: once it runs
      // out the request resolves best-any over the scored head (negative
      // budget: scan to the exact full-precision best-any).
      metric_fallbacks.Increment();
      std::sort(order.begin() + k, order.end(), better);
      int covered = k;
      // Window sizes k, 2k, 4k, ...: the doubling happens AFTER a window is
      // consumed, so the cumulative full-scored total after r rounds is
      // exactly k * 2^r — the documented budget. (Doubling before the first
      // window would score k * (2^(r+1) - 1) and blow the budget on every
      // short or fully infeasible candidate list.)
      int window = k;
      int rounds_left = config_.rank_widen_rounds;
      while (!any_feasible && covered < n && rounds_left != 0) {
        if (rounds_left > 0) --rounds_left;
        const int take = std::min(window, n - covered);
        std::vector<int> next(order.begin() + covered,
                              order.begin() + covered + take);
        std::sort(next.begin(), next.end());
        metric_rescored.Add(static_cast<uint64_t>(take));
        ScoreSubset(scorer, &pool, pool.workspaces, candidates, next,
                    host_class, out);
        for (int idx : next) any_feasible |= out.scored[idx].feasible;
        covered += take;
        window *= 2;
      }
    }
  }

  for (int i = 0; i < n; ++i) out.full_scored += out.have_full[i] ? 1 : 0;
  return out;
}

}  // namespace costream::service
