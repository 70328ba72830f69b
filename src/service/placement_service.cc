#include "service/placement_service.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "placement/enumeration.h"
#include "placement/scorer.h"
#include "service/scoring_engine.h"
#include "sim/des.h"
#include "verify/interval_analysis.h"

namespace costream::service {

namespace {

// splitmix64 (same mixer as the corpus pipeline's per-record seeds): every
// enumeration seed is a pure function of (service seed, query id, iteration),
// so decisions replay bitwise from the admission history alone.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t id, uint64_t iteration) {
  return Mix64(seed ^ Mix64(id + 1) ^ Mix64((iteration + 1) << 20));
}

}  // namespace

PlacementService::PlacementService(sim::Cluster cluster,
                                   const core::Ensemble* target,
                                   const core::Ensemble* success,
                                   const core::Ensemble* backpressure,
                                   const ServiceConfig& config)
    : target_(target),
      success_(success),
      backpressure_(backpressure),
      config_(config),
      ledger_(std::move(cluster), config.ledger) {
  COSTREAM_CHECK(sim::IsRegressionMetric(config_.target));
  if (config_.policy == AdmissionPolicy::kLearned) {
    COSTREAM_CHECK(target_ != nullptr);
    COSTREAM_CHECK(target_->head() == core::HeadKind::kRegression);
  }
  if (success_ != nullptr) {
    COSTREAM_CHECK(success_->head() == core::HeadKind::kClassification);
  }
  if (backpressure_ != nullptr) {
    COSTREAM_CHECK(backpressure_->head() == core::HeadKind::kClassification);
  }
  COSTREAM_CHECK(config_.num_candidates > 0);
  COSTREAM_CHECK(config_.max_iterations > 0);
  COSTREAM_CHECK(config_.penalty_weight >= 0.0);
  if (config_.policy == AdmissionPolicy::kLearned) {
    FastPathConfig fast;
    fast.enabled = config_.fast_path;
    fast.quantized_ranking = config_.quantized_ranking;
    fast.quant_kind = config_.quant_kind;
    fast.rank_top_k = config_.rank_top_k;
    fast.rank_members = config_.rank_members;
    fast.rank_widen_rounds = config_.rank_widen_rounds;
    fast.candidate_cache = config_.candidate_cache;
    fast.num_threads = config_.num_threads;
    pool_ = std::make_unique<common::ThreadPool>(config_.num_threads);
    engine_ = std::make_unique<ScoringEngine>(target_, success_,
                                              backpressure_, fast, pool_.get());
  }
}

PlacementService::~PlacementService() = default;

PlacementService::Choice PlacementService::PlaceOne(
    const dsps::QueryGraph& query, const sim::Cluster& view,
    uint64_t salt) const {
  if (config_.policy == AdmissionPolicy::kGreedyFirstFit) {
    return PlaceGreedyFirstFit(query);
  }

  placement::EnumerationConfig ec;
  ec.num_candidates = config_.num_candidates;
  ec.num_bins = config_.num_bins;
  ec.seed = salt;
  ec.num_threads = config_.num_threads;
  const std::vector<sim::Placement> candidates =
      placement::EnumerateCandidates(query, view, ec);
  COSTREAM_CHECK(!candidates.empty());

  std::vector<std::vector<double>> ranked;
  engine_->RankRequests({&query}, {&candidates}, view, ranked);
  const std::vector<char> demoted = ProvenCrashMask(query, candidates);
  return SelectCandidates(query, view, candidates,
                          ranked.empty() ? nullptr : &ranked[0], &demoted);
}

std::vector<char> PlacementService::ProvenCrashMask(
    const dsps::QueryGraph& query,
    const std::vector<sim::Placement>& candidates) const {
  std::vector<char> mask(candidates.size(), 0);
  // Bare cluster, no background: the proof is query-intrinsic. Admitted
  // load only adds memory on top, so a candidate proven to crash when alone
  // crashes a fortiori under contention.
  const verify::QueryIntervalSummary intervals = verify::AnalyzeQueryIntervals(
      query, verify::IntervalOptions{}, nullptr);
  if (intervals.diverged || intervals.inconsistent_source) return mask;
  for (size_t i = 0; i < candidates.size(); ++i) {
    mask[i] = verify::AnalyzePlacementIntervals(query, ledger_.cluster(),
                                                candidates[i], intervals,
                                                nullptr, nullptr)
                  .proven_crash
                  ? 1
                  : 0;
  }
  return mask;
}

PlacementService::Choice PlacementService::SelectCandidates(
    const dsps::QueryGraph& query, const sim::Cluster& view,
    const std::vector<sim::Placement>& candidates,
    const std::vector<double>* ranked,
    const std::vector<char>* demoted) const {
  const bool maximize = config_.target == sim::Metric::kThroughput;
  const int n = static_cast<int>(candidates.size());

  // Proven-crash candidates rank strictly below every unproven one (in both
  // pruning modes — that invariance is what makes skipping their scores
  // decision-neutral). With pruning on they are not scored at all, unless
  // every candidate is proven to crash and one of them must be chosen.
  const bool has_mask = demoted != nullptr &&
                        static_cast<int>(demoted->size()) == n;
  auto is_demoted = [&](int i) { return has_mask && (*demoted)[i] != 0; };
  bool any_unproven = !has_mask;
  for (int i = 0; i < n && !any_unproven; ++i) {
    any_unproven = !is_demoted(i);
  }
  const bool prune = config_.interval_pruning && has_mask && any_unproven;
  std::vector<int> to_score;
  to_score.reserve(n);
  for (int i = 0; i < n; ++i) {
    if (prune && is_demoted(i)) continue;
    to_score.push_back(i);
  }
  const int m = static_cast<int>(to_score.size());
  if (m < n) {
    static obs::Counter& metric_pruned =
        obs::GetCounter("service.scoring.pruned");
    metric_pruned.Add(static_cast<uint64_t>(n - m));
  }

  // Congestion factors first: the engine's top-k pre-selection ranks under
  // the same penalized objective the final selection uses. Skipped
  // candidates need no factor either (they cannot win). Present congestion:
  // each candidate is priced with its own steady-state demand added to the
  // current ledger total, so overflow a candidate *would* cause costs
  // immediately — not only after the next repricing. The loads are kept
  // for Record; the total is read (and refreshed) before the fan-out.
  std::vector<double> factors(m);
  std::vector<sim::BackgroundLoad> loads(m);
  const sim::BackgroundLoad& total = ledger_.TotalLoad();
  pool_->ParallelFor(m, [&](int j) {
    loads[j] = sim::ComputeBackgroundLoad(query, ledger_.cluster(),
                                          candidates[to_score[j]]);
    const double price = ledger_.PlacementPenalty(loads[j], total);
    factors[j] = 1.0 + config_.penalty_weight * (price - 1.0);
  });

  // Batched scoring against the load-adjusted view, exactly like the one-shot
  // optimizer: per-candidate slots, selection in enumeration order, so the
  // decision is identical for every thread count.
  static const std::vector<double> kNoRank;
  std::vector<sim::Placement> subset;
  std::vector<double> subset_ranked;
  const std::vector<sim::Placement>* to_score_candidates = &candidates;
  const std::vector<double>* to_score_ranked =
      ranked != nullptr ? ranked : &kNoRank;
  if (m < n) {
    subset.reserve(m);
    for (int j = 0; j < m; ++j) subset.push_back(candidates[to_score[j]]);
    to_score_candidates = &subset;
    if (ranked != nullptr && static_cast<int>(ranked->size()) == n) {
      subset_ranked.reserve(m);
      for (int j = 0; j < m; ++j) subset_ranked.push_back((*ranked)[to_score[j]]);
      to_score_ranked = &subset_ranked;
    }
  }
  const ScoringEngine::ScoreResult result = engine_->ScoreRequest(
      query, view, *to_score_candidates, factors, maximize, *to_score_ranked);
  const std::vector<placement::PlacementScorer::CandidateScore>& scored =
      result.scored;

  Choice choice;
  choice.candidates_evaluated = n;
  // Four preference tiers: unproven-feasible > unproven-any >
  // demoted-feasible > demoted-any. "Any" ranges over every scored candidate
  // of the tier, so with an all-false mask this reduces exactly to the
  // original best-feasible-else-best-any selection.
  constexpr int kTiers = 4;
  const double worst = maximize ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
  double best[kTiers] = {worst, worst, worst, worst};
  int best_idx[kTiers] = {-1, -1, -1, -1};
  std::vector<double> penalized(m);
  for (int j = 0; j < m; ++j) {
    // The quantized tier may have skipped candidates outside the re-scored
    // top-k; they have no full-precision score and never win. When none of
    // the scored head was feasible the engine widened down the ranked order
    // until the widening budget ran out, so best-any here ranges over that
    // scored head — the exact best-any only under a negative
    // rank_widen_rounds (unbounded widening scans the full list).
    if (!result.have_full[j]) continue;
    // Negotiated congestion: the learned prediction is repriced by the
    // penalties of the nodes the candidate uses. Minimized metrics get more
    // expensive on contended nodes, maximized ones less attractive.
    penalized[j] =
        maximize ? scored[j].cost / factors[j] : scored[j].cost * factors[j];
    const int base = is_demoted(to_score[j]) ? 2 : 0;
    const bool better_any =
        maximize ? penalized[j] > best[base + 1] : penalized[j] < best[base + 1];
    if (better_any || best_idx[base + 1] < 0) {
      best[base + 1] = penalized[j];
      best_idx[base + 1] = j;
    }
    if (!scored[j].feasible) continue;
    const bool better =
        maximize ? penalized[j] > best[base] : penalized[j] < best[base];
    if (better || best_idx[base] < 0) {
      best[base] = penalized[j];
      best_idx[base] = j;
    }
  }
  int tier = 0;
  while (tier < kTiers - 1 && best_idx[tier] < 0) ++tier;
  const int chosen = best_idx[tier];
  choice.placement = candidates[to_score[chosen]];
  choice.predicted = scored[chosen].cost;
  choice.penalized = penalized[chosen];
  choice.feasible = tier == 0 || tier == 2;
  choice.load = std::move(loads[chosen]);
  return choice;
}

PlacementService::Choice PlacementService::PlaceGreedyFirstFit(
    const dsps::QueryGraph& query) const {
  const sim::Cluster& cluster = ledger_.cluster();
  const sim::BackgroundLoad& total = ledger_.TotalLoad();
  const double margin = config_.ledger.capacity_margin;

  Choice choice;
  choice.feasible = false;
  int fallback = 0;
  double fallback_util = std::numeric_limits<double>::infinity();
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const sim::Placement all_on_n(query.num_operators(), n);
    sim::BackgroundLoad extra =
        sim::ComputeBackgroundLoad(query, cluster, all_on_n);
    const sim::NodeCapacity cap = sim::CapacityOf(cluster.nodes[n]);
    double cpu = extra.cpu_load_us[n];
    double net = extra.out_bytes_per_s[n];
    double mem = extra.memory_mb[n];
    if (!total.empty()) {
      cpu += total.cpu_load_us[n];
      net += total.out_bytes_per_s[n];
      mem += total.memory_mb[n];
    }
    const double util =
        std::max({cpu / cap.cpu_us_per_s, net / cap.net_bytes_per_s,
                  mem / std::max(cap.ram_mb, 1.0)});
    if (util <= margin) {
      choice.placement = all_on_n;
      choice.feasible = true;
      choice.candidates_evaluated = n + 1;
      choice.load = std::move(extra);
      return choice;
    }
    if (util < fallback_util) {
      fallback_util = util;
      fallback = n;
    }
  }
  // Nothing fits: least-loaded node (first-fit semantics still deterministic).
  choice.placement.assign(query.num_operators(), fallback);
  choice.candidates_evaluated = cluster.num_nodes();
  choice.load = sim::ComputeBackgroundLoad(query, cluster, choice.placement);
  return choice;
}

AdmitResult PlacementService::Record(int64_t id, const dsps::QueryGraph& query,
                                     const Choice& choice) {
  static obs::Counter& metric_admissions =
      obs::GetCounter("service.admissions");
  static obs::Gauge& metric_live = obs::GetGauge("service.live_queries");
  ledger_.Admit(id, choice.load);
  entries_.emplace(id, Entry{query, choice.placement});
  metric_admissions.Increment();
  metric_live.Set(static_cast<double>(ledger_.live_queries()));
  AdmitResult result;
  result.id = id;
  result.placement = choice.placement;
  result.predicted = choice.predicted;
  result.penalized = choice.penalized;
  result.feasible = choice.feasible;
  result.candidates_evaluated = choice.candidates_evaluated;
  return result;
}

AdmitResult PlacementService::Admit(const dsps::QueryGraph& query) {
  static obs::Histogram& metric_admit_us =
      obs::GetHistogram("service.admit_us");
  obs::ScopedTimer timer(metric_admit_us);
  const int64_t id = next_id_++;
  const sim::Cluster view = ledger_.LoadedView();
  const Choice choice =
      PlaceOne(query, view, DeriveSeed(config_.seed, id, 0));
  return Record(id, query, choice);
}

int64_t PlacementService::AdmitAsync(const dsps::QueryGraph& query) {
  static obs::Counter& metric_enqueued =
      obs::GetCounter("service.async_admissions_enqueued");
  const int64_t id = next_id_++;
  pending_.emplace_back(id, query);
  metric_enqueued.Increment();
  return id;
}

std::vector<AdmitResult> PlacementService::DrainAdmissions() {
  static obs::Histogram& metric_batch =
      obs::GetHistogram("service.async_drain_batch");
  static obs::Histogram& metric_drain_us =
      obs::GetHistogram("service.async_drain_us");
  std::vector<AdmitResult> results;
  if (pending_.empty()) return results;
  obs::ScopedTimer timer(metric_drain_us);
  metric_batch.Record(static_cast<double>(pending_.size()));
  results.reserve(pending_.size());

  if (config_.policy == AdmissionPolicy::kGreedyFirstFit) {
    for (const auto& [id, query] : pending_) {
      results.push_back(Record(id, query, PlaceGreedyFirstFit(query)));
    }
    pending_.clear();
    return results;
  }

  // One consistent snapshot for the whole batch: every request enumerates
  // and scores against the drain-start view (a batch of one is therefore
  // bitwise identical to a synchronous Admit). Congestion penalties still
  // read the live ledger at each request's turn, so requests of one batch
  // price each other's load.
  const sim::Cluster snapshot = ledger_.LoadedView();
  std::vector<std::vector<sim::Placement>> candidates(pending_.size());
  std::vector<const dsps::QueryGraph*> queries(pending_.size());
  std::vector<const std::vector<sim::Placement>*> candidate_ptrs(
      pending_.size());
  for (size_t r = 0; r < pending_.size(); ++r) {
    placement::EnumerationConfig ec;
    ec.num_candidates = config_.num_candidates;
    ec.num_bins = config_.num_bins;
    ec.seed = DeriveSeed(config_.seed,
                         static_cast<uint64_t>(pending_[r].first), 0);
    ec.num_threads = config_.num_threads;
    candidates[r] =
        placement::EnumerateCandidates(pending_[r].second, snapshot, ec);
    COSTREAM_CHECK(!candidates[r].empty());
    queries[r] = &pending_[r].second;
    candidate_ptrs[r] = &candidates[r];
  }

  // Cross-request ranking: all same-structure requests share stage GEMMs.
  std::vector<std::vector<double>> ranked;
  engine_->RankRequests(queries, candidate_ptrs, snapshot, ranked);

  for (size_t r = 0; r < pending_.size(); ++r) {
    const std::vector<char> demoted =
        ProvenCrashMask(pending_[r].second, candidates[r]);
    const Choice choice =
        SelectCandidates(pending_[r].second, snapshot, candidates[r],
                         ranked.empty() ? nullptr : &ranked[r], &demoted);
    results.push_back(Record(pending_[r].first, pending_[r].second, choice));
  }
  pending_.clear();
  return results;
}

AdmitResult PlacementService::AdmitWithPlacement(
    const dsps::QueryGraph& query, const sim::Placement& placement) {
  COSTREAM_CHECK_MSG(
      sim::ValidatePlacement(query, ledger_.cluster(), placement).empty(),
      "invalid forced placement");
  const int64_t id = next_id_++;
  Choice choice;
  choice.placement = placement;
  choice.load = sim::ComputeBackgroundLoad(query, ledger_.cluster(), placement);
  return Record(id, query, choice);
}

bool PlacementService::Retire(int64_t id) {
  static obs::Counter& metric_retirements =
      obs::GetCounter("service.retirements");
  static obs::Gauge& metric_live = obs::GetGauge("service.live_queries");
  if (!ledger_.Retire(id)) return false;
  entries_.erase(id);
  metric_retirements.Increment();
  metric_live.Set(static_cast<double>(ledger_.live_queries()));
  return true;
}

ConvergeResult PlacementService::Converge() {
  static obs::Counter& metric_calls = obs::GetCounter("service.converge_calls");
  static obs::Counter& metric_ripups = obs::GetCounter("service.ripups");
  static obs::Counter& metric_overflow_events =
      obs::GetCounter("service.overflow_node_events");
  static obs::Histogram& metric_iterations =
      obs::GetHistogram("service.converge_iterations");
  static obs::Histogram& metric_converge_us =
      obs::GetHistogram("service.converge_us");
  metric_calls.Increment();
  obs::ScopedTimer timer(metric_converge_us);

  ConvergeResult result;
  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    // Reprice: overflowed nodes gain history, overflow counts refresh from
    // the current demand, and the escalating penalty table makes staying on
    // a contended node progressively less attractive.
    const std::vector<int> overflowed = ledger_.UpdateCongestion();
    if (overflowed.empty()) break;
    ++result.iterations;
    metric_overflow_events.Add(overflowed.size());

    std::vector<char> node_overflowed(ledger_.num_nodes(), 0);
    for (int n : overflowed) node_overflowed[n] = 1;
    // Rip up every query touching an overflowed node, ascending id (the
    // entries_ map order), and re-place each against the view without it.
    std::vector<int64_t> victims;
    for (const auto& [id, entry] : entries_) {
      for (int node : entry.placement) {
        if (node_overflowed[node]) {
          victims.push_back(id);
          break;
        }
      }
    }
    for (int64_t id : victims) {
      Entry& entry = entries_.at(id);
      ledger_.Retire(id);
      const sim::Cluster view = ledger_.LoadedView();
      const Choice choice = PlaceOne(
          entry.query, view,
          DeriveSeed(config_.seed, static_cast<uint64_t>(id), iter + 1));
      entry.placement = choice.placement;
      ledger_.Admit(id, choice.load);
      ++result.ripups;
    }
  }
  result.overflowed_nodes = ledger_.OverflowedNodes();
  result.converged = result.overflowed_nodes.empty();
  metric_ripups.Add(static_cast<uint64_t>(result.ripups));
  metric_iterations.Record(static_cast<double>(result.iterations));
  return result;
}

AggregateThroughput PlacementService::MeasureAggregateThroughput(
    int max_queries, double des_duration_s) const {
  AggregateThroughput agg;
  const std::vector<int64_t> ids = ledger_.QueryIds();
  if (ids.empty()) return agg;
  const size_t take = max_queries <= 0
                          ? ids.size()
                          : std::min(ids.size(),
                                     static_cast<size_t>(max_queries));
  for (size_t k = 0; k < take; ++k) {
    // Deterministic stride over the ascending id order.
    const int64_t id = ids[k * ids.size() / take];
    const Entry& entry = entries_.at(id);
    const sim::Cluster view = ledger_.LoadedViewExcluding(id);
    if (target_ != nullptr) {
      const placement::PlacementScorer scorer(entry.query, view, target_,
                                              nullptr, nullptr);
      placement::PlacementScorer::Workspace ws = scorer.MakeWorkspace();
      agg.predicted +=
          std::max(scorer.PredictTarget(ws, entry.placement), 0.0);
    }
    sim::DesConfig dc;
    dc.duration_s = des_duration_s;
    dc.seed = Mix64(static_cast<uint64_t>(id) + 0x5157ull);
    const sim::DesReport des =
        sim::RunDes(entry.query, view, entry.placement, dc);
    agg.des += des.metrics.throughput;
    ++agg.queries;
  }
  return agg;
}

const sim::Placement& PlacementService::PlacementOf(int64_t id) const {
  const auto it = entries_.find(id);
  COSTREAM_CHECK(it != entries_.end());
  return it->second.placement;
}

const dsps::QueryGraph& PlacementService::QueryOf(int64_t id) const {
  const auto it = entries_.find(id);
  COSTREAM_CHECK(it != entries_.end());
  return it->second.query;
}

}  // namespace costream::service
