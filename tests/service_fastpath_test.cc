// End-to-end contracts of the cross-request scoring fast path:
//  * pooled workspaces + candidate cache change NO decision bits (fast path
//    on/off and cache on/off replay identical admission scripts),
//  * the async admission queue is deterministic, a batch of one is bitwise
//    identical to a synchronous Admit, and batches replay bitwise,
//  * the quantized ranking tier keeps decisions bitwise thread-count
//    independent and agrees with the full-precision path on most decisions,
//  * the candidate cache actually hits (duplicate co-location patterns and
//    feature-identical nodes are common in enumeration).
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "placement/enumeration.h"
#include "placement/rank_scorer.h"
#include "service/placement_service.h"
#include "service/scoring_engine.h"
#include "sim/geo.h"
#include "workload/corpus.h"

namespace costream::service {
namespace {

sim::Cluster FixtureCluster() {
  // Three tiers of feature-identical nodes: interchangeable-node cache hits
  // are possible by construction (as in a real edge/fog/cloud landscape).
  sim::Cluster cluster;
  for (int i = 0; i < 4; ++i) cluster.nodes.push_back({100.0, 4000.0, 50.0, 40.0});
  for (int i = 0; i < 3; ++i) cluster.nodes.push_back({300.0, 24000.0, 800.0, 10.0});
  for (int i = 0; i < 2; ++i) cluster.nodes.push_back({600.0, 48000.0, 2000.0, 2.0});
  return cluster;
}

// FixtureCluster with node 0 alone in its own region: its links cross the
// WAN, so host features carry link terms that differ from the NIC values.
sim::Cluster GeoFixtureCluster() {
  sim::Cluster cluster = FixtureCluster();
  std::vector<int> region(cluster.num_nodes(), 1);
  region[0] = 0;
  sim::ApplyGeoRegions(region, sim::GeoWanProfile{}, &cluster);
  return cluster;
}

core::Ensemble TinyThroughputEnsemble(int members = 1, int hidden_dim = 8) {
  workload::CorpusConfig cc;
  cc.num_queries = 50;
  cc.seed = 31;
  cc.duration_s = 30.0;
  const auto records = workload::BuildCorpus(cc);
  core::CostModelConfig config;
  config.hidden_dim = hidden_dim;
  core::Ensemble ensemble(config, members);
  auto samples = workload::ToTrainSamples(records, sim::Metric::kThroughput);
  core::TrainConfig tc;
  tc.epochs = 3;
  ensemble.Train(samples, {}, tc);
  return ensemble;
}

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 12;
  config.seed = 177;
  config.num_threads = 1;
  return config;
}

std::vector<dsps::QueryGraph> ScriptQueries(int count) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(515);
  std::vector<dsps::QueryGraph> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
    queries.push_back(generator.Generate(t, rng));
  }
  return queries;
}

std::vector<AdmitResult> RunSync(const core::Ensemble& target,
                                 const ServiceConfig& config,
                                 const std::vector<dsps::QueryGraph>& queries) {
  PlacementService service(FixtureCluster(), &target, nullptr, nullptr,
                           config);
  std::vector<AdmitResult> results;
  for (const dsps::QueryGraph& query : queries) {
    results.push_back(service.Admit(query));
  }
  return results;
}

void ExpectSameDecisions(const std::vector<AdmitResult>& a,
                         const std::vector<AdmitResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "admission " << i;
    EXPECT_EQ(a[i].placement, b[i].placement) << "admission " << i;
    EXPECT_EQ(a[i].predicted, b[i].predicted) << "admission " << i;
    EXPECT_EQ(a[i].penalized, b[i].penalized) << "admission " << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << "admission " << i;
  }
}

TEST(ServiceFastPathTest, FastPathOffAndOnAgreeBitwise) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(20);

  ServiceConfig off = BaseConfig();
  off.fast_path = false;
  ServiceConfig on = BaseConfig();
  on.fast_path = true;
  on.candidate_cache = true;
  // Quantized ranking stays off: with only pooling and caching active the
  // fast path must not move a single decision bit.
  ExpectSameDecisions(RunSync(target, off, queries),
                      RunSync(target, on, queries));
}

TEST(ServiceFastPathTest, CandidateCacheOnOffAgreeBitwise) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(20);

  ServiceConfig cached = BaseConfig();
  cached.candidate_cache = true;
  ServiceConfig uncached = BaseConfig();
  uncached.candidate_cache = false;
  ExpectSameDecisions(RunSync(target, cached, queries),
                      RunSync(target, uncached, queries));
}

TEST(ServiceFastPathTest, CandidateCacheHitsOnInterchangeableAndRepeat) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const sim::Cluster cluster = FixtureCluster();
  FastPathConfig fast;
  fast.enabled = true;
  fast.candidate_cache = true;
  fast.num_threads = 1;
  ScoringEngine engine(&target, nullptr, nullptr, fast);

  const dsps::QueryGraph query = ScriptQueries(1)[0];
  const int n_ops = query.num_operators();
  std::vector<sim::Placement> candidates;
  candidates.push_back(sim::Placement(n_ops, 0));  // all ops on edge node 0
  candidates.push_back(sim::Placement(n_ops, 1));  // feature-identical node
  candidates.push_back(sim::Placement(n_ops, 7));  // different class (cloud)
  const std::vector<double> factors(candidates.size(), 1.0);

  obs::Counter& hits = obs::GetCounter("service.scoring.cache_hits");
  obs::Counter& misses = obs::GetCounter("service.scoring.cache_misses");
  const uint64_t hits0 = hits.Value();
  const uint64_t misses0 = misses.Value();

  // Candidate 1 places on a node bit-identical to candidate 0's: it never
  // reaches the model and returns candidate 0's exact bits.
  const ScoringEngine::ScoreResult first =
      engine.ScoreRequest(query, cluster, candidates, factors, true, {});
  EXPECT_EQ(hits.Value() - hits0, 1u);
  EXPECT_EQ(misses.Value() - misses0, 2u);
  EXPECT_EQ(first.scored[0].cost, first.scored[1].cost);
  EXPECT_EQ(first.scored[0].feasible, first.scored[1].feasible);

  // Re-scoring the same request (rip-up against an unchanged view) is pure
  // cache: no new misses, bitwise-identical scores.
  const ScoringEngine::ScoreResult second =
      engine.ScoreRequest(query, cluster, candidates, factors, true, {});
  EXPECT_EQ(hits.Value() - hits0, 4u);
  EXPECT_EQ(misses.Value() - misses0, 2u);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(first.scored[i].cost, second.scored[i].cost) << i;
    EXPECT_EQ(first.scored[i].feasible, second.scored[i].feasible) << i;
  }
}

// Host features carry the mean outgoing link bandwidth and latency, so on a
// link-matrix cluster two nodes with equal NIC profiles are not
// interchangeable: node 0 sits alone in its region, node 1 does not. The
// cache must never hand one the other's score.
TEST(ServiceFastPathTest, CandidateCacheKeysOnLinkFeatures) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const sim::Cluster cluster = GeoFixtureCluster();
  const dsps::QueryGraph query = ScriptQueries(1)[0];
  const int n_ops = query.num_operators();
  const std::vector<sim::Placement> candidates = {sim::Placement(n_ops, 0),
                                                  sim::Placement(n_ops, 1)};
  const std::vector<double> factors(candidates.size(), 1.0);
  const auto score = [&](bool candidate_cache) {
    FastPathConfig fast;
    fast.candidate_cache = candidate_cache;
    fast.num_threads = 1;
    ScoringEngine engine(&target, nullptr, nullptr, fast);
    return engine.ScoreRequest(query, cluster, candidates, factors, true, {});
  };
  const ScoringEngine::ScoreResult cached = score(true);
  const ScoringEngine::ScoreResult fresh = score(false);
  EXPECT_NE(fresh.scored[0].cost, fresh.scored[1].cost);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(cached.scored[i].cost, fresh.scored[i].cost) << i;
    EXPECT_EQ(cached.scored[i].feasible, fresh.scored[i].feasible) << i;
  }
}

TEST(ServiceFastPathTest, AsyncBatchOfOneMatchesSynchronousAdmit) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(12);
  const ServiceConfig config = BaseConfig();

  const std::vector<AdmitResult> sync = RunSync(target, config, queries);

  PlacementService service(FixtureCluster(), &target, nullptr, nullptr,
                           config);
  std::vector<AdmitResult> async;
  for (const dsps::QueryGraph& query : queries) {
    const int64_t ticket = service.AdmitAsync(query);
    EXPECT_EQ(service.pending_admissions(), 1);
    const std::vector<AdmitResult> drained = service.DrainAdmissions();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].id, ticket);
    async.push_back(drained[0]);
  }
  EXPECT_EQ(service.pending_admissions(), 0);
  ExpectSameDecisions(sync, async);
}

TEST(ServiceFastPathTest, AsyncBatchIsDeterministicAndFifo) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(10);

  const auto run_batched = [&](int num_threads) {
    ServiceConfig config = BaseConfig();
    config.num_threads = num_threads;
    PlacementService service(FixtureCluster(), &target, nullptr, nullptr,
                             config);
    std::vector<int64_t> tickets;
    for (const dsps::QueryGraph& query : queries) {
      tickets.push_back(service.AdmitAsync(query));
    }
    EXPECT_EQ(service.pending_admissions(),
              static_cast<int>(queries.size()));
    const std::vector<AdmitResult> results = service.DrainAdmissions();
    EXPECT_TRUE(service.DrainAdmissions().empty());
    // FIFO: results come back in submission order under submission ids.
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].id, tickets[i]);
    }
    return results;
  };

  const std::vector<AdmitResult> once = run_batched(1);
  const std::vector<AdmitResult> again = run_batched(1);
  const std::vector<AdmitResult> parallel = run_batched(4);
  ExpectSameDecisions(once, again);
  ExpectSameDecisions(once, parallel);
}

TEST(ServiceFastPathTest, QuantizedRankingIsThreadCountIndependent) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(16);

  const auto run = [&](int num_threads) {
    ServiceConfig config = BaseConfig();
    config.quantized_ranking = true;
    config.quant_kind = nn::QuantKind::kInt8;
    config.rank_top_k = 3;
    config.num_threads = num_threads;
    return RunSync(target, config, queries);
  };
  ExpectSameDecisions(run(1), run(4));
}

TEST(ServiceFastPathTest, QuantizedRankingMostlyAgreesWithFullPrecision) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(30);

  const std::vector<AdmitResult> full =
      RunSync(target, BaseConfig(), queries);
  for (const nn::QuantKind kind :
       {nn::QuantKind::kBf16, nn::QuantKind::kInt8}) {
    ServiceConfig config = BaseConfig();
    config.quantized_ranking = true;
    config.quant_kind = kind;
    config.rank_top_k = 4;
    const std::vector<AdmitResult> fast = RunSync(target, config, queries);
    ASSERT_EQ(full.size(), fast.size());
    int agree = 0;
    for (size_t i = 0; i < full.size(); ++i) {
      if (full[i].placement == fast[i].placement) ++agree;
    }
    // The hard >= 99% top-1 agreement gate runs in the bench over large
    // candidate sets; this is the unit-sized sanity floor.
    EXPECT_GE(agree, static_cast<int>(full.size() * 9) / 10)
        << ToString(kind) << ": " << agree << "/" << full.size();
  }
}

TEST(ServiceFastPathTest, QuantizedRankingReducesFullScores) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(10);
  obs::Counter& rescored =
      obs::GetCounter("service.scoring.rescored_candidates");
  obs::Counter& ranked = obs::GetCounter("service.scoring.ranked_candidates");
  const uint64_t rescored_before = rescored.Value();
  const uint64_t ranked_before = ranked.Value();
  ServiceConfig config = BaseConfig();
  config.quantized_ranking = true;
  config.rank_top_k = 3;
  RunSync(target, config, queries);
  const uint64_t ranked_delta = ranked.Value() - ranked_before;
  const uint64_t rescored_delta = rescored.Value() - rescored_before;
  EXPECT_GT(ranked_delta, 0u);
  EXPECT_GT(rescored_delta, 0u);
  // Ranking looked at every candidate; full precision touched only top-k's.
  EXPECT_LT(rescored_delta, ranked_delta);
}

// Golden digests of the quantized ranker's costs over one three-request
// batch of same-structure queries (one generated query plus two variants
// with rewritten parallelism features), for both weight kinds. Ranks are
// bit-equal across kernel tiers, so the digests pin the ranker's schedule
// and arithmetic on every machine.
TEST(ServiceFastPathTest, RankBatchCostsMatchGoldenDigests) {
  const core::Ensemble target = TinyThroughputEnsemble(2);
  const sim::Cluster cluster = FixtureCluster();
  std::vector<dsps::QueryGraph> queries(3, ScriptQueries(1)[0]);
  const int n = queries[0].num_operators();
  ASSERT_GE(n, 3);
  queries[1].mutable_op(n / 2).parallelism = 3;
  queries[2].mutable_op(n - 1).parallelism = 5;
  queries[2].mutable_op(0).parallelism = 2;

  std::vector<std::vector<sim::Placement>> candidates;
  for (size_t r = 0; r < queries.size(); ++r) {
    placement::EnumerationConfig enumeration;
    enumeration.num_candidates = 10;
    enumeration.seed = 40 + r;
    candidates.push_back(
        placement::EnumerateCandidates(queries[r], cluster, enumeration));
  }

  const auto digest = [&](nn::QuantKind kind) {
    const placement::QuantizedEnsemble weights(target, kind);
    placement::QuantizedRanker ranker(queries[0], cluster, &target, &weights);
    std::vector<placement::QuantizedRanker::Request> requests(queries.size());
    for (size_t r = 0; r < queries.size(); ++r) {
      requests[r].query_slot = r == 0 ? 0 : ranker.AddQuery(queries[r]);
      requests[r].candidates = &candidates[r];
    }
    std::vector<std::vector<double>> costs;
    ranker.RankBatch(requests, costs);
    std::vector<double> flat;
    for (size_t r = 0; r < costs.size(); ++r) {
      EXPECT_EQ(costs[r].size(), candidates[r].size());
      flat.insert(flat.end(), costs[r].begin(), costs[r].end());
    }
    // A digest over constant costs would pin nothing.
    EXPECT_NE(*std::min_element(flat.begin(), flat.end()),
              *std::max_element(flat.begin(), flat.end()));
    return common::Fnv1a64(flat.data(), flat.size() * sizeof(double));
  };
  const uint64_t int8 = digest(nn::QuantKind::kInt8);
  const uint64_t bf16 = digest(nn::QuantKind::kBf16);
  EXPECT_EQ(int8, 0x402a8069d9846c84ull) << std::hex << int8;
  EXPECT_EQ(bf16, 0x7b35bbe171a26895ull) << std::hex << bf16;
}

// The same pin at the shape the benchmarks rank: hidden 16, three members,
// four same-structure requests of 32 candidates each, on a cluster whose
// host features carry WAN link terms.
TEST(ServiceFastPathTest, RankBatchCostsMatchGoldenDigestsAtBenchShape) {
  const core::Ensemble target = TinyThroughputEnsemble(3, 16);
  const sim::Cluster cluster = GeoFixtureCluster();
  std::vector<dsps::QueryGraph> queries(4, ScriptQueries(2)[1]);
  const int n = queries[0].num_operators();
  ASSERT_GE(n, 3);
  queries[1].mutable_op(0).parallelism = 4;
  queries[2].mutable_op(n / 2).parallelism = 2;
  queries[3].mutable_op(n - 1).parallelism = 3;

  std::vector<std::vector<sim::Placement>> candidates;
  for (size_t r = 0; r < queries.size(); ++r) {
    placement::EnumerationConfig enumeration;
    enumeration.num_candidates = 32;
    enumeration.seed = 90 + r;
    candidates.push_back(
        placement::EnumerateCandidates(queries[r], cluster, enumeration));
    ASSERT_EQ(candidates.back().size(), 32u);
  }

  const auto digest = [&](nn::QuantKind kind) {
    const placement::QuantizedEnsemble weights(target, kind);
    placement::QuantizedRanker ranker(queries[0], cluster, &target, &weights);
    std::vector<placement::QuantizedRanker::Request> requests(queries.size());
    for (size_t r = 0; r < queries.size(); ++r) {
      requests[r].query_slot = r == 0 ? 0 : ranker.AddQuery(queries[r]);
      requests[r].candidates = &candidates[r];
    }
    std::vector<std::vector<double>> costs;
    ranker.RankBatch(requests, costs);
    std::vector<double> flat;
    for (const std::vector<double>& request_costs : costs) {
      flat.insert(flat.end(), request_costs.begin(), request_costs.end());
    }
    EXPECT_EQ(flat.size(), 4u * 32u);
    EXPECT_NE(*std::min_element(flat.begin(), flat.end()),
              *std::max_element(flat.begin(), flat.end()));
    return common::Fnv1a64(flat.data(), flat.size() * sizeof(double));
  };
  const uint64_t int8 = digest(nn::QuantKind::kInt8);
  const uint64_t bf16 = digest(nn::QuantKind::kBf16);
  EXPECT_EQ(int8, 0xe521c5d5d84dd1d2ull) << std::hex << int8;
  EXPECT_EQ(bf16, 0x252aa0563c1bcc55ull) << std::hex << bf16;
}

// --- Rank-widening budget boundary -------------------------------------------

// A success classifier trained on all-false labels: every candidate scores
// infeasible, forcing the widening fallback down its full path.
core::Ensemble AlwaysInfeasibleSuccessEnsemble() {
  workload::CorpusConfig cc;
  cc.num_queries = 30;
  cc.seed = 77;
  cc.duration_s = 20.0;
  auto records = workload::BuildCorpus(cc);
  for (auto& r : records) r.metrics.success = false;
  core::CostModelConfig config;
  config.hidden_dim = 8;
  config.head = core::HeadKind::kClassification;
  core::Ensemble ensemble(config, 1);
  auto samples = workload::ToTrainSamples(records, sim::Metric::kSuccess);
  core::TrainConfig tc;
  tc.epochs = 5;
  ensemble.Train(samples, {}, tc);
  return ensemble;
}

// One candidate per cluster node (all operators co-located), so candidate
// counts and score domains are exact and enumerable.
std::vector<sim::Placement> CoLocatedCandidates(const dsps::QueryGraph& query,
                                                const sim::Cluster& cluster) {
  std::vector<sim::Placement> candidates;
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    candidates.emplace_back(query.num_operators(), node);
  }
  return candidates;
}

struct WidenRun {
  ScoringEngine::ScoreResult result;
  bool ranking_was_active = false;
};

WidenRun RunWidening(const core::Ensemble& target,
                     const core::Ensemble* success, int num_candidates,
                     int rank_top_k, int rank_widen_rounds) {
  const sim::Cluster cluster = FixtureCluster();
  dsps::QueryGraph query = ScriptQueries(1)[0];
  std::vector<sim::Placement> candidates =
      CoLocatedCandidates(query, cluster);
  candidates.resize(static_cast<size_t>(num_candidates),
                    candidates.empty() ? sim::Placement{} : candidates[0]);

  FastPathConfig config;
  config.quantized_ranking = true;
  config.rank_top_k = rank_top_k;
  config.rank_widen_rounds = rank_widen_rounds;
  config.num_threads = 1;
  ScoringEngine engine(&target, success, nullptr, config);

  WidenRun run;
  run.ranking_was_active = engine.RankingActive(num_candidates);
  std::vector<std::vector<double>> ranked;
  engine.RankRequests({&query}, {&candidates}, cluster, ranked);
  const std::vector<double> rank_row =
      ranked.empty() ? std::vector<double>{} : ranked[0];
  const std::vector<double> factors(candidates.size(), 1.0);
  run.result = engine.ScoreRequest(query, cluster, candidates, factors,
                                   /*maximize=*/true, rank_row);
  return run;
}

// The documented widening budget is rank_top_k * 2^rounds full-scored
// candidates (scoring_engine.h). Regression: the pre-fix loop doubled the
// window BEFORE its first use, scoring k * (2^(r+1) - 1) — e.g. 3 where the
// budget promises 2 — on every fully infeasible list.
TEST(ServiceFastPathTest, WideningRespectsDocumentedBudget) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const core::Ensemble never = AlwaysInfeasibleSuccessEnsemble();

  // k=1, one widening round, all 9 candidates infeasible: budget 1*2^1 = 2.
  {
    const WidenRun run = RunWidening(target, &never, 9, 1, 1);
    ASSERT_TRUE(run.ranking_was_active);
    for (int i = 0; i < 9; ++i) {
      if (run.result.have_full[i]) {
        EXPECT_FALSE(run.result.scored[i].feasible);
      }
    }
    EXPECT_LE(run.result.full_scored, 2);
    EXPECT_GE(run.result.full_scored, 1);  // budget still buys a widening
  }
  // k=2, two rounds, all infeasible: budget 2*2^2 = 8 of 9.
  {
    const WidenRun run = RunWidening(target, &never, 9, 2, 2);
    ASSERT_TRUE(run.ranking_was_active);
    EXPECT_LE(run.result.full_scored, 8);
    EXPECT_GE(run.result.full_scored, 2);
  }
}

// An unbounded budget (negative rounds) must scan the whole list, resolving
// the exact best-any candidate even when nothing is feasible.
TEST(ServiceFastPathTest, UnboundedWideningScansAllCandidatesWhenInfeasible) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const core::Ensemble never = AlwaysInfeasibleSuccessEnsemble();
  const WidenRun run = RunWidening(target, &never, 9, 1, -1);
  ASSERT_TRUE(run.ranking_was_active);
  EXPECT_EQ(run.result.full_scored, 9);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(run.result.have_full[i]) << "candidate " << i;
    EXPECT_FALSE(run.result.scored[i].feasible) << "candidate " << i;
  }
}

// Boundary: a single-candidate list (and any list no longer than
// rank_top_k) never activates ranking — the lone candidate is scored in
// full precision and the request resolves.
TEST(ServiceFastPathTest, SingleCandidateListBypassesRanking) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const core::Ensemble never = AlwaysInfeasibleSuccessEnsemble();
  {
    const WidenRun run = RunWidening(target, &never, 1, 4, 2);
    EXPECT_FALSE(run.ranking_was_active);
    EXPECT_EQ(run.result.full_scored, 1);
    EXPECT_TRUE(run.result.have_full[0]);
  }
  // rank_top_k >= candidate count: same bypass, every candidate scored.
  {
    const WidenRun run = RunWidening(target, nullptr, 4, 4, 2);
    EXPECT_FALSE(run.ranking_was_active);
    EXPECT_EQ(run.result.full_scored, 4);
  }
}

// Service-level contract: an all-infeasible admission under an exhausted
// widening budget still resolves to a valid placement (best-any over the
// scored head), flagged infeasible — never a crash, never an empty result.
TEST(ServiceFastPathTest, AllInfeasibleAdmissionResolvesBestAny) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const core::Ensemble never = AlwaysInfeasibleSuccessEnsemble();
  ServiceConfig config = BaseConfig();
  config.quantized_ranking = true;
  config.rank_top_k = 1;
  config.rank_widen_rounds = 1;
  PlacementService service(FixtureCluster(), &target, &never, nullptr,
                           config);
  const std::vector<dsps::QueryGraph> queries = ScriptQueries(4);
  for (const dsps::QueryGraph& query : queries) {
    const AdmitResult result = service.Admit(query);
    EXPECT_FALSE(result.feasible);
    ASSERT_EQ(static_cast<int>(result.placement.size()),
              query.num_operators());
    for (int node : result.placement) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, FixtureCluster().num_nodes());
    }
  }
}

}  // namespace
}  // namespace costream::service
