#include "placement/enumeration.h"
#include "placement/optimizer.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/trainer.h"
#include "dsps/query_builder.h"
#include "workload/corpus.h"

namespace costream::placement {
namespace {

sim::Cluster HeterogeneousCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({50.0, 1000.0, 25.0, 80.0});     // edge
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 40.0});   // edge
  cluster.nodes.push_back({300.0, 8000.0, 800.0, 10.0});   // fog
  cluster.nodes.push_back({400.0, 8000.0, 1600.0, 5.0});   // fog
  cluster.nodes.push_back({800.0, 32000.0, 10000.0, 1.0}); // cloud
  cluster.nodes.push_back({700.0, 24000.0, 6400.0, 2.0});  // cloud
  return cluster;
}

TEST(CapabilityBinsTest, BinsAreOrderedByCapability) {
  sim::Cluster cluster = HeterogeneousCluster();
  const std::vector<int> bins = CapabilityBins(cluster, 3);
  ASSERT_EQ(bins.size(), 6u);
  EXPECT_EQ(bins[0], 0);
  EXPECT_EQ(bins[1], 0);
  EXPECT_EQ(bins[2], 1);
  EXPECT_EQ(bins[3], 1);
  EXPECT_EQ(bins[4], 2);
  EXPECT_EQ(bins[5], 2);
}

TEST(CapabilityBinsTest, SingleNodeSingleBin) {
  sim::Cluster cluster;
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 10.0});
  EXPECT_EQ(CapabilityBins(cluster, 3), std::vector<int>{0});
}

TEST(PlacementRulesTest, AllOnOneNodeConforms) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(1);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kTwoWayJoin, rng);
  sim::Cluster cluster = HeterogeneousCluster();
  sim::Placement placement(q.num_operators(), 4);
  EXPECT_EQ(CheckPlacementRules(q, cluster, placement), "");
}

TEST(PlacementRulesTest, DecreasingBinViolatesRule2) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(2);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  sim::Cluster cluster = HeterogeneousCluster();
  // Source on the cloud node, everything downstream on an edge node.
  sim::Placement placement(q.num_operators(), 0);
  placement[q.Sources()[0]] = 4;
  EXPECT_NE(CheckPlacementRules(q, cluster, placement), "");
}

TEST(PlacementRulesTest, ReturningToAVisitedNodeViolatesRule3) {
  // Chain source -> filter -> sink placed 2 -> 4 -> 2: data returns to 2.
  dsps::QueryBuilder b;
  auto s = b.Source(100.0, {dsps::DataType::kInt});
  auto f = b.Filter(s, dsps::FilterFunction::kLess, dsps::DataType::kInt, 0.5);
  const dsps::QueryGraph q = b.Sink(f);
  sim::Cluster cluster = HeterogeneousCluster();
  sim::Placement placement = {2, 4, 2};
  EXPECT_NE(CheckPlacementRules(q, cluster, placement), "");
}

// Property: every sampled candidate conforms to the rules, across templates
// and seeds.
class EnumerationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EnumerationPropertyTest, AllCandidatesConform) {
  const auto [template_index, seed] = GetParam();
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(100 + seed);
  const auto template_kind =
      static_cast<workload::QueryTemplate>(template_index);
  const dsps::QueryGraph q = generator.Generate(template_kind, rng);
  sim::Cluster cluster = HeterogeneousCluster();

  EnumerationConfig config;
  config.num_candidates = 30;
  config.seed = seed;
  const std::vector<sim::Placement> candidates =
      EnumerateCandidates(q, cluster, config);
  EXPECT_FALSE(candidates.empty());
  for (const sim::Placement& p : candidates) {
    EXPECT_EQ(CheckPlacementRules(q, cluster, p), "")
        << "template " << template_index << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TemplatesAndSeeds, EnumerationPropertyTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 5)));

TEST(EnumerationTest, CandidatesAreDistinct) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(3);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  sim::Cluster cluster = HeterogeneousCluster();
  EnumerationConfig config;
  config.num_candidates = 20;
  const auto candidates = EnumerateCandidates(q, cluster, config);
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      EXPECT_NE(candidates[i], candidates[j]);
    }
  }
}

TEST(EnumerationTest, SingleNodeClusterStillEnumerates) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(4);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 8000.0, 1000.0, 5.0});
  EnumerationConfig config;
  config.num_candidates = 10;
  const auto candidates = EnumerateCandidates(q, cluster, config);
  ASSERT_EQ(candidates.size(), 1u);
  for (int node : candidates[0]) EXPECT_EQ(node, 0);
}

// The enumeration loop as it was first written: sample, rule-check every
// sample, drop duplicates, in blocks of num_candidates. EnumerateCandidates
// must return exactly these lists however it organises the work.
std::vector<sim::Placement> ReferenceEnumerate(
    const dsps::QueryGraph& query, const sim::Cluster& cluster,
    const EnumerationConfig& config) {
  nn::Rng rng(config.seed);
  const std::vector<int> bins = CapabilityBins(cluster, config.num_bins);
  std::set<sim::Placement> seen;
  std::vector<sim::Placement> result;
  const int attempts = config.num_candidates * 8;
  const int block = config.num_candidates;
  for (int done = 0; done < attempts && static_cast<int>(result.size()) <
                                            config.num_candidates;
       done += block) {
    std::vector<sim::Placement> sampled;
    for (int i = 0; i < std::min(block, attempts - done); ++i) {
      sampled.push_back(SamplePlacement(query, cluster, bins, rng));
    }
    for (const sim::Placement& p : sampled) {
      if (static_cast<int>(result.size()) >= config.num_candidates) break;
      if (!CheckPlacementRules(query, cluster, p, config.num_bins).empty()) {
        continue;
      }
      if (seen.insert(p).second) result.push_back(p);
    }
  }
  if (result.empty()) {
    int strongest = 0;
    for (int n = 1; n < cluster.num_nodes(); ++n) {
      if (sim::CapabilityScore(cluster.nodes[n]) >
          sim::CapabilityScore(cluster.nodes[strongest])) {
        strongest = n;
      }
    }
    result.emplace_back(query.num_operators(), strongest);
  }
  return result;
}

TEST(EnumerationTest, MatchesReferenceLoopOnSmallClusters) {
  workload::GeneratorConfig gc;
  gc.min_cluster_nodes = 2;
  gc.max_cluster_nodes = 8;
  const workload::QueryGenerator generator(gc);
  nn::Rng rng(5150);
  constexpr int kQueries = 1200;
  for (int q = 0; q < kQueries; ++q) {
    const dsps::QueryGraph query =
        generator.Generate(static_cast<workload::QueryTemplate>(q % 4), rng);
    const sim::Cluster cluster = generator.GenerateCluster(rng);
    EnumerationConfig config;
    config.num_candidates = 1 + q % 12;
    config.num_bins = q % 2 == 0 ? 3 : 1;
    config.seed = static_cast<uint64_t>(q) * 7919 + 3;
    config.num_threads = 1 + q % 3;
    ASSERT_EQ(EnumerateCandidates(query, cluster, config),
              ReferenceEnumerate(query, cluster, config))
        << "query " << q;
  }
}

// Two join branches crossing between two equal nodes: when one branch goes
// from node 0 to node 1 (source, then window) and the other from 1 to 0,
// every node is forbidden to the join and the sampler falls back to
// co-locating it with a sender, which returns data to a node the other
// branch has left (rule 3).
TEST(EnumerationTest, DropsRuleBreakingFallbackSamples) {
  dsps::QueryBuilder b;
  auto left = b.Source(100.0, {dsps::DataType::kInt});
  auto right = b.Source(100.0, {dsps::DataType::kInt});
  dsps::WindowSpec window;
  auto joined = b.WindowedJoin(left, right, window, dsps::DataType::kInt, 0.1);
  const dsps::QueryGraph q = b.Sink(joined);
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 8000.0, 1000.0, 5.0});
  cluster.nodes.push_back({400.0, 8000.0, 1000.0, 5.0});

  EnumerationConfig config;
  config.num_candidates = 6;
  config.num_bins = 1;
  config.seed = 17;
  // The enumeration's own sample stream contains rule-breaking samples.
  nn::Rng rng(config.seed);
  const std::vector<int> bins = CapabilityBins(cluster, config.num_bins);
  std::vector<sim::Placement> breaking;
  for (int i = 0; i < config.num_candidates * 8; ++i) {
    sim::Placement p = SamplePlacement(q, cluster, bins, rng);
    if (!CheckPlacementRules(q, cluster, p, config.num_bins).empty()) {
      breaking.push_back(std::move(p));
    }
  }
  ASSERT_FALSE(breaking.empty());

  for (int threads = 1; threads <= 3; ++threads) {
    config.num_threads = threads;
    const std::vector<sim::Placement> candidates =
        EnumerateCandidates(q, cluster, config);
    EXPECT_EQ(candidates, ReferenceEnumerate(q, cluster, config));
    for (const sim::Placement& p : candidates) {
      EXPECT_EQ(CheckPlacementRules(q, cluster, p, config.num_bins), "");
      EXPECT_EQ(std::count(breaking.begin(), breaking.end(), p), 0);
    }
  }
}

// Node indices of every placement appended, hashed in order (FNV-1a 64).
class PlacementDigest {
 public:
  void Add(const sim::Placement& p) {
    values_.push_back(static_cast<int64_t>(p.size()));
    for (int node : p) values_.push_back(node);
  }
  void Add(const std::vector<sim::Placement>& list) {
    values_.push_back(static_cast<int64_t>(list.size()));
    for (const sim::Placement& p : list) Add(p);
  }
  uint64_t Value() const {
    return common::Fnv1a64(values_.data(), values_.size() * sizeof(int64_t));
  }

 private:
  std::vector<int64_t> values_;
};

// Golden digests of candidate lists and sampler draws on generated queries
// of every template. Cluster sizes straddle the 64-node word boundary of a
// node bitset; every list must also be independent of the thread count.
TEST(EnumerationTest, ListsAndDrawsAreBitwiseStable) {
  PlacementDigest lists;
  PlacementDigest draws;
  nn::Rng rng(2024);
  for (const int nodes : {2, 3, 5, 8, 24, 63, 64, 65, 100}) {
    workload::GeneratorConfig gc;
    gc.min_cluster_nodes = nodes;
    gc.max_cluster_nodes = nodes;
    const workload::QueryGenerator generator(gc);
    for (int t = 0; t < 8; ++t) {
      const dsps::QueryGraph query =
          generator.Generate(static_cast<workload::QueryTemplate>(t % 4), rng);
      const sim::Cluster cluster = generator.GenerateCluster(rng);
      for (const int num_bins : {1, 3}) {
        const std::vector<int> bins = CapabilityBins(cluster, num_bins);
        nn::Rng sampler(static_cast<uint64_t>(nodes * 100 + t * 10 + num_bins));
        for (int i = 0; i < 6; ++i) {
          draws.Add(SamplePlacement(query, cluster, bins, sampler));
        }
        EnumerationConfig config;
        config.num_candidates = 4 << (t % 3);
        config.num_bins = num_bins;
        config.seed = static_cast<uint64_t>(nodes * 31 + t);
        std::vector<sim::Placement> serial;
        for (int threads = 1; threads <= 3; ++threads) {
          config.num_threads = threads;
          const std::vector<sim::Placement> list =
              EnumerateCandidates(query, cluster, config);
          if (threads == 1) serial = list;
          EXPECT_EQ(list, serial) << nodes << " nodes, threads " << threads;
          lists.Add(list);
        }
      }
    }
  }
  EXPECT_EQ(lists.Value(), 0x8044ed4d462f9a5aull) << std::hex << lists.Value();
  EXPECT_EQ(draws.Value(), 0x42edcfc51e36451dull) << std::hex << draws.Value();
}

// A stub regression model: the optimizer's behavior is tested against a
// quickly trained tiny model (the full-quality path is covered by the
// integration test and benches).
core::Ensemble TinyTargetEnsemble(const std::vector<workload::TraceRecord>& records) {
  core::CostModelConfig config;
  config.hidden_dim = 8;
  core::Ensemble ensemble(config, 1);
  auto samples =
      workload::ToTrainSamples(records, sim::Metric::kProcessingLatency);
  core::TrainConfig tc;
  tc.epochs = 3;
  ensemble.Train(samples, {}, tc);
  return ensemble;
}

TEST(OptimizerTest, ReturnsValidRuleConformingPlacement) {
  workload::CorpusConfig cc;
  cc.num_queries = 60;
  cc.seed = 5;
  const auto records = workload::BuildCorpus(cc);
  core::Ensemble target = TinyTargetEnsemble(records);

  PlacementOptimizer optimizer(&target, nullptr, nullptr);
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(6);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  sim::Cluster cluster = HeterogeneousCluster();
  OptimizerConfig config;
  config.enumeration.num_candidates = 20;
  const OptimizerResult result = optimizer.Optimize(q, cluster, config);
  EXPECT_EQ(CheckPlacementRules(q, cluster, result.best), "");
  EXPECT_GT(result.candidates_evaluated, 0);
}

TEST(OptimizerTest, PicksCandidateWithLowestPredictedCost) {
  workload::CorpusConfig cc;
  cc.num_queries = 60;
  cc.seed = 7;
  const auto records = workload::BuildCorpus(cc);
  core::Ensemble target = TinyTargetEnsemble(records);

  PlacementOptimizer optimizer(&target, nullptr, nullptr);
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(8);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  sim::Cluster cluster = HeterogeneousCluster();
  OptimizerConfig config;
  config.enumeration.num_candidates = 15;
  config.enumeration.seed = 9;
  const OptimizerResult result = optimizer.Optimize(q, cluster, config);

  // Re-enumerate with the same seed: the chosen placement must be the
  // argmin of the predictions.
  const auto candidates = EnumerateCandidates(q, cluster, config.enumeration);
  double best = std::numeric_limits<double>::infinity();
  sim::Placement best_placement;
  for (const auto& candidate : candidates) {
    const double cost = optimizer.PredictTarget(q, cluster, candidate);
    if (cost < best) {
      best = cost;
      best_placement = candidate;
    }
  }
  EXPECT_EQ(result.best, best_placement);
  EXPECT_NEAR(result.predicted_cost, best, 1e-9);
}

TEST(OptimizerTest, ThroughputTargetMaximizes) {
  workload::CorpusConfig cc;
  cc.num_queries = 60;
  cc.seed = 10;
  const auto records = workload::BuildCorpus(cc);
  core::CostModelConfig mc;
  mc.hidden_dim = 8;
  core::Ensemble target(mc, 1);
  auto samples = workload::ToTrainSamples(records, sim::Metric::kThroughput);
  core::TrainConfig tc;
  tc.epochs = 3;
  target.Train(samples, {}, tc);

  PlacementOptimizer optimizer(&target, nullptr, nullptr);
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(11);
  const dsps::QueryGraph q =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  sim::Cluster cluster = HeterogeneousCluster();
  OptimizerConfig config;
  config.target = sim::Metric::kThroughput;
  config.enumeration.num_candidates = 15;
  const OptimizerResult result = optimizer.Optimize(q, cluster, config);

  const auto candidates = EnumerateCandidates(q, cluster, config.enumeration);
  for (const auto& candidate : candidates) {
    EXPECT_LE(optimizer.PredictTarget(q, cluster, candidate),
              result.predicted_cost + 1e-9);
  }
}

TEST(OptimizerDeathTest, RejectsClassificationTarget) {
  core::CostModelConfig mc;
  mc.head = core::HeadKind::kClassification;
  core::Ensemble classifier(mc, 1);
  EXPECT_DEATH(PlacementOptimizer(&classifier, nullptr, nullptr),
               "COSTREAM_CHECK");
}

}  // namespace
}  // namespace costream::placement
