#include "core/model.h"

#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "core/trainer.h"
#include "dsps/query_builder.h"

namespace costream::core {
namespace {

using dsps::DataType;
using dsps::FilterFunction;
using dsps::QueryBuilder;
using dsps::QueryGraph;

QueryGraph SmallQuery(double rate, double sel) {
  QueryBuilder b;
  auto s = b.Source(rate, {DataType::kInt, DataType::kInt});
  auto f = b.Filter(s, FilterFunction::kLess, DataType::kInt, sel);
  return b.Sink(f);
}

sim::Cluster SmallCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 10.0});
  cluster.nodes.push_back({800.0, 32000.0, 10000.0, 1.0});
  return cluster;
}

JointGraph SmallGraph(double rate = 800.0, double sel = 0.5,
                      FeaturizationMode mode = FeaturizationMode::kFull) {
  return BuildJointGraph(SmallQuery(rate, sel), SmallCluster(), {0, 1, 1},
                         mode);
}

TEST(CostModelTest, ForwardProducesScalar) {
  CostModel model(CostModelConfig{});
  nn::Tape tape;
  nn::Var out = model.Forward(tape, SmallGraph());
  EXPECT_EQ(tape.value(out).rows(), 1);
  EXPECT_EQ(tape.value(out).cols(), 1);
  EXPECT_TRUE(std::isfinite(tape.value(out)(0, 0)));
}

TEST(CostModelTest, RegressionPredictionNonNegative) {
  CostModel model(CostModelConfig{});
  EXPECT_GE(model.Predict(SmallGraph()), 0.0);
}

TEST(CostModelTest, ProbabilityInUnitInterval) {
  CostModelConfig config;
  config.head = HeadKind::kClassification;
  CostModel model(config);
  const double p = model.Predict(SmallGraph());
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(CostModelTest, DifferentSeedsGiveDifferentPredictions) {
  CostModelConfig a;
  a.seed = 1;
  CostModelConfig b;
  b.seed = 2;
  CostModel ma(a), mb(b);
  EXPECT_NE(ma.Predict(SmallGraph()), mb.Predict(SmallGraph()));
}

TEST(CostModelTest, SameSeedIsDeterministic) {
  CostModelConfig config;
  config.seed = 5;
  CostModel a(config), b(config);
  EXPECT_EQ(a.Predict(SmallGraph()), b.Predict(SmallGraph()));
}

TEST(CostModelTest, PredictionDependsOnPlacement) {
  CostModel model(CostModelConfig{});
  QueryGraph q = SmallQuery(800.0, 0.5);
  sim::Cluster cluster = SmallCluster();
  const double a = model.Predict(BuildJointGraph(q, cluster, {0, 0, 0}));
  const double b = model.Predict(BuildJointGraph(q, cluster, {1, 1, 1}));
  EXPECT_NE(a, b);
}

TEST(CostModelTest, OperatorsOnlyModeIgnoresPlacement) {
  CostModelConfig config;
  config.featurization = FeaturizationMode::kOperatorsOnly;
  CostModel model(config);
  QueryGraph q = SmallQuery(800.0, 0.5);
  sim::Cluster cluster = SmallCluster();
  const double a = model.Predict(BuildJointGraph(
      q, cluster, {0, 0, 0}, FeaturizationMode::kOperatorsOnly));
  const double b = model.Predict(BuildJointGraph(
      q, cluster, {1, 1, 1}, FeaturizationMode::kOperatorsOnly));
  EXPECT_EQ(a, b);
}

TEST(CostModelTest, PlacementOnlyModeSeesColocationButNotHardware) {
  CostModelConfig config;
  config.featurization = FeaturizationMode::kPlacementOnly;
  CostModel model(config);
  QueryGraph q = SmallQuery(800.0, 0.5);
  sim::Cluster cluster = SmallCluster();
  // All co-located on node 0 vs all co-located on node 1: identical joint
  // graphs because hardware features are blanked.
  const double a = model.Predict(BuildJointGraph(
      q, cluster, {0, 0, 0}, FeaturizationMode::kPlacementOnly));
  const double b = model.Predict(BuildJointGraph(
      q, cluster, {1, 1, 1}, FeaturizationMode::kPlacementOnly));
  EXPECT_EQ(a, b);
  // But spreading operators across nodes changes the structure.
  const double c = model.Predict(BuildJointGraph(
      q, cluster, {0, 1, 1}, FeaturizationMode::kPlacementOnly));
  EXPECT_NE(a, c);
}

TEST(CostModelTest, TraditionalMessagePassingDiffersFromStaged) {
  CostModelConfig staged;
  staged.seed = 3;
  CostModelConfig traditional;
  traditional.seed = 3;
  traditional.message_passing = MessagePassingMode::kTraditional;
  CostModel ms(staged), mt(traditional);
  // Compare raw model outputs (Predict clamps negatives to 0, which could
  // mask the difference for untrained models).
  const JointGraph g = SmallGraph();
  nn::Tape ta, tb;
  const double a = ta.value(ms.Forward(ta, g))(0, 0);
  const double b = tb.value(mt.Forward(tb, g))(0, 0);
  EXPECT_NE(a, b);
}

TEST(CostModelTest, SnapshotRestoreRoundTrip) {
  CostModel model(CostModelConfig{});
  const JointGraph g = SmallGraph();
  const double before = model.Predict(g);
  const auto snapshot = model.SnapshotParameters();
  // Perturb.
  model.parameters()[0]->value.Fill(0.1);
  EXPECT_NE(model.Predict(g), before);
  model.RestoreParameters(snapshot);
  EXPECT_EQ(model.Predict(g), before);
}

TEST(CostModelTest, SaveLoadRoundTrip) {
  CostModel model(CostModelConfig{});
  const JointGraph g = SmallGraph();
  const double before = model.Predict(g);
  const std::string path = ::testing::TempDir() + "/costream_model.bin";
  ASSERT_TRUE(model.Save(path));
  CostModel loaded(CostModelConfig{});
  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(loaded.Predict(g), before);
  std::remove(path.c_str());
}

TEST(CostModelTest, LoadRejectsDifferentArchitecture) {
  CostModel model(CostModelConfig{});
  const std::string path = ::testing::TempDir() + "/costream_model2.bin";
  ASSERT_TRUE(model.Save(path));
  CostModelConfig other;
  other.hidden_dim = 16;
  CostModel different(other);
  EXPECT_FALSE(different.Load(path));
  std::remove(path.c_str());
}

TEST(EnsembleTest, MembersDifferByInitialization) {
  Ensemble ensemble(CostModelConfig{}, 3);
  const JointGraph g = SmallGraph();
  const double a = ensemble.member(0).Predict(g);
  const double b = ensemble.member(1).Predict(g);
  EXPECT_NE(a, b);
}

// Every member's encoder output for every node of `graph`: the precomputed
// encodings the placement scorer hands to Ensemble::Predict.
std::vector<nn::Matrix> EncodeMembers(const Ensemble& ensemble,
                                      const JointGraph& graph) {
  std::vector<nn::Matrix> encoded;
  nn::Tape tape;
  nn::Matrix row;
  for (int m = 0; m < ensemble.size(); ++m) {
    const CostModel& model = ensemble.member(m);
    nn::Matrix& out = encoded.emplace_back(
        static_cast<int>(graph.nodes.size()), model.config().hidden_dim);
    for (int v = 0; v < out.rows(); ++v) {
      model.EncodeFeatures(graph.nodes[v].kind, {&graph.nodes[v].features},
                           tape, row);
      std::copy_n(row.data(), out.cols(), out.row(v));
    }
  }
  return encoded;
}

// The ensemble sums in member order, as this test does, so every form of
// the call (plain, with a scratch, with a plan plus encodings) must give
// exactly the same bits.
TEST(EnsembleTest, RegressionPredictionIsMean) {
  Ensemble ensemble(CostModelConfig{}, 3);
  const JointGraph g = SmallGraph();
  double mean = 0.0;
  for (int i = 0; i < 3; ++i) mean += ensemble.member(i).Predict(g);
  mean /= 3.0;
  Ensemble::PredictionScratch scratch;
  ForwardPlan plan;
  ensemble.member(0).BuildForwardPlan(g, plan);
  const std::vector<nn::Matrix> encoded = EncodeMembers(ensemble, g);
  EXPECT_EQ(ensemble.Predict(g), mean);
  EXPECT_EQ(ensemble.Predict(g, &scratch), mean);
  EXPECT_EQ(ensemble.Predict(g, &scratch, &plan, &encoded), mean);
}

TEST(EnsembleTest, SaveLoadRoundTrip) {
  Ensemble ensemble(CostModelConfig{}, 2);
  const JointGraph g = SmallGraph();
  const double before = ensemble.Predict(g);
  const std::string prefix = ::testing::TempDir() + "/costream_ensemble";
  ASSERT_TRUE(ensemble.Save(prefix));
  Ensemble loaded(CostModelConfig{}, 2);
  ASSERT_TRUE(loaded.Load(prefix));
  EXPECT_EQ(loaded.Predict(g), before);
  for (int i = 0; i < 2; ++i) {
    std::remove((prefix + ".member" + std::to_string(i) + ".bin").c_str());
  }
}

TEST(EnsembleTest, LoadFailsOnMissingFiles) {
  Ensemble ensemble(CostModelConfig{}, 2);
  EXPECT_FALSE(ensemble.Load(::testing::TempDir() + "/does_not_exist"));
}

TEST(EnsembleTest, BinaryPredictionIsMajorityVote) {
  CostModelConfig config;
  config.head = HeadKind::kClassification;
  Ensemble ensemble(config, 3);
  const JointGraph g = SmallGraph();
  int votes = 0;
  for (int i = 0; i < 3; ++i) {
    if (ensemble.member(i).Predict(g) >= 0.5) ++votes;
  }
  Ensemble::PredictionScratch scratch;
  ForwardPlan plan;
  ensemble.member(0).BuildForwardPlan(g, plan);
  const std::vector<nn::Matrix> encoded = EncodeMembers(ensemble, g);
  EXPECT_EQ(ensemble.PredictBinary(g), votes >= 2);
  EXPECT_EQ(ensemble.PredictBinary(g, &scratch), votes >= 2);
  EXPECT_EQ(ensemble.PredictBinary(g, &scratch, &plan, &encoded), votes >= 2);
}

}  // namespace
}  // namespace costream::core
