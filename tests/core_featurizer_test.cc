#include "core/featurizer.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dsps/query_builder.h"

namespace costream::core {
namespace {

using dsps::DataType;
using dsps::FilterFunction;
using dsps::QueryBuilder;
using dsps::QueryGraph;

QueryGraph TwoOpQuery() {
  QueryBuilder b;
  auto s = b.Source(800.0, {DataType::kInt, DataType::kString});
  auto f = b.Filter(s, FilterFunction::kLess, DataType::kInt, 0.5);
  return b.Sink(f);
}

sim::Cluster TwoNodeCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 10.0});
  cluster.nodes.push_back({800.0, 32000.0, 10000.0, 1.0});
  return cluster;
}

TEST(NormalizationTest, TrainingGridMapsIntoUnitInterval) {
  // Boundary values of Table II map to 0 and 1.
  EXPECT_NEAR(NormalizeCpu(50.0), 0.0, 1e-9);
  EXPECT_NEAR(NormalizeCpu(800.0), 1.0, 1e-9);
  EXPECT_NEAR(NormalizeRam(1000.0), 0.0, 1e-9);
  EXPECT_NEAR(NormalizeRam(32000.0), 1.0, 1e-9);
  EXPECT_NEAR(NormalizeBandwidth(25.0), 0.0, 1e-9);
  EXPECT_NEAR(NormalizeBandwidth(10000.0), 1.0, 1e-9);
  EXPECT_NEAR(NormalizeNetworkLatency(1.0), 0.0, 1e-9);
  EXPECT_NEAR(NormalizeNetworkLatency(160.0), 1.0, 1e-9);
  EXPECT_NEAR(NormalizeCountWindow(5.0), 0.0, 1e-9);
  EXPECT_NEAR(NormalizeTimeWindow(16.0), 1.0, 1e-9);
}

TEST(NormalizationTest, OutOfRangeValuesExtrapolateBeyondUnitInterval) {
  // Extrapolation (Exp 4) relies on out-of-range features leaving [0,1]
  // smoothly rather than saturating.
  EXPECT_LT(NormalizeCpu(25.0), 0.0);
  EXPECT_GT(NormalizeCpu(1600.0), 1.0);
  EXPECT_GT(NormalizeTimeWindow(30.0), 1.0);
}

TEST(NormalizationTest, SelectivityLogScaleSeparatesSmallValues) {
  const double a = NormalizeSelectivity(1e-4);
  const double b = NormalizeSelectivity(1e-3);
  const double c = NormalizeSelectivity(1e-2);
  EXPECT_NEAR(b - a, c - b, 1e-9);  // equal steps per decade
  EXPECT_NEAR(NormalizeSelectivity(1.0), 1.0, 1e-9);
}

TEST(FeaturizerTest, FeatureDimsMatchBuiltVectors) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement = {0, 1, 1};
  const JointGraph g = BuildJointGraph(q, cluster, placement);
  for (const JointNode& node : g.nodes) {
    EXPECT_EQ(static_cast<int>(node.features.size()), FeatureDim(node.kind));
  }
}

TEST(FeaturizerTest, FullModeAddsHostNodesAndPlacementEdges) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement = {0, 1, 1};
  const JointGraph g = BuildJointGraph(q, cluster, placement);
  EXPECT_EQ(g.num_operator_nodes, 3);
  EXPECT_EQ(g.num_host_nodes, 2);  // both nodes host operators
  EXPECT_EQ(g.placement_edges.size(), 3u);
  EXPECT_EQ(g.dataflow_edges.size(), 2u);
}

TEST(FeaturizerTest, UnusedHostsAreNotMaterialized) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement = {0, 0, 0};  // node 1 unused
  const JointGraph g = BuildJointGraph(q, cluster, placement);
  EXPECT_EQ(g.num_host_nodes, 1);
}

TEST(FeaturizerTest, CoLocatedOperatorsShareHostNode) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement = {1, 1, 1};
  const JointGraph g = BuildJointGraph(q, cluster, placement);
  EXPECT_EQ(g.num_host_nodes, 1);
  const int host = g.placement_edges[0].second;
  for (const auto& [op, h] : g.placement_edges) EXPECT_EQ(h, host);
}

TEST(FeaturizerTest, OperatorsOnlyModeDropsHosts) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement = {0, 1, 1};
  const JointGraph g = BuildJointGraph(q, cluster, placement,
                                       FeaturizationMode::kOperatorsOnly);
  EXPECT_EQ(g.num_host_nodes, 0);
  EXPECT_TRUE(g.placement_edges.empty());
  EXPECT_EQ(g.nodes.size(), 3u);
}

TEST(FeaturizerTest, PlacementOnlyModeBlanksHardwareFeatures) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement = {0, 1, 1};
  const JointGraph g = BuildJointGraph(q, cluster, placement,
                                       FeaturizationMode::kPlacementOnly);
  EXPECT_EQ(g.num_host_nodes, 2);
  for (size_t i = g.num_operator_nodes; i < g.nodes.size(); ++i) {
    for (double f : g.nodes[i].features) EXPECT_EQ(f, 0.5);
  }
}

TEST(FeaturizerTest, DifferentPlacementsYieldDifferentGraphs) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  const JointGraph a = BuildJointGraph(q, cluster, {0, 0, 0});
  const JointGraph b = BuildJointGraph(q, cluster, {1, 1, 1});
  // Same shape, different host features.
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_NE(a.nodes.back().features, b.nodes.back().features);
}

TEST(FeaturizerTest, WindowFeaturesDistinguishPolicies) {
  QueryBuilder b;
  auto s = b.Source(500.0, {DataType::kDouble});
  dsps::WindowSpec count_w;
  count_w.policy = dsps::WindowPolicy::kCountBased;
  count_w.size = 40;
  auto agg = b.WindowedAggregate(s, count_w, dsps::AggregateFunction::kMean,
                                 dsps::GroupByType::kNone, DataType::kDouble,
                                 1.0);
  QueryGraph q = b.Sink(agg);
  sim::Cluster cluster = TwoNodeCluster();
  sim::Placement placement(q.num_operators(), 0);
  const JointGraph g = BuildJointGraph(q, cluster, placement);
  // Find the window node: count slot set, time slot zero.
  bool found = false;
  for (const JointNode& node : g.nodes) {
    if (node.kind != NodeKind::kWindow) continue;
    found = true;
    EXPECT_GT(node.features[4], 0.0);   // count-size slot
    EXPECT_EQ(node.features[5], 0.0);   // time-size slot
  }
  EXPECT_TRUE(found);
}

TEST(FeaturizerTest, TopoOrderCoversAllOperators) {
  QueryGraph q = TwoOpQuery();
  sim::Cluster cluster = TwoNodeCluster();
  const JointGraph g = BuildJointGraph(q, cluster, {0, 1, 1});
  EXPECT_EQ(g.topo_order.size(), 3u);
}

sim::Cluster ThreeNodeCluster() {
  sim::Cluster cluster = TwoNodeCluster();
  cluster.nodes.push_back({300.0, 8000.0, 800.0, 5.0});
  return cluster;
}

TEST(BatchGraphTest, LaysOutOperatorsThenHostsCopyByCopy) {
  const JointGraph op_graph = BuildOperatorGraph(TwoOpQuery());  // 0->1->2
  const sim::Placement a = {2, 0, 2};
  const sim::Placement b = {1, 1, 1};
  const sim::Placement c = {0, 2, 1};
  JointGraph batch;
  std::vector<int> host_hw;
  BuildBatchGraph(op_graph, {&a, &b, &c}, 3, FeaturizationMode::kFull, batch,
                  host_hw);

  EXPECT_EQ(batch.copies, 3);
  EXPECT_EQ(batch.num_operator_nodes, 9);
  EXPECT_EQ(batch.num_host_nodes, 6);
  ASSERT_EQ(batch.nodes.size(), 15u);
  // Every copy's operators first, then every copy's hosts, each copy's
  // hosts in first-use order.
  EXPECT_EQ(host_hw, (std::vector<int>{2, 0, 1, 0, 2, 1}));
  for (int v = 0; v < 15; ++v) {
    const NodeKind want = v < 9 ? op_graph.nodes[v % 3].kind : NodeKind::kHost;
    EXPECT_EQ(batch.nodes[v].kind, want) << v;
    EXPECT_TRUE(batch.nodes[v].features.empty()) << v;
  }
  const std::vector<std::pair<int, int>> placement_edges = {
      {0, 9}, {1, 10}, {2, 9}, {3, 11}, {4, 11},
      {5, 11}, {6, 12}, {7, 13}, {8, 14}};
  EXPECT_EQ(batch.placement_edges, placement_edges);
  const std::vector<std::pair<int, int>> dataflow_edges = {
      {0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}};
  EXPECT_EQ(batch.dataflow_edges, dataflow_edges);
  EXPECT_EQ(batch.topo_order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));

  // Rebuilding into the same graph replaces every part; without hosts the
  // copies are bare operator graphs.
  BuildBatchGraph(op_graph, {&a, &b}, 3, FeaturizationMode::kOperatorsOnly,
                  batch, host_hw);
  EXPECT_EQ(batch.copies, 2);
  EXPECT_EQ(batch.num_operator_nodes, 6);
  EXPECT_EQ(batch.num_host_nodes, 0);
  EXPECT_EQ(batch.nodes.size(), 6u);
  EXPECT_TRUE(batch.placement_edges.empty());
  EXPECT_TRUE(host_hw.empty());
  EXPECT_EQ(batch.dataflow_edges.size(), 4u);
}

TEST(BatchGraphTest, OneCopyMatchesBuildJointGraph) {
  const QueryGraph q = TwoOpQuery();
  const sim::Cluster cluster = ThreeNodeCluster();
  for (const sim::Placement& placement :
       {sim::Placement{2, 0, 2}, sim::Placement{1, 1, 1},
        sim::Placement{0, 2, 1}}) {
    const JointGraph g = BuildJointGraph(q, cluster, placement);
    JointGraph batch;
    std::vector<int> host_hw;
    BuildBatchGraph(BuildOperatorGraph(q), {&placement}, cluster.num_nodes(),
                    FeaturizationMode::kFull, batch, host_hw);
    EXPECT_EQ(batch.copies, 1);
    EXPECT_EQ(batch.num_operator_nodes, g.num_operator_nodes);
    EXPECT_EQ(batch.num_host_nodes, g.num_host_nodes);
    EXPECT_EQ(batch.dataflow_edges, g.dataflow_edges);
    EXPECT_EQ(batch.placement_edges, g.placement_edges);
    EXPECT_EQ(batch.topo_order, g.topo_order);
    ASSERT_EQ(batch.nodes.size(), g.nodes.size());
    for (size_t v = 0; v < g.nodes.size(); ++v) {
      EXPECT_EQ(batch.nodes[v].kind, g.nodes[v].kind) << v;
    }
    ASSERT_EQ(static_cast<int>(host_hw.size()), g.num_host_nodes);
    for (int i = 0; i < g.num_host_nodes; ++i) {
      EXPECT_EQ(g.nodes[g.num_operator_nodes + i].features,
                HostNodeFeatures(cluster, host_hw[i], FeaturizationMode::kFull))
          << i;
    }
  }
}

TEST(FeaturizerTest, NodeKindNamesAreStable) {
  EXPECT_STREQ(ToString(NodeKind::kHost), "host");
  EXPECT_STREQ(ToString(NodeKind::kAggregate), "aggregate");
}

}  // namespace
}  // namespace costream::core
