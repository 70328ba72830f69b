#include "verify/plan_rules.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/featurizer.h"
#include "core/model.h"
#include "dsps/query_builder.h"
#include "verify/placement_rules.h"
#include "verify/shape_program.h"

namespace costream::verify {
namespace {

using dsps::DataType;
using dsps::FilterFunction;
using dsps::QueryBuilder;
using dsps::QueryGraph;

int CountRule(const VerifyReport& report, std::string_view rule) {
  int n = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule == rule) ++n;
  }
  return n;
}

int AddInput(ShapeProgram& p, int rows, int cols) {
  ShapeOp op;
  op.kind = ShapeOp::Kind::kInput;
  op.rows = rows;
  op.cols = cols;
  p.ops.push_back(op);
  return static_cast<int>(p.ops.size()) - 1;
}

// --- TP*: hand-built shape programs -----------------------------------------

TEST(VerifyShapeTest, GemmInnerDimMismatchIsTP001) {
  ShapeProgram p;
  const int x = AddInput(p, 4, 3);
  ShapeOp mul;
  mul.kind = ShapeOp::Kind::kLinear;
  mul.a = x;
  mul.rows = 5;  // weight wants 5 input columns; x has 3
  mul.cols = 2;
  p.ops.push_back(mul);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeGemmMismatch), 1);
}

TEST(VerifyShapeTest, ConcatRowMismatchIsTP002) {
  ShapeProgram p;
  const int a = AddInput(p, 4, 3);
  const int b = AddInput(p, 5, 3);
  ShapeOp cat;
  cat.kind = ShapeOp::Kind::kConcatCols;
  cat.a = a;
  cat.b = b;
  p.ops.push_back(cat);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeConcatMismatch), 1);
}

TEST(VerifyShapeTest, GatherRowOutOfRangeIsTP003) {
  ShapeProgram p;
  const int x = AddInput(p, 3, 2);
  ShapeOp gather;
  gather.kind = ShapeOp::Kind::kRowGather;
  gather.a = x;
  gather.indices = {0, 3};  // 3 is past the last row
  p.ops.push_back(gather);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeGatherRange), 1);
}

TEST(VerifyShapeTest, ScatterRowOutOfRangeIsTP004) {
  ShapeProgram p;
  const int base = AddInput(p, 3, 2);
  const int update = AddInput(p, 1, 2);
  ShapeOp scatter;
  scatter.kind = ShapeOp::Kind::kRowScatter;
  scatter.a = base;
  scatter.b = update;
  scatter.indices = {5};
  p.ops.push_back(scatter);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeScatterRange), 1);
}

TEST(VerifyShapeTest, DuplicateScatterTargetIsTP004) {
  ShapeProgram p;
  const int base = AddInput(p, 3, 2);
  const int update = AddInput(p, 2, 2);
  ShapeOp scatter;
  scatter.kind = ShapeOp::Kind::kRowScatter;
  scatter.a = base;
  scatter.b = update;
  scatter.indices = {1, 1};
  p.ops.push_back(scatter);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeScatterRange), 1);
}

TEST(VerifyShapeTest, MalformedSegmentOffsetsAreTP005) {
  ShapeProgram p;
  const int x = AddInput(p, 4, 2);
  ShapeOp seg;
  seg.kind = ShapeOp::Kind::kSegmentSum;
  seg.a = x;
  seg.offsets = {0, 2, 2};  // empty second segment
  seg.children = {0, 1};
  p.ops.push_back(seg);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeSegmentMalformed), 1);
}

TEST(VerifyShapeTest, AddRowShapeMismatchIsTP006) {
  ShapeProgram p;
  const int x = AddInput(p, 4, 3);
  const int row = AddInput(p, 1, 2);  // wrong width for x
  ShapeOp add;
  add.kind = ShapeOp::Kind::kAddRow;
  add.a = x;
  add.b = row;
  p.ops.push_back(add);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeAddRowMismatch), 1);
}

TEST(VerifyShapeTest, NonScalarResultIsTP007) {
  ShapeProgram p;
  p.result = AddInput(p, 2, 2);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeResultNotScalar), 1);
}

TEST(VerifyShapeTest, ForwardOperandReferenceIsTP008) {
  ShapeProgram p;
  ShapeOp sum;
  sum.kind = ShapeOp::Kind::kSegmentSum;
  sum.a = 1;  // references a later op
  p.ops.push_back(sum);
  AddInput(p, 2, 2);
  VerifyReport report;
  InferShapes(p, &report);
  EXPECT_EQ(CountRule(report, kRuleTapeBadOperand), 1);
}

TEST(VerifyShapeTest, FailurePoisonsDependentsWithoutCascading) {
  // One real defect must yield one diagnostic, not an avalanche from every
  // downstream op whose shape became unknown.
  ShapeProgram p;
  const int x = AddInput(p, 4, 3);
  ShapeOp mul;
  mul.kind = ShapeOp::Kind::kLinear;
  mul.a = x;
  mul.rows = 7;
  mul.cols = 2;
  p.ops.push_back(mul);
  ShapeOp sum;
  sum.kind = ShapeOp::Kind::kSegmentSum;
  sum.a = 1;
  p.ops.push_back(sum);
  p.result = 2;
  VerifyReport report;
  const std::vector<ShapeDim> shapes = InferShapes(p, &report);
  EXPECT_EQ(static_cast<int>(report.diagnostics().size()), 1);
  EXPECT_FALSE(shapes[1].known());
  EXPECT_FALSE(shapes[2].known());
}

// --- JG*/FP*: joint graph and plan fixtures ---------------------------------

struct PlannedFixture {
  core::CostModelConfig config;
  std::unique_ptr<core::CostModel> model;
  core::JointGraph graph;
  core::ForwardPlan plan;
  ModelLayerDims dims;
};

PlannedFixture MakePlanned() {
  PlannedFixture f;
  f.config.hidden_dim = 8;
  f.model = std::make_unique<core::CostModel>(f.config);

  QueryBuilder b;
  const auto src = b.Source(1000.0, {DataType::kInt, DataType::kInt});
  const auto filtered =
      b.Filter(src, FilterFunction::kLess, DataType::kInt, 0.5);
  const QueryGraph query = b.Sink(filtered);
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 16000.0, 1000.0, 5.0});
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 25.0});
  f.graph = core::BuildJointGraph(query, cluster, sim::Placement{0, 1, 0},
                                  f.config.featurization);
  f.model->BuildForwardPlan(f.graph, f.plan);
  f.dims = DimsFromModel(*f.model);
  return f;
}

TEST(VerifyShapeTest, RealPlanIsClean) {
  const PlannedFixture f = MakePlanned();
  VerifyReport report;
  VerifyForwardPlan(f.graph, f.plan, f.dims, &report);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics().empty()) << report.DebugString();
}

TEST(VerifyShapeTest, DanglingDataflowEdgeIsJG002) {
  PlannedFixture f = MakePlanned();
  f.graph.dataflow_edges.emplace_back(0, 99);
  VerifyReport report;
  VerifyJointGraph(f.graph, &f.dims, &report);
  EXPECT_GE(CountRule(report, kRuleJointDataflowEdge), 1);
}

TEST(VerifyShapeTest, CorruptTopoOrderIsJG004) {
  PlannedFixture f = MakePlanned();
  std::swap(f.graph.topo_order.front(), f.graph.topo_order.back());
  VerifyReport report;
  VerifyJointGraph(f.graph, &f.dims, &report);
  EXPECT_GE(CountRule(report, kRuleJointTopoOrder), 1);
}

TEST(VerifyShapeTest, WrongFeatureWidthIsJG005AndTP001) {
  PlannedFixture f = MakePlanned();
  // Truncate one node's feature vector: JG005 catches it against the encoder
  // input width, and the lowered shape program independently proves the
  // encoder GEMM can no longer run.
  f.graph.nodes[1].features.pop_back();
  VerifyReport report;
  VerifyJointGraph(f.graph, &f.dims, &report);
  EXPECT_GE(CountRule(report, kRuleJointFeatureDim), 1);

  ShapeProgram lowered = BuildPlanProgram(f.graph, f.plan, f.dims);
  VerifyReport shape_report;
  InferShapes(lowered, &shape_report);
  EXPECT_GE(CountRule(shape_report, kRuleTapeGemmMismatch), 1);
}

TEST(VerifyShapeTest, MissingPlacementEdgeIsJG006) {
  PlannedFixture f = MakePlanned();
  f.graph.placement_edges.pop_back();
  VerifyReport report;
  VerifyJointGraph(f.graph, &f.dims, &report);
  EXPECT_GE(CountRule(report, kRuleJointHostCoverage), 1);
}

TEST(VerifyShapeTest, UnbuiltPlanIsFP001) {
  const PlannedFixture f = MakePlanned();
  VerifyReport report;
  VerifyForwardPlan(f.graph, core::ForwardPlan{}, f.dims, &report);
  EXPECT_EQ(CountRule(report, kRulePlanNotReady), 1);
}

TEST(VerifyShapeTest, PlanGraphMismatchIsFP002) {
  PlannedFixture small = MakePlanned();
  // Build a plan for a *larger* query, then verify it against the small
  // graph: the encode partition no longer covers the graph's nodes.
  QueryBuilder b;
  auto stream = b.Source(1000.0, {DataType::kInt, DataType::kInt});
  stream = b.Filter(stream, FilterFunction::kLess, DataType::kInt, 0.5);
  stream = b.Filter(stream, FilterFunction::kGreater, DataType::kInt, 0.5);
  const QueryGraph query = b.Sink(stream);
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 16000.0, 1000.0, 5.0});
  const core::JointGraph big = core::BuildJointGraph(
      query, cluster, sim::Placement(query.num_operators(), 0),
      small.config.featurization);
  core::ForwardPlan big_plan;
  small.model->BuildForwardPlan(big, big_plan);

  VerifyReport report;
  VerifyForwardPlan(small.graph, big_plan, small.dims, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(CountRule(report, kRulePlanEncodePartition), 1);
}

}  // namespace
}  // namespace costream::verify
