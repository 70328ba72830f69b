#include "dsps/query_graph.h"

#include <gtest/gtest.h>

#include <limits>

namespace costream::dsps {
namespace {

OperatorDescriptor MakeSource(double rate = 100.0) {
  OperatorDescriptor op;
  op.type = OperatorType::kSource;
  op.input_event_rate = rate;
  op.tuple_data_types = {DataType::kInt, DataType::kDouble};
  op.tuple_width_out = 2.0;
  return op;
}

OperatorDescriptor MakeOp(OperatorType type) {
  OperatorDescriptor op;
  op.type = type;
  op.tuple_width_in = 2.0;
  op.tuple_width_out = 2.0;
  return op;
}

QueryGraph LinearQuery() {
  QueryGraph q;
  const int src = q.AddOperator(MakeSource());
  const int filter = q.AddOperator(MakeOp(OperatorType::kFilter));
  const int sink = q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(src, filter);
  q.AddEdge(filter, sink);
  return q;
}

TEST(QueryGraphTest, LinearQueryValidates) {
  EXPECT_EQ(LinearQuery().Validate(), "");
}

TEST(QueryGraphTest, UpstreamDownstream) {
  QueryGraph q = LinearQuery();
  EXPECT_EQ(q.Upstream(1), std::vector<int>{0});
  EXPECT_EQ(q.Downstream(1), std::vector<int>{2});
  EXPECT_TRUE(q.Upstream(0).empty());
  EXPECT_TRUE(q.Downstream(2).empty());
}

TEST(QueryGraphTest, SourcesAndSink) {
  QueryGraph q = LinearQuery();
  EXPECT_EQ(q.Sources(), std::vector<int>{0});
  EXPECT_EQ(q.Sink(), 2);
}

TEST(QueryGraphTest, TopologicalOrderRespectsEdges) {
  QueryGraph q = LinearQuery();
  const std::vector<int> topo = q.TopologicalOrder();
  ASSERT_EQ(topo.size(), 3u);
  std::vector<int> position(3);
  for (int i = 0; i < 3; ++i) position[topo[i]] = i;
  for (const auto& [from, to] : q.edges()) {
    EXPECT_LT(position[from], position[to]);
  }
}

TEST(QueryGraphTest, CountType) {
  QueryGraph q = LinearQuery();
  EXPECT_EQ(q.CountType(OperatorType::kFilter), 1);
  EXPECT_EQ(q.CountType(OperatorType::kJoin), 0);
}

TEST(QueryGraphTest, RejectsEmptyQuery) {
  QueryGraph q;
  EXPECT_NE(q.Validate(), "");
}

TEST(QueryGraphTest, RejectsSourceWithInputs) {
  QueryGraph q;
  const int s1 = q.AddOperator(MakeSource());
  const int s2 = q.AddOperator(MakeSource());
  const int sink = q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(s1, s2);
  q.AddEdge(s2, sink);
  EXPECT_NE(q.Validate(), "");
}

TEST(QueryGraphTest, RejectsJoinWithOneInput) {
  QueryGraph q;
  const int src = q.AddOperator(MakeSource());
  const int window = q.AddOperator(MakeOp(OperatorType::kWindow));
  const int join = q.AddOperator(MakeOp(OperatorType::kJoin));
  const int sink = q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(src, window);
  q.AddEdge(window, join);
  q.AddEdge(join, sink);
  EXPECT_NE(q.Validate(), "");
}

TEST(QueryGraphTest, RejectsAggregateWithoutWindowInput) {
  QueryGraph q;
  const int src = q.AddOperator(MakeSource());
  const int agg = q.AddOperator(MakeOp(OperatorType::kAggregate));
  const int sink = q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(src, agg);
  q.AddEdge(agg, sink);
  EXPECT_NE(q.Validate(), "");
}

TEST(QueryGraphTest, RejectsMultipleSinks) {
  QueryGraph q;
  const int src = q.AddOperator(MakeSource());
  const int f = q.AddOperator(MakeOp(OperatorType::kFilter));
  const int sink1 = q.AddOperator(MakeOp(OperatorType::kSink));
  const int sink2 = q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(src, f);
  q.AddEdge(f, sink1);
  q.AddEdge(f, sink2);
  EXPECT_NE(q.Validate(), "");
}

TEST(QueryGraphTest, RejectsOutOfRangeSelectivity) {
  for (double selectivity : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    QueryGraph q = LinearQuery();
    q.mutable_op(1).selectivity = selectivity;
    EXPECT_NE(q.Validate(), "") << selectivity;
  }
}

TEST(QueryGraphTest, RejectsNonPositiveOrNonFiniteSourceRate) {
  for (double rate : {0.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    QueryGraph q = LinearQuery();
    q.mutable_op(0).input_event_rate = rate;
    EXPECT_NE(q.Validate(), "") << rate;
  }
}

TEST(QueryGraphTest, RejectsDetachedCycle) {
  // Two filters feeding each other: every operator passes its own fan-in and
  // fan-out checks, so only the acyclicity check can reject the query.
  QueryGraph q = LinearQuery();
  const int a = q.AddOperator(MakeOp(OperatorType::kFilter));
  const int b = q.AddOperator(MakeOp(OperatorType::kFilter));
  q.AddEdge(a, b);
  q.AddEdge(b, a);
  EXPECT_EQ(q.Validate(), "query graph contains a cycle");
}

TEST(QueryGraphTest, DebugStringListsOperators) {
  EXPECT_EQ(LinearQuery().DebugString(), "source->filter->sink");
}

TEST(QueryGraphDeathTest, SinkOnGraphWithoutSinkAborts) {
  QueryGraph q;
  q.AddOperator(MakeSource());
  EXPECT_DEATH(q.Sink(), "no sink");
}

TEST(QueryGraphDeathTest, SelfEdgeAborts) {
  QueryGraph q;
  const int src = q.AddOperator(MakeSource());
  EXPECT_DEATH(q.AddEdge(src, src), "COSTREAM_CHECK");
}

}  // namespace
}  // namespace costream::dsps
