// Interval dataflow analysis (DF rule family): per-rule failing and clean
// fixtures for DF001-DF005, the soundness properties of the interval
// arithmetic, uncertainty containment (a point analysis of any perturbed
// source rate lies inside the uncertain intervals), and the VerifyOptions
// slack factors that replaced the hard-coded PL005-PL007 constants.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string_view>
#include <vector>

#include "dsps/query_builder.h"
#include "dsps/query_graph.h"
#include "nn/random.h"
#include "sim/hardware.h"
#include "verify/interval_analysis.h"
#include "verify/placement_rules.h"

namespace costream::verify {
namespace {

using dsps::DataType;
using dsps::OperatorDescriptor;
using dsps::OperatorType;
using dsps::QueryBuilder;
using dsps::QueryGraph;
using dsps::WindowPolicy;
using dsps::WindowType;

OperatorDescriptor MakeOp(OperatorType type) {
  OperatorDescriptor op;
  op.type = type;
  op.tuple_width_in = 2.0;
  op.tuple_width_out = 2.0;
  op.selectivity = 0.5;
  if (type == OperatorType::kSource) {
    op.input_event_rate = 1000.0;
    op.tuple_data_types = {DataType::kInt, DataType::kInt};
  }
  return op;
}

QueryGraph LinearQuery() {
  QueryBuilder builder;
  const auto source =
      builder.Source(1000.0, {DataType::kInt, DataType::kInt});
  const auto filtered = builder.Filter(source, dsps::FilterFunction::kLess,
                                       DataType::kInt, 0.5);
  return builder.Sink(filtered);
}

QueryGraph WindowedQuery(WindowPolicy policy, double size, double slide) {
  QueryGraph query;
  query.AddOperator(MakeOp(OperatorType::kSource));
  OperatorDescriptor window = MakeOp(OperatorType::kWindow);
  window.window = {WindowType::kTumbling, policy, size, slide};
  query.AddOperator(window);
  query.AddOperator(MakeOp(OperatorType::kSink));
  query.AddEdge(0, 1);
  query.AddEdge(1, 2);
  return query;
}

sim::Cluster TwoNodeCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 16000.0, 1000.0, 5.0});
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 25.0});
  return cluster;
}

bool SawRule(const VerifyReport& report, std::string_view rule) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

int CountDfDiagnostics(const VerifyReport& report) {
  int n = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (RuleFamily(d.rule) == "interval-dataflow") ++n;
  }
  return n;
}

// ---- DF001: divergence on cyclic graphs ------------------------------------

TEST(IntervalAnalysisTest, CyclicGraphWidensToDF001) {
  QueryGraph query;
  query.AddOperator(MakeOp(OperatorType::kSource));
  query.AddOperator(MakeOp(OperatorType::kFilter));
  query.AddOperator(MakeOp(OperatorType::kFilter));
  query.AddOperator(MakeOp(OperatorType::kSink));
  query.AddEdge(0, 1);
  query.AddEdge(1, 2);
  query.AddEdge(2, 1);  // cycle: 1 -> 2 -> 1
  query.AddEdge(2, 3);
  VerifyReport report;
  const QueryIntervalSummary summary =
      AnalyzeQueryIntervals(query, IntervalOptions{}, &report);
  EXPECT_TRUE(summary.diverged);
  EXPECT_TRUE(SawRule(report, kRuleIntervalDiverged)) << report.DebugString();
}

TEST(IntervalAnalysisTest, AcyclicGraphDoesNotDiverge) {
  VerifyReport report;
  const QueryIntervalSummary summary =
      AnalyzeQueryIntervals(LinearQuery(), IntervalOptions{}, &report);
  EXPECT_FALSE(summary.diverged);
  EXPECT_FALSE(SawRule(report, kRuleIntervalDiverged)) << report.DebugString();
}

// ---- DF004: inconsistent source specs --------------------------------------

TEST(IntervalAnalysisTest, NanSourceRateIsDF004) {
  QueryGraph query;
  OperatorDescriptor source = MakeOp(OperatorType::kSource);
  source.input_event_rate = std::numeric_limits<double>::quiet_NaN();
  query.AddOperator(source);
  query.AddOperator(MakeOp(OperatorType::kSink));
  query.AddEdge(0, 1);
  VerifyReport report;
  const QueryIntervalSummary summary =
      AnalyzeQueryIntervals(query, IntervalOptions{}, &report);
  EXPECT_TRUE(summary.inconsistent_source);
  EXPECT_TRUE(SawRule(report, kRuleIntervalSourceSpec))
      << report.DebugString();
}

TEST(IntervalAnalysisTest, FiniteSourceRateIsNotDF004) {
  VerifyReport report;
  const QueryIntervalSummary summary =
      AnalyzeQueryIntervals(LinearQuery(), IntervalOptions{}, &report);
  EXPECT_FALSE(summary.inconsistent_source);
  EXPECT_FALSE(SawRule(report, kRuleIntervalSourceSpec))
      << report.DebugString();
}

// ---- DF002: proven-infeasible node -----------------------------------------

TEST(IntervalAnalysisTest, ProvenCrashWindowIsDF002) {
  // 1e7 tuples x 96 bytes x 20 state factor ~ 19 GB of proven window state
  // against a 2 GB node: memory_mb.lo exceeds the crash threshold.
  const QueryGraph query = WindowedQuery(WindowPolicy::kCountBased, 1e7, 1e7);
  VerifyReport report;
  VerifyPlacedQuery(query, TwoNodeCluster(), {0, 1, 0}, &report);
  EXPECT_TRUE(SawRule(report, kRuleIntervalNodeInfeasible))
      << report.DebugString();
  // Proven crash is a warning, never an error: these placements remain
  // admissible (crash-labelled) training examples.
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule == kRuleIntervalNodeInfeasible) {
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
  const QueryIntervalSummary intervals =
      AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr);
  const PlacementIntervalSummary placed = AnalyzePlacementIntervals(
      query, TwoNodeCluster(), {0, 1, 0}, intervals, nullptr, nullptr);
  EXPECT_TRUE(placed.proven_crash);
  ASSERT_EQ(placed.nodes.size(), 2u);
  EXPECT_TRUE(placed.nodes[1].proven_crash);
  EXPECT_FALSE(placed.nodes[0].proven_crash);
}

TEST(IntervalAnalysisTest, SmallWindowIsNotDF002) {
  const QueryGraph query = WindowedQuery(WindowPolicy::kTimeBased, 1.0, 1.0);
  VerifyReport report;
  VerifyPlacedQuery(query, TwoNodeCluster(), {0, 1, 0}, &report);
  EXPECT_FALSE(SawRule(report, kRuleIntervalNodeInfeasible))
      << report.DebugString();
}

// ---- DF003: proven-choked link ---------------------------------------------

TEST(IntervalAnalysisTest, ChokedWanLinkIsDF003) {
  sim::Cluster cluster = TwoNodeCluster();
  cluster.link_bandwidth_mbits = {0.0, 0.001, 0.001, 0.0};
  cluster.link_latency_ms = {0.0, 40.0, 40.0, 0.0};
  VerifyReport report;
  VerifyPlacedQuery(LinearQuery(), cluster, {0, 1, 1}, &report);
  EXPECT_TRUE(SawRule(report, kRuleIntervalLinkChoked))
      << report.DebugString();
}

TEST(IntervalAnalysisTest, WideLinkIsNotDF003) {
  sim::Cluster cluster = TwoNodeCluster();
  cluster.link_bandwidth_mbits = {0.0, 1000.0, 1000.0, 0.0};
  cluster.link_latency_ms = {0.0, 1.0, 1.0, 0.0};
  VerifyReport report;
  VerifyPlacedQuery(LinearQuery(), cluster, {0, 1, 1}, &report);
  EXPECT_FALSE(SawRule(report, kRuleIntervalLinkChoked))
      << report.DebugString();
}

// ---- DF005: window delay bound ---------------------------------------------

TEST(IntervalAnalysisTest, WindowLongerThanRunIsDF005) {
  const QueryGraph query =
      WindowedQuery(WindowPolicy::kTimeBased, 600.0, 600.0);
  VerifyReport report;
  VerifyPlacedQuery(query, TwoNodeCluster(), {0, 0, 0}, &report);
  EXPECT_TRUE(SawRule(report, kRuleIntervalDelayBound))
      << report.DebugString();
  const QueryIntervalSummary summary =
      AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr);
  EXPECT_GT(summary.min_sink_delay_ms, 240.0 * 1000.0);
}

TEST(IntervalAnalysisTest, ShortWindowIsNotDF005) {
  const QueryGraph query = WindowedQuery(WindowPolicy::kTimeBased, 1.0, 1.0);
  VerifyReport report;
  VerifyPlacedQuery(query, TwoNodeCluster(), {0, 0, 0}, &report);
  EXPECT_FALSE(SawRule(report, kRuleIntervalDelayBound))
      << report.DebugString();
}

TEST(IntervalAnalysisTest, DelayBoundRespectsConfiguredDuration) {
  // The same 600s window is fine when the configured run is long enough.
  const QueryGraph query =
      WindowedQuery(WindowPolicy::kTimeBased, 600.0, 600.0);
  IntervalOptions options;
  options.duration_s = 4000.0;
  VerifyReport report;
  AnalyzeQueryIntervals(query, options, &report);
  EXPECT_FALSE(SawRule(report, kRuleIntervalDelayBound))
      << report.DebugString();
}

// ---- Fully clean fixture ---------------------------------------------------

TEST(IntervalAnalysisTest, WellProvisionedQueryDrawsNoDfDiagnostics) {
  const QueryGraph query = WindowedQuery(WindowPolicy::kTimeBased, 1.0, 1.0);
  VerifyReport report;
  VerifyPlacedQuery(query, TwoNodeCluster(), {0, 0, 0}, &report);
  EXPECT_EQ(CountDfDiagnostics(report), 0) << report.DebugString();
}

// ---- Interval arithmetic soundness -----------------------------------------

TEST(IntervalArithmeticTest, AddMulDivJoinAreSoundOnSampledPoints) {
  nn::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const double a_lo = rng.Uniform(0.0, 100.0);
    const double a_hi = a_lo + rng.Uniform(0.0, 100.0);
    const double b_lo = rng.Uniform(0.1, 100.0);
    const double b_hi = b_lo + rng.Uniform(0.0, 100.0);
    const Interval a = Interval::Of(a_lo, a_hi);
    const Interval b = Interval::Of(b_lo, b_hi);
    const double x = rng.Uniform(a_lo, a_hi);
    const double y = rng.Uniform(b_lo, b_hi);
    EXPECT_TRUE((a + b).Contains(x + y, 1e-12));
    EXPECT_TRUE((a * b).Contains(x * y, 1e-12));
    EXPECT_TRUE((a / b).Contains(x / y, 1e-12));
    EXPECT_TRUE(IntervalJoin(a, b).Contains(x, 1e-12));
    EXPECT_TRUE(IntervalJoin(a, b).Contains(y, 1e-12));
    EXPECT_TRUE(Max(a, 50.0).Contains(std::fmax(x, 50.0), 1e-12));
  }
}

TEST(IntervalArithmeticTest, MulTreatsZeroTimesInfinityAsZero) {
  const Interval zero = Interval::Point(0.0);
  const Interval unbounded =
      Interval::Of(0.0, std::numeric_limits<double>::infinity());
  const Interval product = zero * unbounded;
  EXPECT_EQ(product.lo, 0.0);
  EXPECT_EQ(product.hi, 0.0);
}

TEST(IntervalArithmeticTest, ContainsAllowsRelativeSlackOnly) {
  const Interval iv = Interval::Of(100.0, 200.0);
  EXPECT_TRUE(iv.Contains(100.0, 1e-6));
  EXPECT_TRUE(iv.Contains(200.0, 1e-6));
  EXPECT_TRUE(iv.Contains(200.0 * (1.0 + 1e-7), 1e-6));
  EXPECT_FALSE(iv.Contains(201.0, 1e-6));
  EXPECT_FALSE(iv.Contains(99.0, 1e-6));
}

// ---- Zero-uncertainty analysis yields point intervals ----------------------

TEST(IntervalAnalysisTest, ExactAnalysisOfDagIsPointwise) {
  const QueryIntervalSummary summary =
      AnalyzeQueryIntervals(LinearQuery(), IntervalOptions{}, nullptr);
  ASSERT_FALSE(summary.diverged);
  for (const OpIntervals& op : summary.ops) {
    EXPECT_TRUE(op.in_rate.is_point());
    EXPECT_TRUE(op.out_rate.is_point());
    EXPECT_TRUE(op.cpu_load_us.is_point());
  }
}

// ---- Uncertainty containment -----------------------------------------------

// The uncertain analysis at rate_uncertainty u must contain the exact
// analysis of every query whose source rates are perturbed within +-u.
TEST(IntervalAnalysisTest, UncertainIntervalsContainPerturbedPointRuns) {
  nn::Rng rng(7);
  IntervalOptions uncertain;
  uncertain.rate_uncertainty = 0.1;
  for (int trial = 0; trial < 50; ++trial) {
    QueryGraph query = WindowedQuery(WindowPolicy::kCountBased, 100.0, 100.0);
    const QueryIntervalSummary wide =
        AnalyzeQueryIntervals(query, uncertain, nullptr);
    ASSERT_FALSE(wide.diverged);

    QueryGraph perturbed = query;
    const double factor = rng.Uniform(0.9, 1.1);
    for (int id = 0; id < perturbed.num_operators(); ++id) {
      if (perturbed.op(id).type == OperatorType::kSource) {
        perturbed.mutable_op(id).input_event_rate *= factor;
      }
    }
    const QueryIntervalSummary exact =
        AnalyzeQueryIntervals(perturbed, IntervalOptions{}, nullptr);
    ASSERT_EQ(exact.ops.size(), wide.ops.size());
    for (size_t i = 0; i < exact.ops.size(); ++i) {
      EXPECT_TRUE(wide.ops[i].in_rate.Contains(exact.ops[i].in_rate.lo, 1e-9))
          << "op " << i << " in_rate " << exact.ops[i].in_rate.lo << " not in ["
          << wide.ops[i].in_rate.lo << ", " << wide.ops[i].in_rate.hi << "]";
      EXPECT_TRUE(
          wide.ops[i].out_rate.Contains(exact.ops[i].out_rate.lo, 1e-9));
      EXPECT_TRUE(
          wide.ops[i].cpu_load_us.Contains(exact.ops[i].cpu_load_us.lo, 1e-9));
      EXPECT_TRUE(
          wide.ops[i].state_mb.Contains(exact.ops[i].state_mb.lo, 1e-9));
    }
  }
}

// ---- VerifyOptions slack factors (satellite a) -----------------------------

TEST(VerifyOptionsTest, DefaultsMatchTheSeedConstants) {
  const VerifyOptions options;
  EXPECT_EQ(options.ram_slack, 2.0);
  EXPECT_EQ(options.cpu_oversubscription, 16.0);
  EXPECT_EQ(options.net_slack, 2.0);
  EXPECT_TRUE(options.run_intervals);
}

TEST(VerifyOptionsTest, TighterRamSlackFlagsWhatDefaultsTolerate) {
  // ~2k tuples x 96 bytes x 20 ~ 3.8 MB of state; a 4 MB node is within the
  // default 2x slack but outside a 0.0001x slack.
  const QueryGraph query =
      WindowedQuery(WindowPolicy::kCountBased, 2000.0, 2000.0);
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 16000.0, 1000.0, 5.0});
  cluster.nodes.push_back({100.0, 4.0, 100.0, 25.0});

  VerifyReport lax;
  VerifyPlacement(query, cluster, {0, 1, 0}, &lax);
  EXPECT_FALSE(SawRule(lax, kRulePlacementRamFeasibility))
      << lax.DebugString();

  VerifyOptions tight;
  tight.ram_slack = 0.0001;
  VerifyReport report;
  VerifyPlacement(query, cluster, {0, 1, 0}, tight, &report);
  EXPECT_TRUE(SawRule(report, kRulePlacementRamFeasibility))
      << report.DebugString();
}

TEST(VerifyOptionsTest, TighterNetSlackFlagsWhatDefaultsTolerate) {
  const QueryGraph query = LinearQuery();
  VerifyReport lax;
  VerifyPlacement(query, TwoNodeCluster(), {0, 1, 1}, &lax);
  EXPECT_FALSE(SawRule(lax, kRulePlacementNetFeasibility))
      << lax.DebugString();

  VerifyOptions tight;
  tight.net_slack = 1e-6;
  VerifyReport report;
  VerifyPlacement(query, TwoNodeCluster(), {0, 1, 1}, tight, &report);
  EXPECT_TRUE(SawRule(report, kRulePlacementNetFeasibility))
      << report.DebugString();
}

TEST(VerifyOptionsTest, TighterCpuOversubscriptionFlagsParallelOperators) {
  QueryGraph query = LinearQuery();
  for (int id = 0; id < query.num_operators(); ++id) {
    query.mutable_op(id).parallelism = 2;
  }
  VerifyReport lax;
  VerifyPlacement(query, TwoNodeCluster(), {1, 1, 1}, &lax);
  EXPECT_FALSE(SawRule(lax, kRulePlacementCpuFeasibility))
      << lax.DebugString();

  VerifyOptions tight;
  tight.cpu_oversubscription = 0.001;
  VerifyReport report;
  VerifyPlacement(query, TwoNodeCluster(), {1, 1, 1}, tight, &report);
  EXPECT_TRUE(SawRule(report, kRulePlacementCpuFeasibility))
      << report.DebugString();
}

TEST(VerifyOptionsTest, RunIntervalsFalseSuppressesDfRules) {
  const QueryGraph query = WindowedQuery(WindowPolicy::kCountBased, 1e7, 1e7);
  VerifyOptions options;
  options.run_intervals = false;
  VerifyReport report;
  VerifyPlacedQuery(query, TwoNodeCluster(), {0, 1, 0}, options, &report);
  EXPECT_EQ(CountDfDiagnostics(report), 0) << report.DebugString();
}

}  // namespace
}  // namespace costream::verify
