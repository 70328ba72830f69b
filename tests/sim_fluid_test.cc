#include "sim/fluid_engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "dsps/query_builder.h"
#include "workload/corpus.h"

namespace costream::sim {
namespace {

using dsps::DataType;
using dsps::FilterFunction;
using dsps::QueryBuilder;
using dsps::QueryGraph;

HardwareNode StrongNode() { return HardwareNode{800.0, 32000.0, 10000.0, 1.0}; }
HardwareNode WeakNode() { return HardwareNode{50.0, 1000.0, 25.0, 40.0}; }

QueryGraph SimpleFilterQuery(double rate, double selectivity) {
  QueryBuilder b;
  auto s = b.Source(rate, {DataType::kInt, DataType::kInt, DataType::kInt});
  auto f = b.Filter(s, FilterFunction::kLess, DataType::kInt, selectivity);
  return b.Sink(f);
}

FluidConfig Noiseless() {
  FluidConfig config;
  config.noise_sigma = 0.0;
  return config;
}

TEST(FluidEngineTest, FilterThroughputFollowsSelectivity) {
  QueryGraph q = SimpleFilterQuery(1000.0, 0.25);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_NEAR(report.metrics.throughput, 250.0, 1.0);
  EXPECT_TRUE(report.metrics.success);
  EXPECT_FALSE(report.metrics.backpressure);
}

TEST(FluidEngineTest, ThroughputBoundedBySourceRate) {
  QueryGraph q = SimpleFilterQuery(1000.0, 1.0);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_LE(report.metrics.throughput, 1000.0 * 1.001);
}

TEST(FluidEngineTest, WeakNodeBackpressuresHighRate) {
  QueryGraph q = SimpleFilterQuery(25600.0, 1.0);
  Cluster cluster{{WeakNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_TRUE(report.metrics.backpressure);
  EXPECT_GT(report.backpressure_rate, 0.0);
  EXPECT_LT(report.source_scale, 1.0);
  // Sustained throughput stays below the nominal rate.
  EXPECT_LT(report.metrics.throughput, 25600.0);
  // Backpressure inflates the end-to-end latency far beyond L_p.
  EXPECT_GT(report.metrics.e2e_latency_ms,
            report.metrics.processing_latency_ms * 10.0);
}

TEST(FluidEngineTest, MoreCpuNeverHurtsThroughput) {
  for (double rate : {1000.0, 5000.0, 25600.0}) {
    QueryGraph q = SimpleFilterQuery(rate, 1.0);
    double prev = -1.0;
    for (double cpu : {50.0, 100.0, 200.0, 400.0, 800.0}) {
      Cluster cluster{{HardwareNode{cpu, 16000.0, 10000.0, 1.0}}};
      Placement placement(q.num_operators(), 0);
      FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
      EXPECT_GE(report.metrics.throughput, prev - 1e-6)
          << "rate " << rate << " cpu " << cpu;
      prev = report.metrics.throughput;
    }
  }
}

TEST(FluidEngineTest, NetworkLatencyAddsToProcessingLatency) {
  QueryGraph q = SimpleFilterQuery(100.0, 1.0);
  // Source on node 0, rest on node 1: one network hop.
  Cluster fast{{HardwareNode{400, 8000, 1000, 1.0}, StrongNode()}};
  Cluster slow{{HardwareNode{400, 8000, 1000, 160.0}, StrongNode()}};
  Placement placement = {0, 1, 1};
  const double lp_fast =
      EvaluateFluid(q, fast, placement, Noiseless()).metrics
          .processing_latency_ms;
  const double lp_slow =
      EvaluateFluid(q, slow, placement, Noiseless()).metrics
          .processing_latency_ms;
  EXPECT_GT(lp_slow, lp_fast + 150.0);
}

TEST(FluidEngineTest, CoLocationAvoidsNetworkLatency) {
  QueryGraph q = SimpleFilterQuery(100.0, 1.0);
  Cluster cluster{{HardwareNode{400, 8000, 1000, 80.0}, StrongNode()}};
  const double lp_colocated =
      EvaluateFluid(q, cluster, {0, 0, 0}, Noiseless())
          .metrics.processing_latency_ms;
  const double lp_split =
      EvaluateFluid(q, cluster, {0, 1, 1}, Noiseless())
          .metrics.processing_latency_ms;
  EXPECT_LT(lp_colocated, lp_split);
}

TEST(FluidEngineTest, TinyBandwidthBackpressuresWideTuples) {
  QueryBuilder b;
  auto s = b.Source(10000.0, std::vector<DataType>(10, DataType::kString));
  auto f = b.Filter(s, FilterFunction::kNotEq, DataType::kInt, 1.0);
  QueryGraph q = b.Sink(f);
  Cluster cluster{{HardwareNode{800, 16000, 25.0, 5.0}, StrongNode()}};
  Placement placement = {0, 1, 1};
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_TRUE(report.metrics.backpressure);
  // At the nominal rates the sender's uplink is the bottleneck (> 1); the
  // reported per-node stats are at the throttled scale, where it sits at ~1.
  EXPECT_GT(report.bottleneck_utilization, 1.0);
  EXPECT_GT(report.node_stats[0].net_utilization, 0.9);
}

TEST(FluidEngineTest, LargeWindowOnSmallRamDegradesOrCrashes) {
  QueryBuilder b;
  auto s1 = b.Source(2000.0, std::vector<DataType>(10, DataType::kString));
  auto s2 = b.Source(2000.0, std::vector<DataType>(10, DataType::kString));
  dsps::WindowSpec w;
  w.policy = dsps::WindowPolicy::kTimeBased;
  w.type = dsps::WindowType::kSliding;
  w.size = 16.0;
  w.slide = 8.0;
  auto joined = b.WindowedJoin(s1, s2, w, DataType::kInt, 1e-3);
  QueryGraph q = b.Sink(joined);

  Cluster small{{HardwareNode{800, 1000, 10000, 1}}};
  Cluster large{{HardwareNode{800, 32000, 10000, 1}}};
  Placement placement(q.num_operators(), 0);
  FluidReport small_ram = EvaluateFluid(q, small, placement, Noiseless());
  FluidReport large_ram = EvaluateFluid(q, large, placement, Noiseless());
  // Memory pressure on the small node must be visible: GC slowdown or crash.
  EXPECT_TRUE(small_ram.node_stats[0].gc_factor > 1.05 ||
              small_ram.node_stats[0].crashed);
  EXPECT_NEAR(large_ram.node_stats[0].gc_factor, 1.0, 0.3);
}

TEST(FluidEngineTest, NoOutputMeansFailure) {
  // Selectivity so low that < 1 tuple arrives in the execution window.
  QueryGraph q = SimpleFilterQuery(100.0, 1e-9);
  // The filter selectivity grid bottoms at 0; force an extreme value.
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_FALSE(report.metrics.success);
}

TEST(FluidEngineTest, E2eAlwaysAtLeastProcessingLatency) {
  QueryGraph q = SimpleFilterQuery(1000.0, 0.5);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_GE(report.metrics.e2e_latency_ms,
            report.metrics.processing_latency_ms);
}

TEST(FluidEngineTest, NoiseIsDeterministicPerSeed) {
  QueryGraph q = SimpleFilterQuery(1000.0, 0.5);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidConfig config;
  config.noise_sigma = 0.1;
  config.noise_seed = 7;
  const FluidReport a = EvaluateFluid(q, cluster, placement, config);
  const FluidReport b = EvaluateFluid(q, cluster, placement, config);
  EXPECT_EQ(a.metrics.throughput, b.metrics.throughput);
  config.noise_seed = 8;
  const FluidReport c = EvaluateFluid(q, cluster, placement, config);
  EXPECT_NE(a.metrics.throughput, c.metrics.throughput);
}

TEST(FluidEngineTest, NoiselessMetricsMatchWhenSigmaZero) {
  QueryGraph q = SimpleFilterQuery(1000.0, 0.5);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  EXPECT_EQ(report.metrics.throughput, report.noiseless_metrics.throughput);
}

TEST(FluidEngineTest, PerOpDiagnosticsExposed) {
  QueryGraph q = SimpleFilterQuery(1000.0, 0.5);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);
  FluidReport report = EvaluateFluid(q, cluster, placement, Noiseless());
  ASSERT_EQ(report.op_cpu_load_us.size(),
            static_cast<size_t>(q.num_operators()));
  for (double load : report.op_cpu_load_us) EXPECT_GT(load, 0.0);
}

// Property sweep: every random workload/placement combination yields finite,
// internally consistent metrics.
class FluidPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidPropertyTest, MetricsAreFiniteAndConsistent) {
  workload::CorpusConfig config;
  config.num_queries = 40;
  config.seed = 1000 + GetParam();
  const auto records = workload::BuildCorpus(config);
  for (const auto& record : records) {
    const auto& m = record.metrics;
    EXPECT_TRUE(std::isfinite(m.throughput));
    EXPECT_TRUE(std::isfinite(m.processing_latency_ms));
    EXPECT_TRUE(std::isfinite(m.e2e_latency_ms));
    EXPECT_GE(m.throughput, 0.0);
    EXPECT_GE(m.processing_latency_ms, 0.0);
    EXPECT_GE(m.e2e_latency_ms, m.processing_latency_ms * 0.5);
    if (m.success) {
      EXPECT_GT(m.throughput, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidPropertyTest, ::testing::Range(0, 5));

// Property: throttling never reports higher throughput than the no-pressure
// bound given by source rates.
class FluidBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(FluidBoundsTest, SinkRateNeverExceedsNominalFlow) {
  workload::CorpusConfig config;
  config.num_queries = 25;
  config.seed = 2000 + GetParam();
  config.noise_sigma = 0.0;
  const auto records = workload::BuildCorpus(config);
  for (const auto& record : records) {
    FluidConfig noiseless;
    noiseless.noise_sigma = 0.0;
    const FluidReport report = EvaluateFluid(record.query, record.cluster,
                                             record.placement, noiseless);
    if (!report.metrics.backpressure) continue;
    // Under backpressure the sustained scale is < 1 and utilization ~1.
    EXPECT_LT(report.source_scale, 1.0);
    EXPECT_GT(report.bottleneck_utilization, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidBoundsTest, ::testing::Range(0, 4));

// Property: throughput is monotone in the filter selectivity.
class FluidSelectivityTest : public ::testing::TestWithParam<double> {};

TEST_P(FluidSelectivityTest, ThroughputMonotoneInSelectivity) {
  const double rate = GetParam();
  Cluster cluster{{StrongNode()}};
  double prev = -1.0;
  for (double sel : {0.05, 0.2, 0.5, 0.8, 1.0}) {
    QueryGraph q = SimpleFilterQuery(rate, sel);
    Placement placement(q.num_operators(), 0);
    const double t =
        EvaluateFluid(q, cluster, placement, Noiseless()).metrics.throughput;
    EXPECT_GE(t, prev - 1e-9) << "rate " << rate << " sel " << sel;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, FluidSelectivityTest,
                         ::testing::Values(100.0, 1000.0, 10000.0));

// Property: more RAM never hurts (GC pressure and crashes only relax).
TEST(FluidEngineTest, MoreRamNeverHurts) {
  QueryBuilder b;
  auto s1 = b.Source(1500.0, std::vector<DataType>(8, DataType::kString));
  auto s2 = b.Source(1500.0, std::vector<DataType>(8, DataType::kString));
  dsps::WindowSpec w;
  w.policy = dsps::WindowPolicy::kTimeBased;
  w.type = dsps::WindowType::kSliding;
  w.size = 8.0;
  w.slide = 4.0;
  auto joined = b.WindowedJoin(s1, s2, w, DataType::kInt, 1e-3);
  QueryGraph q = b.Sink(joined);
  Placement placement(q.num_operators(), 0);
  double prev_throughput = -1.0;
  for (double ram : {1000.0, 2000.0, 4000.0, 8000.0, 32000.0}) {
    Cluster cluster{{HardwareNode{800.0, ram, 10000.0, 1.0}}};
    const FluidReport report =
        EvaluateFluid(q, cluster, placement, Noiseless());
    EXPECT_GE(report.metrics.throughput, prev_throughput - 1e-9)
        << "ram " << ram;
    prev_throughput = report.metrics.throughput;
  }
}

// Property: raising one source's rate never lowers sink throughput when the
// system stays un-backpressured.
TEST(FluidEngineTest, ThroughputMonotoneInRateWithoutBackpressure) {
  Cluster cluster{{StrongNode()}};
  double prev = -1.0;
  for (double rate : {100.0, 400.0, 1600.0, 6400.0}) {
    QueryGraph q = SimpleFilterQuery(rate, 0.5);
    Placement placement(q.num_operators(), 0);
    const FluidReport report =
        EvaluateFluid(q, cluster, placement, Noiseless());
    ASSERT_FALSE(report.metrics.backpressure);
    EXPECT_GT(report.metrics.throughput, prev);
    prev = report.metrics.throughput;
  }
}

// Property: an extra network hop never reduces the processing latency.
TEST(FluidEngineTest, ExtraHopNeverFaster) {
  QueryGraph q = SimpleFilterQuery(500.0, 0.5);
  Cluster cluster{{HardwareNode{400, 8000, 1000, 10.0},
                   HardwareNode{400, 8000, 1000, 10.0},
                   StrongNode()}};
  const double one_hop =
      EvaluateFluid(q, cluster, {0, 2, 2}, Noiseless())
          .metrics.processing_latency_ms;
  const double two_hops =
      EvaluateFluid(q, cluster, {0, 1, 2}, Noiseless())
          .metrics.processing_latency_ms;
  EXPECT_GE(two_hops, one_hop);
}

// Regression (label noise vs. success bit): a query whose noiseless latency
// sits just under the duration cap. Log-normal noise pushes some seeds past
// the cap; the success bit must flip with them, or labels contradict the
// invariant success == 1 => processing_latency_ms <= duration_s * 1000.
TEST(FluidEngineTest, SuccessImpliesLatencyUnderCapUnderNoise) {
  QueryBuilder b;
  auto s = b.Source(100.0, {DataType::kInt});
  dsps::WindowSpec w;
  w.policy = dsps::WindowPolicy::kTimeBased;
  w.type = dsps::WindowType::kSliding;
  w.size = 300.0;   // window wait ~(300+150)/2 s = 225000 ms, cap is 240000
  w.slide = 150.0;
  auto agg = b.WindowedAggregate(s, w, dsps::AggregateFunction::kMean,
                                 dsps::GroupByType::kNone, DataType::kInt,
                                 1.0);
  QueryGraph q = b.Sink(agg);
  Cluster cluster{{StrongNode()}};
  Placement placement(q.num_operators(), 0);

  int flipped = 0;
  for (int seed = 0; seed < 200; ++seed) {
    FluidConfig config;
    config.noise_sigma = 0.08;
    config.noise_seed = seed;
    const FluidReport r = EvaluateFluid(q, cluster, placement, config);
    ASSERT_TRUE(r.noiseless_metrics.success) << "seed " << seed;
    const double cap_ms = config.duration_s * 1000.0;
    if (r.metrics.processing_latency_ms > cap_ms) {
      ++flipped;
      EXPECT_FALSE(r.metrics.success) << "seed " << seed;
    }
    if (r.metrics.success) {
      EXPECT_LE(r.metrics.processing_latency_ms, cap_ms) << "seed " << seed;
    }
  }
  // The scenario must actually exercise the boundary, otherwise this test
  // proves nothing.
  EXPECT_GT(flipped, 0);
}

// Regression (crashed labels are exact): a crashed query's capped metrics
// (zero throughput, latency pinned to the run duration) must not be noised.
TEST(FluidEngineTest, CrashedMetricsAreNotNoised) {
  QueryBuilder b;
  auto s = b.Source(200.0, std::vector<DataType>(10, DataType::kString));
  dsps::WindowSpec w;
  w.policy = dsps::WindowPolicy::kTimeBased;
  w.type = dsps::WindowType::kSliding;
  w.size = 200.0;  // ~647 MB window state on a 1 GB node: certain crash
  w.slide = 100.0;
  auto agg = b.WindowedAggregate(s, w, dsps::AggregateFunction::kMax,
                                 dsps::GroupByType::kNone, DataType::kInt,
                                 1.0);
  QueryGraph q = b.Sink(agg);
  Cluster cluster{{HardwareNode{800.0, 1000.0, 10000.0, 1.0}}};
  Placement placement(q.num_operators(), 0);

  for (int seed = 1; seed <= 5; ++seed) {
    FluidConfig config;
    config.noise_sigma = 0.08;
    config.noise_seed = seed;
    const FluidReport r = EvaluateFluid(q, cluster, placement, config);
    bool crashed = false;
    for (const NodeStats& stats : r.node_stats) crashed |= stats.crashed;
    ASSERT_TRUE(crashed) << "seed " << seed;
    EXPECT_FALSE(r.metrics.success);
    EXPECT_DOUBLE_EQ(r.metrics.throughput, 0.0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(r.metrics.e2e_latency_ms, config.duration_s * 1000.0)
        << "seed " << seed;
  }
}

// Regression (backlog GC feedback): two sources share a node whose uplink is
// the bottleneck. The backpressure backlog raises the node's gc_factor, and
// the reported cpu_utilization must reflect the raised factor — i.e. stay
// exactly consistent with the per-op cpu loads the report itself exposes.
TEST(FluidEngineTest, BacklogGcFeedbackReflectedInUtilization) {
  QueryBuilder b;
  auto s1 = b.Source(3000.0, std::vector<DataType>(10, DataType::kString));
  auto s2 = b.Source(3000.0, std::vector<DataType>(10, DataType::kString));
  dsps::WindowSpec w;
  w.policy = dsps::WindowPolicy::kCountBased;
  w.type = dsps::WindowType::kSliding;
  w.size = 100.0;
  w.slide = 50.0;
  auto joined = b.WindowedJoin(s1, s2, w, DataType::kInt, 1e-3);
  QueryGraph q = b.Sink(joined);

  // Node 0: both sources, narrow uplink (the bottleneck), 1 GB RAM so the
  // accrued backlog pushes it into GC pressure without crashing it.
  Cluster cluster{{HardwareNode{400.0, 1000.0, 12.5, 1.0}, StrongNode()}};
  Placement placement(q.num_operators(), 1);
  std::vector<int> sources;
  for (int id = 0; id < q.num_operators(); ++id) {
    if (q.op(id).type == dsps::OperatorType::kSource) {
      placement[id] = 0;
      sources.push_back(id);
    }
  }
  ASSERT_EQ(sources.size(), 2u);

  const FluidReport r = EvaluateFluid(q, cluster, placement, Noiseless());
  ASSERT_TRUE(r.metrics.backpressure);
  const NodeStats& stats = r.node_stats[0];
  ASSERT_FALSE(stats.crashed);
  ASSERT_GT(stats.gc_factor, 1.05);

  // cpu_utilization must equal the node's cpu load scaled by the *final*
  // gc_factor (the one the report carries after backlog was applied).
  const double cpu_load_us =
      r.op_cpu_load_us[sources[0]] + r.op_cpu_load_us[sources[1]];
  const double cores = cluster.nodes[0].cpu_pct / 100.0;
  const double expected = cpu_load_us * stats.gc_factor / 1e6 / cores;
  EXPECT_NEAR(stats.cpu_utilization, expected, expected * 1e-9);
}

// Query validation runs before any flow math, verification on or off: a NaN
// source rate or selectivity aborts instead of producing NaN labels.
TEST(FluidEngineDeathTest, NanSourceRateOrSelectivityAborts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QueryGraph bad_rate = SimpleFilterQuery(1000.0, 0.5);
  QueryGraph bad_selectivity = bad_rate;
  for (int id = 0; id < bad_rate.num_operators(); ++id) {
    if (bad_rate.op(id).type == dsps::OperatorType::kSource) {
      bad_rate.mutable_op(id).input_event_rate = nan;
    }
    if (bad_selectivity.op(id).type == dsps::OperatorType::kFilter) {
      bad_selectivity.mutable_op(id).selectivity = nan;
    }
  }
  const Cluster cluster{{StrongNode()}};
  const Placement placement(bad_rate.num_operators(), 0);
  EXPECT_DEATH(EvaluateFluid(bad_rate, cluster, placement, Noiseless()),
               "COSTREAM_CHECK");
  EXPECT_DEATH(
      EvaluateFluid(bad_selectivity, cluster, placement, Noiseless()),
      "COSTREAM_CHECK");
}

}  // namespace
}  // namespace costream::sim
