// Randomized property sweep of the fluid-engine runtime oracle: across
// hundreds of random query/cluster/placement triples — including
// geo-distributed clusters with full n*n link matrices — every fluid
// evaluation's per-node utilizations, per-link utilizations and processing
// latency must lie inside the proven intervals. Verification is forced on,
// so the in-engine oracle hook (which aborts the process on a violation)
// fires on every EvaluateFluid call; unthrottled runs are additionally
// cross-checked through the pure CheckFluidOracle entry point, and their
// zero-uncertainty point intervals must equal the fluid values exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsps/query_graph.h"
#include "nn/random.h"
#include "placement/enumeration.h"
#include "sim/fluid_engine.h"
#include "sim/geo.h"
#include "sim/hardware.h"
#include "verify/interval_analysis.h"
#include "verify/verify.h"
#include "workload/generator.h"

namespace costream::verify {
namespace {

struct SweepStats {
  int evaluated = 0;
  int direct_checks = 0;  // unthrottled runs probed through CheckFluidOracle
  int geo_cases = 0;      // clusters carrying a link matrix
  int throttled = 0;      // backpressured runs (oracle hook still fired)
};

FluidOracleInput OracleInputFrom(const sim::FluidReport& report,
                                 double duration_s) {
  FluidOracleInput input;
  input.node_cpu_utilization.reserve(report.node_stats.size());
  input.node_net_utilization.reserve(report.node_stats.size());
  for (const sim::NodeStats& stats : report.node_stats) {
    input.node_cpu_utilization.push_back(stats.cpu_utilization);
    input.node_net_utilization.push_back(stats.net_utilization);
  }
  input.link_utilization = report.link_utilization;
  input.processing_latency_ms =
      report.noiseless_metrics.processing_latency_ms;
  input.duration_s = duration_s;
  return input;
}

void ExpectPoint(const Interval& proven, double fluid, const char* what,
                 size_t index) {
  EXPECT_EQ(proven.lo, fluid) << what << "[" << index << "]";
  EXPECT_EQ(proven.hi, fluid) << what << "[" << index << "]";
}

// At zero uncertainty the analysis runs the fluid engine's own flow math at
// point intervals, so every proven node and link value is the unthrottled
// fluid value bit for bit.
void ExpectPointsEqualFluid(const dsps::QueryGraph& query,
                            const sim::Cluster& cluster,
                            const sim::Placement& placement,
                            const sim::FluidConfig& fluid,
                            const sim::FluidReport& report) {
  const QueryIntervalSummary exact =
      AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr);
  const PlacementIntervalSummary proven = AnalyzePlacementIntervals(
      query, cluster, placement, exact, &fluid.background, nullptr);
  ASSERT_EQ(proven.nodes.size(), report.node_stats.size());
  for (size_t n = 0; n < proven.nodes.size(); ++n) {
    const NodeIntervals& p = proven.nodes[n];
    const sim::NodeStats& s = report.node_stats[n];
    ExpectPoint(p.cpu_utilization, s.cpu_utilization, "cpu_utilization", n);
    ExpectPoint(p.net_utilization, s.net_utilization, "net_utilization", n);
    ExpectPoint(p.memory_mb, s.memory_mb, "memory_mb", n);
    ExpectPoint(p.gc_factor, s.gc_factor, "gc_factor", n);
  }
  ASSERT_EQ(proven.link_utilization.size(), report.link_utilization.size());
  for (size_t l = 0; l < proven.link_utilization.size(); ++l) {
    ExpectPoint(proven.link_utilization[l], report.link_utilization[l],
                "link_utilization", l);
  }
}

// One sweep leg: `triples` random (query, cluster, placement) draws with the
// given generator config and cluster factory.
template <typename ClusterFactory>
void RunSweep(const workload::GeneratorConfig& config, uint64_t seed,
              int triples, ClusterFactory make_cluster, SweepStats* stats) {
  const workload::QueryGenerator generator(config);
  nn::Rng rng(seed);
  const workload::QueryTemplate templates[] = {
      workload::QueryTemplate::kLinear, workload::QueryTemplate::kTwoWayJoin,
      workload::QueryTemplate::kThreeWayJoin,
      workload::QueryTemplate::kFilterChain};
  for (int i = 0; i < triples; ++i) {
    const dsps::QueryGraph query =
        generator.Generate(templates[i % 4], rng);
    const sim::Cluster cluster = make_cluster(generator, rng);
    const std::vector<int> bins = placement::CapabilityBins(cluster);
    const sim::Placement placement =
        placement::SamplePlacement(query, cluster, bins, rng);

    sim::FluidConfig fluid;
    fluid.noise_sigma = 0.0;
    // The oracle hook inside EvaluateFluid aborts the whole process on any
    // containment violation, so merely returning is the core assertion.
    const sim::FluidReport report =
        sim::EvaluateFluid(query, cluster, placement, fluid);
    ++stats->evaluated;
    if (cluster.has_link_matrix()) {
      ++stats->geo_cases;
      EXPECT_EQ(report.link_utilization.size(),
                cluster.nodes.size() * cluster.nodes.size());
    }
    if (report.source_scale == 1.0 && report.backpressure_rate == 0.0) {
      // Unthrottled: the reported stats *are* the nominal observables, so
      // the pure oracle entry point must agree they are contained.
      const std::string violation =
          CheckFluidOracle(query, cluster, placement, &fluid.background,
                           OracleInputFrom(report, fluid.duration_s));
      EXPECT_EQ(violation, "")
          << "triple " << i << " (seed " << seed << ")";
      ExpectPointsEqualFluid(query, cluster, placement, fluid, report);
      ++stats->direct_checks;
    } else {
      ++stats->throttled;
    }
  }
}

TEST(VerifyOracleSweepTest, RandomTriplesStayInsideProvenIntervals) {
  // Belt and braces: the hook is already on in Debug/sanitizer builds; force
  // it so the sweep also bites in a plain Release build.
  SetVerificationEnabled(true);
  SweepStats stats;

  // Leg 1: the training-grid generator clusters (no link matrix).
  RunSweep(
      workload::GeneratorConfig{}, 1234, 120,
      [](const workload::QueryGenerator& g, nn::Rng& rng) {
        return g.GenerateCluster(rng);
      },
      &stats);

  // Leg 2: operators with degree-of-parallelism > 1.
  workload::GeneratorConfig parallel;
  parallel.parallelism_fraction = 0.5;
  RunSweep(
      parallel, 987, 40,
      [](const workload::QueryGenerator& g, nn::Rng& rng) {
        return g.GenerateCluster(rng);
      },
      &stats);

  // Leg 3: geo-distributed edge-fog-cloud clusters with WAN link matrices.
  RunSweep(
      workload::GeneratorConfig{}, 555, 60,
      [](const workload::QueryGenerator&, nn::Rng& rng) {
        sim::GeoClusterConfig geo;
        geo.regions = 1 + rng.Int(0, 2);
        geo.edge_per_region = 1 + rng.Int(0, 2);
        geo.fog_per_region = 1;
        geo.cloud_nodes = 1 + rng.Int(0, 1);
        geo.wan.wan_bandwidth_mbits = rng.Uniform(20.0, 200.0);
        geo.wan.wan_latency_ms = rng.Uniform(10.0, 120.0);
        return sim::MakeGeoCluster(geo);
      },
      &stats);

  EXPECT_GE(stats.evaluated, 200);
  EXPECT_GT(stats.direct_checks, 0);
  EXPECT_GT(stats.geo_cases, 0);
  // The sweep must include backpressured runs: the oracle's nominal-scale
  // containment has to hold even when the engine throttles the sources.
  EXPECT_GT(stats.throttled, 0);
}

TEST(VerifyOracleSweepTest, FabricatedViolationIsReported) {
  // CheckFluidOracle is pure: feeding it an observable outside the proven
  // interval must name the violation instead of silently passing.
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(3);
  const dsps::QueryGraph query =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  const sim::Cluster cluster = generator.GenerateCluster(rng);
  const std::vector<int> bins = placement::CapabilityBins(cluster);
  const sim::Placement placement =
      placement::SamplePlacement(query, cluster, bins, rng);

  sim::FluidConfig fluid;
  fluid.noise_sigma = 0.0;
  const sim::FluidReport report =
      sim::EvaluateFluid(query, cluster, placement, fluid);
  FluidOracleInput input = OracleInputFrom(report, fluid.duration_s);
  ASSERT_FALSE(input.node_cpu_utilization.empty());
  input.node_cpu_utilization[0] += 1000.0;  // provably out of range
  const std::string violation =
      CheckFluidOracle(query, cluster, placement, &fluid.background, input);
  EXPECT_NE(violation, "");
}

TEST(VerifyOracleSweepTest, LatencyDominatesProvenSinkDelayLowerBound) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(11);
  int checked = 0;
  for (int i = 0; i < 40; ++i) {
    const dsps::QueryGraph query = generator.Generate(
        i % 2 == 0 ? workload::QueryTemplate::kLinear
                   : workload::QueryTemplate::kTwoWayJoin,
        rng);
    const sim::Cluster cluster = generator.GenerateCluster(rng);
    const std::vector<int> bins = placement::CapabilityBins(cluster);
    const sim::Placement placement =
        placement::SamplePlacement(query, cluster, bins, rng);
    sim::FluidConfig fluid;
    fluid.noise_sigma = 0.0;
    const sim::FluidReport report =
        sim::EvaluateFluid(query, cluster, placement, fluid);
    if (report.noiseless_metrics.processing_latency_ms < 0) continue;
    const QueryIntervalSummary summary =
        AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr);
    if (summary.diverged || summary.inconsistent_source) continue;
    EXPECT_GE(report.noiseless_metrics.processing_latency_ms,
              summary.min_sink_delay_ms * (1.0 - 1e-6))
        << "triple " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace costream::verify
