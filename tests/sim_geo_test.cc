// Geo-distributed topology coverage: per-link WAN matrices on the cluster,
// link-level congestion shared across co-routed flows in both engines, DES
// per-instance scheduling for parallelism > 1, and — critically — bitwise
// preservation of legacy (no-link-matrix, single-server) behavior: every new
// code path is gated, so clusters without matrices and configs without
// per-instance scheduling must reproduce the pre-extension numbers exactly.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dsps/query_builder.h"
#include "nn/random.h"
#include "placement/enumeration.h"
#include "sim/des.h"
#include "sim/fluid_engine.h"
#include "sim/geo.h"
#include "verify/verify.h"
#include "workload/generator.h"

namespace costream::sim {
namespace {

using dsps::DataType;
using dsps::FilterFunction;
using dsps::QueryBuilder;
using dsps::QueryGraph;

// --- Link matrix plumbing ----------------------------------------------------

TEST(GeoClusterTest, LinkAccessorsFallBackToNodeNics) {
  Cluster cluster{{HardwareNode{100.0, 4000.0, 100.0, 10.0},
                   HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  EXPECT_FALSE(cluster.has_link_matrix());
  EXPECT_EQ(cluster.LinkBandwidthMbits(0, 1), 100.0);
  EXPECT_EQ(cluster.LinkLatencyMs(0, 1), 10.0);
  EXPECT_EQ(cluster.LinkBandwidthMbits(1, 0), 1000.0);
  EXPECT_EQ(cluster.LinkLatencyMs(1, 0), 1.0);
  EXPECT_EQ(ValidateLinkMatrix(cluster), "");
}

TEST(GeoClusterTest, ApplyGeoRegionsBuildsValidWanMatrix) {
  Cluster cluster{{HardwareNode{50.0, 2000.0, 25.0, 20.0},
                   HardwareNode{200.0, 8000.0, 200.0, 5.0},
                   HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  GeoWanProfile wan;
  wan.wan_bandwidth_mbits = 100.0;
  wan.wan_latency_ms = 60.0;
  ApplyGeoRegions({0, 0, 1}, wan, &cluster);
  ASSERT_TRUE(cluster.has_link_matrix());
  EXPECT_EQ(ValidateLinkMatrix(cluster), "");
  // Same region: the sender's NIC values, untouched.
  EXPECT_EQ(cluster.LinkBandwidthMbits(0, 1), 25.0);
  EXPECT_EQ(cluster.LinkLatencyMs(0, 1), 20.0);
  // Cross region: bandwidth capped by the WAN, latency stacked on top.
  EXPECT_EQ(cluster.LinkBandwidthMbits(0, 2), 25.0);   // NIC below WAN cap
  EXPECT_EQ(cluster.LinkBandwidthMbits(1, 2), 100.0);  // WAN caps the NIC
  EXPECT_EQ(cluster.LinkLatencyMs(1, 2), 65.0);
  EXPECT_EQ(cluster.LinkBandwidthMbits(2, 0), 100.0);
  EXPECT_EQ(cluster.LinkLatencyMs(2, 0), 61.0);
}

TEST(GeoClusterTest, MakeGeoClusterLayoutAndTiers) {
  GeoClusterConfig config;  // 2 regions x (2 edge + 1 fog) + 2 cloud
  const Cluster cluster = MakeGeoCluster(config);
  ASSERT_EQ(cluster.num_nodes(), 8);
  ASSERT_TRUE(cluster.has_link_matrix());
  EXPECT_EQ(ValidateLinkMatrix(cluster), "");
  EXPECT_EQ(GeoTierOf(config, 0), GeoTier::kEdge);
  EXPECT_EQ(GeoTierOf(config, 2), GeoTier::kFog);
  EXPECT_EQ(GeoTierOf(config, 3), GeoTier::kEdge);
  EXPECT_EQ(GeoTierOf(config, 6), GeoTier::kCloud);
  EXPECT_EQ(GeoTierOf(config, 7), GeoTier::kCloud);
  // Edge -> local fog keeps the edge NIC; edge -> remote anything is WAN.
  EXPECT_EQ(cluster.LinkBandwidthMbits(0, 2), config.edge.bandwidth_mbits);
  EXPECT_EQ(cluster.LinkLatencyMs(0, 3),
            config.edge.latency_ms + config.wan.wan_latency_ms);
  // Fog -> cloud crosses into the shared cloud region.
  EXPECT_EQ(cluster.LinkBandwidthMbits(2, 6),
            std::min(config.fog.bandwidth_mbits,
                     config.wan.wan_bandwidth_mbits));
  // Cloud nodes talk to each other at full NIC speed.
  EXPECT_EQ(cluster.LinkBandwidthMbits(6, 7), config.cloud.bandwidth_mbits);
}

TEST(GeoClusterTest, ValidateLinkMatrixRejectsMalformed) {
  Cluster cluster{{HardwareNode{100.0, 4000.0, 100.0, 10.0},
                   HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  // Only one of the two matrices present.
  cluster.link_bandwidth_mbits = {100.0, 100.0, 100.0, 100.0};
  EXPECT_NE(ValidateLinkMatrix(cluster), "");
  // Wrong size.
  cluster.link_latency_ms = {1.0, 1.0};
  EXPECT_NE(ValidateLinkMatrix(cluster), "");
  // Well-formed.
  cluster.link_latency_ms = {1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(ValidateLinkMatrix(cluster), "");
  // Off-diagonal bandwidth must be positive and finite.
  cluster.link_bandwidth_mbits[1] = 0.0;
  EXPECT_NE(ValidateLinkMatrix(cluster), "");
  cluster.link_bandwidth_mbits[1] = 100.0;
  cluster.link_latency_ms[2] = -1.0;
  EXPECT_NE(ValidateLinkMatrix(cluster), "");
}

// Both engines check the link matrix themselves, so a malformed one fails
// closed even with verification off (it would otherwise index past the
// matrix when routing).
TEST(GeoClusterDeathTest, MalformedLinkMatrixAbortsBothEngines) {
  QueryBuilder b;
  auto s = b.Source(1000.0, {DataType::kInt, DataType::kInt});
  auto f = b.Filter(s, FilterFunction::kLess, DataType::kInt, 0.5);
  const QueryGraph q = b.Sink(f);
  Cluster cluster{{HardwareNode{100.0, 4000.0, 100.0, 10.0},
                   HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  cluster.link_bandwidth_mbits = {100.0};  // 1 entry for 2 nodes
  cluster.link_latency_ms = {1.0};
  Placement p(q.num_operators(), 1);
  p[0] = 0;
  FluidConfig fc;
  fc.noise_sigma = 0.0;
  EXPECT_DEATH(
      {
        verify::SetVerificationEnabled(false);
        EvaluateFluid(q, cluster, p, fc);
      },
      "link matrix size");
  DesConfig dc;
  dc.duration_s = 1.0;
  EXPECT_DEATH(
      {
        verify::SetVerificationEnabled(false);
        RunDes(q, cluster, p, dc);
      },
      "link matrix size");
}

// --- Legacy bitwise preservation ---------------------------------------------

// Exact (hex-float) fluid and DES outputs captured on the pre-extension
// build for legacy clusters. Every new feature in this layer is gated behind
// has_link_matrix() / per_instance_scheduling, so these must stay BITWISE
// identical — any drift means a legacy code path was disturbed.
TEST(GeoLegacyGoldenTest, HandBuiltPipelineIsBitwiseStable) {
  QueryBuilder b;
  auto s = b.Source(1500.0, {DataType::kInt, DataType::kInt, DataType::kInt});
  auto f = b.Filter(s, FilterFunction::kLess, DataType::kInt, 0.6);
  QueryGraph q = b.Sink(f);
  for (int i = 0; i < q.num_operators(); ++i) {
    if (q.op(i).type == dsps::OperatorType::kFilter) {
      q.mutable_op(i).parallelism = 4;
    }
  }
  const Cluster c{{HardwareNode{100, 4000, 100, 10.0},
                   HardwareNode{400, 8000, 400, 5.0},
                   HardwareNode{800, 16000, 1000, 1.0}}};
  const Placement p = {0, 1, 2};

  FluidConfig fc;
  fc.noise_sigma = 0.0;
  const FluidReport fluid = EvaluateFluid(q, c, p, fc);
  EXPECT_EQ(fluid.metrics.throughput, 0x1.c2p+9);
  EXPECT_EQ(fluid.metrics.e2e_latency_ms, 0x1.40ab40bbbf3c4p+5);
  EXPECT_EQ(fluid.metrics.processing_latency_ms, 0x1.e2ad02eefcf0ep+3);
  EXPECT_EQ(fluid.bottleneck_utilization, 0x1.96fa82e87d2c7p-5);
  EXPECT_FALSE(fluid.metrics.backpressure);
  EXPECT_TRUE(fluid.metrics.success);
  EXPECT_TRUE(fluid.link_utilization.empty());  // legacy cluster: no links

  DesConfig dc;
  dc.duration_s = 12.0;
  dc.seed = 42;
  const DesReport des = RunDes(q, c, p, dc);
  EXPECT_EQ(des.metrics.throughput, 0x1.c2c0ed917aa3p+9);
  EXPECT_EQ(des.metrics.e2e_latency_ms, 0x1.e19a29838c20dp+3);
  EXPECT_EQ(des.metrics.processing_latency_ms, 0x1.e19210385c861p+3);
  ASSERT_FALSE(des.node_peak_memory_mb.empty());
  EXPECT_EQ(des.node_peak_memory_mb[0], 0x1.b8002dp+7);
  EXPECT_FALSE(des.metrics.backpressure);
  EXPECT_TRUE(des.metrics.success);
  EXPECT_EQ(des.events_processed, 94004u);
  EXPECT_EQ(des.sink_tuples, 10818u);
}

TEST(GeoLegacyGoldenTest, GeneratorCorpusCasesAreBitwiseStable) {
  struct Golden {
    double fluid_thr, fluid_lat, fluid_plat, fluid_util;
    bool fluid_bp, fluid_ok;
    double des_thr, des_lat, des_plat;
    bool des_bp, des_ok;
    uint64_t des_events, des_sink;
  };
  const Golden golden[3] = {
      {0x1.6f13b072e7cb6p+6, 0x1.008d7322b52cap+10, 0x1.f49ae6456a595p+9,
       0x1.0b630a915379fp-6, false, true, 0x1.e755555555555p+5,
       0x1.3cca25a8c673dp+9, 0x1.3cc9fc07d2625p+9, false, true, 13292u, 731u},
      {0x1.9bbf0c0f4bbf6p+2, 0x1.cc9bb6edbf0d5p+14, 0x1.cc37b6edbf0d5p+14,
       0x1.c432ca57a786cp-5, false, true, 0x1.20007dd960303p+1,
       0x1.c6babf1a1f597p+12, 0x1.c6ba9fea5c16ap+12, false, true, 56568u,
       27u},
      {0x1.b28215023398dp-13, 0x1.1f8a8dcf3c4b3p+9, 0x1.130a8dcf3c4b3p+9,
       0x1.a3f4666ec9e23p-6, false, false, 0x0p+0, 0x1.76f7fbc73fb2fp+13,
       0x1.76f7fbc73fb2fp+13, false, false, 57072u, 0u},
  };

  const workload::QueryGenerator gen{workload::GeneratorConfig{}};
  const workload::QueryTemplate templates[] = {
      workload::QueryTemplate::kLinear, workload::QueryTemplate::kTwoWayJoin,
      workload::QueryTemplate::kThreeWayJoin};
  nn::Rng rng(90210);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("gen case " + std::to_string(i));
    const QueryGraph query = gen.Generate(templates[i % 3], rng);
    const Cluster cluster = gen.GenerateCluster(rng);
    ASSERT_FALSE(cluster.has_link_matrix());  // geo_probability defaults to 0
    const auto bins = placement::CapabilityBins(cluster);
    const Placement placed =
        placement::SamplePlacement(query, cluster, bins, rng);

    FluidConfig fc;
    fc.noise_sigma = 0.0;
    const FluidReport fluid = EvaluateFluid(query, cluster, placed, fc);
    EXPECT_EQ(fluid.metrics.throughput, golden[i].fluid_thr);
    EXPECT_EQ(fluid.metrics.e2e_latency_ms, golden[i].fluid_lat);
    EXPECT_EQ(fluid.metrics.processing_latency_ms, golden[i].fluid_plat);
    EXPECT_EQ(fluid.bottleneck_utilization, golden[i].fluid_util);
    EXPECT_EQ(fluid.metrics.backpressure, golden[i].fluid_bp);
    EXPECT_EQ(fluid.metrics.success, golden[i].fluid_ok);

    DesConfig dc;
    dc.duration_s = 12.0;
    dc.seed = 5000 + static_cast<uint64_t>(i);
    const DesReport des = RunDes(query, cluster, placed, dc);
    EXPECT_EQ(des.metrics.throughput, golden[i].des_thr);
    EXPECT_EQ(des.metrics.e2e_latency_ms, golden[i].des_lat);
    EXPECT_EQ(des.metrics.processing_latency_ms, golden[i].des_plat);
    EXPECT_EQ(des.metrics.backpressure, golden[i].des_bp);
    EXPECT_EQ(des.metrics.success, golden[i].des_ok);
    EXPECT_EQ(des.events_processed, golden[i].des_events);
    EXPECT_EQ(des.sink_tuples, golden[i].des_sink);
  }
}

// --- Link congestion in both engines -----------------------------------------

// Two flows routed over the same directed node pair share one link: choking
// that link must drive both engines into backpressure, while the same
// workload over an unconstrained link runs clean. The per-node NICs are
// identical in both cases — only the link matrix differs — so this isolates
// the per-link model.
TEST(GeoDesVsFluidTest, SharedLinkCongestionDetectedByBothEngines) {
  auto make_query = [] {
    QueryBuilder b;
    auto s1 = b.Source(2000.0, {DataType::kInt, DataType::kInt});
    auto s2 = b.Source(2000.0, {DataType::kInt, DataType::kInt});
    dsps::WindowSpec w;
    w.policy = dsps::WindowPolicy::kCountBased;
    w.type = dsps::WindowType::kTumbling;
    w.size = 40;
    w.slide = 40;
    auto joined = b.WindowedJoin(s1, s2, w, DataType::kInt, 0.01);
    return b.Sink(joined);
  };
  Cluster cluster{{HardwareNode{800.0, 16000.0, 1000.0, 1.0},
                   HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  QueryGraph q = make_query();
  // Both sources on node 0, join machinery and sink on node 1: both source
  // flows traverse the directed link 0 -> 1.
  Placement p(q.num_operators(), 1);
  for (int i = 0; i < q.num_operators(); ++i) {
    if (q.op(i).type == dsps::OperatorType::kSource) p[i] = 0;
  }

  FluidConfig fc;
  fc.noise_sigma = 0.0;
  DesConfig dc;
  dc.duration_s = 10.0;
  dc.seed = 11;

  // Wide link: clean run in both engines.
  ApplyGeoRegions({0, 0}, GeoWanProfile{}, &cluster);
  const FluidReport fluid_wide = EvaluateFluid(q, cluster, p, fc);
  const DesReport des_wide = RunDes(q, cluster, p, dc);
  EXPECT_FALSE(fluid_wide.metrics.backpressure);
  EXPECT_FALSE(des_wide.metrics.backpressure);
  ASSERT_EQ(fluid_wide.link_utilization.size(), 4u);
  EXPECT_GT(fluid_wide.link_utilization[0 * 2 + 1], 0.0);

  // Choked link: each flow alone would fit, together they exceed the link.
  const double flow_mbits = fluid_wide.link_utilization[0 * 2 + 1] * 1000.0;
  ASSERT_GT(flow_mbits, 0.0);
  GeoWanProfile chokepoint;
  chokepoint.wan_bandwidth_mbits = flow_mbits * 0.7;  // < sum, > each half
  chokepoint.wan_latency_ms = 5.0;
  ApplyGeoRegions({0, 1}, chokepoint, &cluster);
  const FluidReport fluid_choked = EvaluateFluid(q, cluster, p, fc);
  const DesReport des_choked = RunDes(q, cluster, p, dc);
  EXPECT_TRUE(fluid_choked.metrics.backpressure);
  EXPECT_TRUE(des_choked.metrics.backpressure);
  EXPECT_LT(des_choked.metrics.throughput, des_wide.metrics.throughput);
}

TEST(GeoDesVsFluidTest, WanLatencyRaisesE2eLatencyInBothEngines) {
  QueryBuilder b;
  auto s = b.Source(200.0, {DataType::kInt});
  QueryGraph q = b.Sink(s);
  Cluster cluster{{HardwareNode{400.0, 8000.0, 1000.0, 2.0},
                   HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  const Placement split = {0, 1};

  FluidConfig fc;
  fc.noise_sigma = 0.0;
  DesConfig dc;
  dc.duration_s = 10.0;

  Cluster near = cluster;
  ApplyGeoRegions({0, 0}, GeoWanProfile{}, &near);
  Cluster far = cluster;
  GeoWanProfile wan;
  wan.wan_latency_ms = 120.0;
  ApplyGeoRegions({0, 1}, wan, &far);

  const double fluid_near =
      EvaluateFluid(q, near, split, fc).metrics.processing_latency_ms;
  const double fluid_far =
      EvaluateFluid(q, far, split, fc).metrics.processing_latency_ms;
  const double des_near = RunDes(q, near, split, dc).metrics.processing_latency_ms;
  const double des_far = RunDes(q, far, split, dc).metrics.processing_latency_ms;
  EXPECT_LT(fluid_near, fluid_far);
  EXPECT_LT(des_near, des_far);
  // The increase is the added WAN propagation delay in both engines.
  EXPECT_NEAR(fluid_far - fluid_near, 120.0, 30.0);
  EXPECT_NEAR(des_far - des_near, 120.0, 30.0);
}

// --- DES per-instance scheduling ---------------------------------------------

struct ParScenario {
  QueryGraph query;
  Cluster cluster;
  Placement placement;
};

ParScenario ParallelFilter(double rate, double sel, double cpu, int par) {
  QueryBuilder b;
  // String-heavy tuples keep per-tuple cost high enough that the calibrated
  // boundary rates stay in DES-tractable territory.
  auto s = b.Source(rate, {DataType::kString, DataType::kString,
                           DataType::kString, DataType::kString,
                           DataType::kString, DataType::kString,
                           DataType::kInt});
  auto f = b.Filter(s, FilterFunction::kStartsWith, DataType::kString, sel);
  QueryGraph q = b.Sink(f);
  // Parallelism on every operator: the whole chain scales with `par`, so
  // saturation is governed by multi-instance scheduling (a lone parallel
  // filter would leave the single-instance source as the bottleneck and the
  // sweep would never exercise parallelism).
  for (int i = 0; i < q.num_operators(); ++i) {
    q.mutable_op(i).parallelism = par;
  }
  Cluster cluster{{HardwareNode{cpu, 16000.0, 10000.0, 1.0}}};
  Placement placement(q.num_operators(), 0);
  return ParScenario{std::move(q), std::move(cluster), std::move(placement)};
}

// Per-instance scheduling serves one tuple at one instance-share of the
// operator's cores instead of funneling the whole effective-core budget into
// a single fast server. Capacity (cap * share = effective cores) is
// unchanged — throughput must still agree with the fluid model — but a
// single tuple's service time is honest, so processing latency cannot be
// below the legacy single-server approximation at low load.
TEST(GeoDesVsFluidTest, PerInstanceSchedulingKeepsFluidCapacity) {
  const ParScenario s = ParallelFilter(3000.0, 0.6, 400.0, 4);
  FluidConfig fc;
  fc.noise_sigma = 0.0;
  const FluidReport fluid =
      EvaluateFluid(s.query, s.cluster, s.placement, fc);
  ASSERT_FALSE(fluid.metrics.backpressure);

  DesConfig legacy;
  legacy.duration_s = 20.0;
  legacy.seed = 21;
  const DesReport des_legacy = RunDes(s.query, s.cluster, s.placement, legacy);

  DesConfig per_instance = legacy;
  per_instance.per_instance_scheduling = true;
  const DesReport des_pi = RunDes(s.query, s.cluster, s.placement,
                                  per_instance);

  for (const DesReport* des : {&des_legacy, &des_pi}) {
    EXPECT_FALSE(des->metrics.backpressure);
    EXPECT_TRUE(des->metrics.success);
    const double ratio = fluid.metrics.throughput /
                         std::max(des->metrics.throughput, 1e-9);
    EXPECT_LT(ratio, 1.25);
    EXPECT_GT(ratio, 1.0 / 1.25);
  }
  EXPECT_GE(des_pi.metrics.processing_latency_ms,
            des_legacy.metrics.processing_latency_ms);
}

// Backpressure boundary with parallelism > 1 under per-instance scheduling
// (the regime the legacy single-server DES could not schedule truthfully).
// Integer cores and par <= cores put every instance at exactly speed 1, so
// DES capacity equals fluid capacity and the labels must agree outside a
// ±5% deadband around saturation, by majority inside it.
TEST(GeoDesVsFluidTest, ParallelBackpressureBoundarySweep) {
  struct Combo {
    double cpu;
    int par;
  };
  const Combo combos[] = {{200.0, 2}, {400.0, 4}};

  int deadband_checked = 0;
  int deadband_agree = 0;
  for (const Combo& combo : combos) {
    FluidConfig fc;
    fc.noise_sigma = 0.0;
    const ParScenario probe =
        ParallelFilter(1000.0, 1.0, combo.cpu, combo.par);
    const double u0 =
        EvaluateFluid(probe.query, probe.cluster, probe.placement, fc)
            .bottleneck_utilization;
    ASSERT_GT(u0, 0.0);

    for (int step = 0; step <= 10; ++step) {
      const double target = 0.9 + 0.02 * step;
      const double rate = 1000.0 * target / u0;
      SCOPED_TRACE("cpu " + std::to_string(combo.cpu) + " par " +
                   std::to_string(combo.par) + " target " +
                   std::to_string(target));
      const ParScenario s = ParallelFilter(rate, 1.0, combo.cpu, combo.par);
      const FluidReport fluid =
          EvaluateFluid(s.query, s.cluster, s.placement, fc);
      EXPECT_NEAR(fluid.bottleneck_utilization, target, 0.01);

      DesConfig dc;
      dc.duration_s = 10.0;
      dc.seed = 8000 + static_cast<uint64_t>(step);
      dc.per_instance_scheduling = true;
      const DesReport des = RunDes(s.query, s.cluster, s.placement, dc);

      EXPECT_EQ(fluid.metrics.success, des.metrics.success);
      const bool agree =
          fluid.metrics.backpressure == des.metrics.backpressure;
      if (target <= 0.95 || target >= 1.05) {
        EXPECT_TRUE(agree)
            << "fluid bp " << fluid.metrics.backpressure << " des bp "
            << des.metrics.backpressure;
      } else {
        ++deadband_checked;
        if (agree) ++deadband_agree;
      }
    }
  }
  EXPECT_GE(deadband_agree * 2, deadband_checked);
}

// --- Randomized geo sweep ----------------------------------------------------

// The randomized DES-vs-fluid sweep extended past single-instance operators
// and single-tier clusters: every cluster is a multi-region geo topology
// with a per-link WAN matrix, half the operators carry parallelism 2 or 4,
// and the DES runs per-instance scheduling. Same acceptance structure as
// the legacy sweep: labels agree off the saturation boundary, throughput
// ratios stay inside a generous per-case band with a tight median.
TEST(GeoDesVsFluidTest, RandomizedGeoParallelSweepAgrees) {
  constexpr int kNumQueries = 45;
  constexpr double kThroughputBandPerCase = 12.0;
  constexpr double kThroughputBandMedian = 1.6;
  constexpr double kBorderlineLow = 0.7;
  constexpr double kBorderlineHigh = 1.5;

  workload::GeneratorConfig config;
  config.hardware.geo_probability = 1.0;  // every cluster gets a WAN matrix
  config.parallelism_fraction = 0.5;
  config.parallelism_choices = {2, 4};
  const workload::QueryGenerator generator{config};
  const workload::QueryTemplate templates[] = {
      workload::QueryTemplate::kLinear, workload::QueryTemplate::kTwoWayJoin,
      workload::QueryTemplate::kThreeWayJoin};
  nn::Rng rng(4047);

  std::vector<double> ratios;
  int geo_clusters = 0;
  int label_checked = 0;
  int label_agreements = 0;
  for (int i = 0; i < kNumQueries; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryGraph query = generator.Generate(templates[i % 3], rng);
    const Cluster cluster = generator.GenerateCluster(rng);
    if (cluster.has_link_matrix()) ++geo_clusters;
    const std::vector<int> bins = placement::CapabilityBins(cluster);
    const Placement placed =
        placement::SamplePlacement(query, cluster, bins, rng);

    FluidConfig fluid_config;
    fluid_config.noise_sigma = 0.0;
    const FluidReport fluid =
        EvaluateFluid(query, cluster, placed, fluid_config);
    DesConfig des_config;
    des_config.duration_s = 20.0;
    des_config.seed = 9000 + static_cast<uint64_t>(i);
    des_config.per_instance_scheduling = true;
    const DesReport des = RunDes(query, cluster, placed, des_config);

    const bool borderline = fluid.bottleneck_utilization > kBorderlineLow &&
                            fluid.bottleneck_utilization < kBorderlineHigh;
    if (!borderline) {
      ++label_checked;
      const bool agree =
          fluid.metrics.backpressure == des.metrics.backpressure &&
          fluid.metrics.success == des.metrics.success;
      if (agree) ++label_agreements;
    }
    if (!borderline && fluid.metrics.success && des.metrics.success &&
        !fluid.metrics.backpressure && !des.metrics.backpressure) {
      const double ratio = std::max(fluid.metrics.throughput, 1e-9) /
                           std::max(des.metrics.throughput, 1e-9);
      EXPECT_LT(ratio, kThroughputBandPerCase);
      EXPECT_GT(ratio, 1.0 / kThroughputBandPerCase);
      ratios.push_back(ratio);
    }
  }

  EXPECT_EQ(geo_clusters, kNumQueries);  // geo_probability = 1 is exhaustive
  EXPECT_GE(label_checked, kNumQueries / 2);
  ASSERT_GE(ratios.size(), static_cast<size_t>(kNumQueries / 4));
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  EXPECT_LT(median, kThroughputBandMedian);
  EXPECT_GT(median, 1.0 / kThroughputBandMedian);
  EXPECT_GE(label_agreements, label_checked * 9 / 10)
      << label_agreements << " of " << label_checked << " label agreements";
}

}  // namespace
}  // namespace costream::sim
