// Golden digests of the steady-state flow math. The fluid engine, its
// background load and the DF interval analysis all evaluate the same flow
// formulas; these FNV-1a 64 digests over the bit patterns of every output
// pin them, so a change to how the math is organised cannot move a bit.
//
// The generated triples follow the three legs of verify_oracle_sweep_test
// (training-grid clusters, parallelism > 1, geo WAN clusters) with more
// draws per leg. Each triple is evaluated by the fluid engine with and
// without noise and with and without a background load, by
// ComputeBackgroundLoad, and by the interval analysis at zero and at nonzero
// uncertainty. Interval-only fixtures (a cycle, NaN, +inf
// and huge source rates, malformed arity) are not valid fluid inputs and go
// through the interval API alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/codec.h"
#include "dsps/query_graph.h"
#include "nn/random.h"
#include "placement/enumeration.h"
#include "sim/fluid_engine.h"
#include "sim/geo.h"
#include "sim/hardware.h"
#include "verify/interval_analysis.h"
#include "workload/generator.h"

namespace costream {
namespace {

using dsps::OperatorDescriptor;
using dsps::OperatorType;
using dsps::QueryGraph;
using verify::Interval;

// Bit patterns of every value appended, hashed in order.
class Digest {
 public:
  void Add(double v) { values_.push_back(v); }
  void Add(bool b) { values_.push_back(b ? 1.0 : 0.0); }
  void Add(const Interval& v) {
    Add(v.lo);
    Add(v.hi);
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<double>(values.size()));
    for (const T& v : values) Add(v);
  }
  uint64_t Value() const {
    return common::Fnv1a64(values_.data(), values_.size() * sizeof(double));
  }

 private:
  std::vector<double> values_;
};

void AddMetrics(const sim::CostMetrics& m, Digest* d) {
  d->Add(m.throughput);
  d->Add(m.e2e_latency_ms);
  d->Add(m.processing_latency_ms);
  d->Add(m.backpressure);
  d->Add(m.success);
}

void AddFluid(const sim::FluidReport& r, Digest* d) {
  AddMetrics(r.metrics, d);
  AddMetrics(r.noiseless_metrics, d);
  d->Add(r.bottleneck_utilization);
  d->Add(r.source_scale);
  d->Add(r.backpressure_rate);
  d->Add(static_cast<double>(r.node_stats.size()));
  for (const sim::NodeStats& s : r.node_stats) {
    d->Add(s.cpu_utilization);
    d->Add(s.net_utilization);
    d->Add(s.memory_mb);
    d->Add(s.gc_factor);
    d->Add(s.crashed);
  }
  d->Add(r.link_utilization);
  d->Add(r.op_cpu_load_us);
  d->Add(r.op_state_mb);
}

void AddBackground(const sim::BackgroundLoad& b, Digest* d) {
  d->Add(b.cpu_load_us);
  d->Add(b.out_bytes_per_s);
  d->Add(b.memory_mb);
}

void AddQueryIntervals(const verify::QueryIntervalSummary& q, Digest* d) {
  d->Add(q.diverged);
  d->Add(q.inconsistent_source);
  d->Add(q.min_sink_delay_ms);
  d->Add(static_cast<double>(q.ops.size()));
  for (const verify::OpIntervals& f : q.ops) {
    d->Add(f.in_rate);
    d->Add(f.out_rate);
    d->Add(f.window_tuples);
    d->Add(f.window_duration_s);
    d->Add(f.slide_duration_s);
    d->Add(f.groups);
    d->Add(f.state_mb);
    d->Add(f.cpu_load_us);
    d->Add(f.in_bytes);
    d->Add(f.out_bytes);
    d->Add(f.min_delay_ms);
  }
}

void AddPlacementIntervals(const verify::PlacementIntervalSummary& p,
                           Digest* d) {
  d->Add(p.proven_crash);
  d->Add(static_cast<double>(p.nodes.size()));
  for (const verify::NodeIntervals& s : p.nodes) {
    d->Add(s.cpu_load_us);
    d->Add(s.memory_mb);
    d->Add(s.egress_bytes_per_s);
    d->Add(s.gc_factor);
    d->Add(s.cpu_utilization);
    d->Add(s.net_utilization);
    d->Add(s.hosts_op);
    d->Add(s.proven_crash);
    d->Add(s.proven_overload);
  }
  d->Add(p.link_utilization);
}

verify::IntervalOptions Uncertain() {
  verify::IntervalOptions options;
  options.rate_uncertainty = 0.1;
  options.selectivity_uncertainty = 0.05;
  return options;
}

// Both interval passes at zero and nonzero uncertainty, each placed with and
// without `background`.
void AddIntervals(const QueryGraph& query, const sim::Cluster& cluster,
                  const sim::Placement& placement,
                  const sim::BackgroundLoad& background, Digest* d) {
  for (const verify::IntervalOptions& options :
       {verify::IntervalOptions{}, Uncertain()}) {
    const verify::QueryIntervalSummary q =
        verify::AnalyzeQueryIntervals(query, options, nullptr);
    AddQueryIntervals(q, d);
    AddPlacementIntervals(verify::AnalyzePlacementIntervals(
                              query, cluster, placement, q, nullptr, nullptr),
                          d);
    AddPlacementIntervals(
        verify::AnalyzePlacementIntervals(query, cluster, placement, q,
                                          &background, nullptr),
        d);
  }
}

struct Digests {
  Digest fluid;
  Digest background;
  Digest intervals;
};

// One leg of verify_oracle_sweep_test's generator sweep.
template <typename ClusterFactory>
void DigestLeg(const workload::GeneratorConfig& config, uint64_t seed,
               int triples, ClusterFactory make_cluster, Digests* digests) {
  const workload::QueryGenerator generator(config);
  nn::Rng rng(seed);
  const workload::QueryTemplate templates[] = {
      workload::QueryTemplate::kLinear, workload::QueryTemplate::kTwoWayJoin,
      workload::QueryTemplate::kThreeWayJoin,
      workload::QueryTemplate::kFilterChain};
  for (int i = 0; i < triples; ++i) {
    const QueryGraph query = generator.Generate(templates[i % 4], rng);
    const sim::Cluster cluster = make_cluster(generator, rng);
    const std::vector<int> bins = placement::CapabilityBins(cluster);
    const sim::Placement placement =
        placement::SamplePlacement(query, cluster, bins, rng);

    // The triple's own sustained load doubles as a second tenant.
    const sim::BackgroundLoad load =
        sim::ComputeBackgroundLoad(query, cluster, placement);
    AddBackground(load, &digests->background);
    for (const bool loaded : {false, true}) {
      for (const double sigma : {0.0, 0.08}) {
        sim::FluidConfig fluid;
        fluid.noise_sigma = sigma;
        fluid.noise_seed = static_cast<uint64_t>(i);
        if (loaded) fluid.background = load;
        AddFluid(sim::EvaluateFluid(query, cluster, placement, fluid),
                 &digests->fluid);
      }
    }
    AddIntervals(query, cluster, placement, load, &digests->intervals);
  }
}

TEST(FlowMathGoldenTest, GeneratedTriplesAreBitwiseStable) {
  Digests digests;
  const auto training_cluster = [](const workload::QueryGenerator& g,
                                   nn::Rng& rng) {
    return g.GenerateCluster(rng);
  };
  DigestLeg(workload::GeneratorConfig{}, 1234, 300, training_cluster,
            &digests);
  workload::GeneratorConfig parallel;
  parallel.parallelism_fraction = 0.5;
  DigestLeg(parallel, 987, 150, training_cluster, &digests);
  DigestLeg(
      workload::GeneratorConfig{}, 555, 150,
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
      &digests);

  const uint64_t fluid = digests.fluid.Value();
  const uint64_t background = digests.background.Value();
  const uint64_t intervals = digests.intervals.Value();
  EXPECT_EQ(fluid, 0xe526da80d8feeb8dull) << std::hex << fluid;
  EXPECT_EQ(background, 0xf1a2bfdf4b383954ull) << std::hex << background;
  EXPECT_EQ(intervals, 0x08ed52c1ba8ce4cbull) << std::hex << intervals;
}

OperatorDescriptor MakeOp(OperatorType type) {
  OperatorDescriptor op;
  op.type = type;
  op.tuple_width_in = 3.0;
  op.tuple_width_out = 3.0;
  op.selectivity = 0.4;
  if (type == OperatorType::kSource) op.input_event_rate = 2000.0;
  if (type == OperatorType::kWindow) {
    op.window = {dsps::WindowType::kSliding, dsps::WindowPolicy::kCountBased,
                 200.0, 50.0};
  }
  if (type == OperatorType::kAggregate) {
    op.group_by_type = dsps::GroupByType::kInt;
  }
  return op;
}

// source -> window -> join(1 input) -> aggregate(2 inputs) -> sink, with a
// second source feeding the aggregate: arities the fluid engine rejects.
QueryGraph MalformedArity() {
  QueryGraph q;
  q.AddOperator(MakeOp(OperatorType::kSource));     // 0
  q.AddOperator(MakeOp(OperatorType::kWindow));     // 1
  q.AddOperator(MakeOp(OperatorType::kJoin));       // 2
  q.AddOperator(MakeOp(OperatorType::kSource));     // 3
  q.AddOperator(MakeOp(OperatorType::kAggregate));  // 4
  q.AddOperator(MakeOp(OperatorType::kAggregate));  // 5: no input
  q.AddOperator(MakeOp(OperatorType::kSink));       // 6
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(2, 4);
  q.AddEdge(3, 4);
  q.AddEdge(4, 6);
  q.AddEdge(5, 6);
  return q;
}

QueryGraph Cyclic() {
  QueryGraph q;
  q.AddOperator(MakeOp(OperatorType::kSource));
  q.AddOperator(MakeOp(OperatorType::kFilter));
  q.AddOperator(MakeOp(OperatorType::kWindow));
  q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(2, 1);
  q.AddEdge(2, 3);
  return q;
}

// source -> window -> aggregate -> sink with the given source rate.
QueryGraph WindowedAggregate(double rate) {
  QueryGraph q;
  OperatorDescriptor source = MakeOp(OperatorType::kSource);
  source.input_event_rate = rate;
  q.AddOperator(source);
  q.AddOperator(MakeOp(OperatorType::kWindow));
  q.AddOperator(MakeOp(OperatorType::kAggregate));
  q.AddOperator(MakeOp(OperatorType::kSink));
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(2, 3);
  return q;
}

TEST(FlowMathGoldenTest, IntervalOnlyFixturesAreBitwiseStable) {
  sim::Cluster cluster{{sim::HardwareNode{400.0, 16000.0, 1000.0, 5.0},
                        sim::HardwareNode{100.0, 2000.0, 100.0, 25.0}}};
  sim::Cluster geo = cluster;
  geo.link_bandwidth_mbits = {0.0, 50.0, 80.0, 0.0};
  geo.link_latency_ms = {0.0, 30.0, 30.0, 0.0};
  sim::BackgroundLoad background;
  background.cpu_load_us = {2.5e5, 1e5};
  background.out_bytes_per_s = {1e6, 3e5};
  background.memory_mb = {900.0, 300.0};

  const std::vector<QueryGraph> queries = {
      Cyclic(), MalformedArity(),
      WindowedAggregate(std::numeric_limits<double>::quiet_NaN()),
      WindowedAggregate(std::numeric_limits<double>::infinity()),
      WindowedAggregate(1e308)};
  Digest digest;
  for (const QueryGraph& query : queries) {
    sim::Placement placement(query.num_operators(), 0);
    for (int id = 0; id < query.num_operators(); id += 2) placement[id] = 1;
    AddIntervals(query, cluster, placement, background, &digest);
    AddIntervals(query, geo, placement, background, &digest);
  }
  const uint64_t value = digest.Value();
  EXPECT_EQ(value, 0xf47dd65f76f42bbfull) << std::hex << value;
}

}  // namespace
}  // namespace costream
