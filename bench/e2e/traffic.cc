// bench_service.cc is compiled into this file with its main() renamed: its
// cluster, tenant mix, big-window query and throughput-model recipe live in
// its anonymous namespace, and the wrappers below hand them to the workloads.
// Everything bench_service.cc includes comes first, so the rename reaches
// nothing but its own main().
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/ensemble.h"
#include "core/trainer.h"
#include "dsps/query_graph.h"
#include "obs/metrics.h"
#include "service/placement_service.h"
#include "sim/fluid_engine.h"
#include "workload/corpus.h"
#include "workload/generator.h"

#define main bench_service_main
#include "../bench_service.cc"
#undef main

#include "placement/enumeration.h"
#include "traffic.h"

namespace costream::e2e {

namespace {

// CPU share of the crowd cluster's fog nodes. At 0.45 a crowd of 100 tenants
// per fog node overflows a few nodes after admission and Converge() resolves
// it in a handful of rip-up iterations; at 0.5 most crowds fit outright and
// at 0.35 Converge() hits its iteration cap.
constexpr double kCrowdCpuShare = 0.45;

// workload::BuildCorpus's record seed: splitmix64 over (seed, index).
uint64_t RecordSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

workload::QueryTemplate SampleTemplate(const workload::CorpusConfig& config,
                                       nn::Rng& rng) {
  double total = 0.0;
  for (double w : config.template_weights) total += w;
  double u = rng.Uniform(0.0, total);
  for (size_t i = 0; i < config.templates.size(); ++i) {
    u -= config.template_weights[i];
    if (u <= 0.0) return config.templates[i];
  }
  return config.templates.back();
}

}  // namespace

sim::Cluster ServiceCluster() { return costream::ServiceCluster(); }

sim::Cluster CrowdCluster(int fog_nodes) {
  const sim::Cluster fog = costream::ServiceCluster();
  const sim::Cluster edge = costream::PruningAbCluster();
  sim::Cluster cluster;
  for (int i = 0; i < fog_nodes; ++i) {
    sim::HardwareNode node = fog.nodes[i];
    node.cpu_pct *= kCrowdCpuShare;
    cluster.nodes.push_back(node);
  }
  cluster.nodes.push_back(edge.nodes[0]);
  cluster.nodes.push_back(edge.nodes[1]);
  return cluster;
}

workload::GeneratorConfig TenantWorkload() {
  return costream::TenantWorkload();
}

dsps::QueryGraph TenantQuery(const workload::QueryGenerator& generator,
                             nn::Rng& rng) {
  const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
  return generator.Generate(t, rng);
}

dsps::QueryGraph BigWindowQuery(double rate) {
  return costream::BigWindowQuery(rate);
}

ServiceModels TrainServiceModels(bool with_success) {
  ServiceModels models;
  models.target =
      std::make_unique<core::Ensemble>(costream::TrainThroughputEnsemble());
  if (with_success) {
    // bench_service serves no success classifier. This one is trained the
    // way bench_micro's scoring fast path trains its classifier (ten epochs:
    // an undertrained classifier rejects far more placements than the labels
    // justify), on the corpus of bench_service's throughput model.
    workload::CorpusConfig cc;
    cc.num_queries = bench::ScaledCorpusSize(150);
    cc.seed = 71;
    cc.duration_s = 30.0;
    cc.num_threads = bench::BenchThreads();
    core::CostModelConfig config;
    config.hidden_dim = 16;
    config.head = core::HeadKind::kClassification;
    config.seed = 5;
    core::TrainConfig tc;
    tc.epochs = 10;
    tc.num_threads = bench::BenchThreads();
    models.success = std::make_unique<core::Ensemble>(config, 1);
    models.success->Train(
        workload::ToTrainSamples(workload::BuildCorpus(cc),
                                 sim::Metric::kSuccess,
                                 core::FeaturizationMode::kFull,
                                 bench::BenchThreads()),
        {}, tc);
  }
  return models;
}

workload::TraceRecord LabelRecord(const workload::CorpusConfig& config,
                                  const workload::QueryGenerator& generator,
                                  int64_t index, LabelStages* stages) {
  nn::Rng rng(RecordSeed(config.seed, static_cast<uint64_t>(index)));
  workload::TraceRecord record;
  record.template_kind = SampleTemplate(config, rng);
  record.query = generator.Generate(record.template_kind, rng);
  record.cluster = generator.GenerateCluster(rng);
  record.num_filters = record.query.CountType(dsps::OperatorType::kFilter);
  if (rng.Bernoulli(config.random_placement_fraction)) {
    record.placement.resize(record.query.num_operators());
    for (int& node : record.placement) {
      node = rng.Int(0, record.cluster.num_nodes() - 1);
    }
  } else {
    record.placement = placement::SamplePlacement(
        record.query, record.cluster,
        placement::CapabilityBins(record.cluster), rng);
  }
  if (stages != nullptr) stages->generated = Clock::now();
  sim::FluidConfig fluid;
  fluid.duration_s = config.duration_s;
  fluid.noise_sigma = config.noise_sigma;
  fluid.noise_seed = rng.Fork();
  record.metrics =
      sim::EvaluateFluid(record.query, record.cluster, record.placement, fluid)
          .metrics;
  if (stages != nullptr) stages->labelled = Clock::now();
  return record;
}

bool LabelRecipeMatches(const workload::CorpusConfig& config,
                        const workload::QueryGenerator& generator, int count) {
  workload::CorpusConfig head = config;
  head.num_queries = count;
  const std::vector<workload::TraceRecord> built = workload::BuildCorpus(head);
  for (int i = 0; i < count; ++i) {
    Digest a;
    Digest b;
    AddRecord(a, built[i]);
    AddRecord(b, LabelRecord(config, generator, i));
    if (a.value() != b.value()) return false;
  }
  return true;
}

void AddRecord(Digest& digest, const workload::TraceRecord& record) {
  digest.Add(static_cast<uint64_t>(record.template_kind));
  digest.Add(static_cast<uint64_t>(record.query.num_operators()));
  digest.AddPlacement(record.placement);
  digest.AddDouble(record.metrics.throughput);
  digest.AddDouble(record.metrics.processing_latency_ms);
  digest.AddDouble(record.metrics.e2e_latency_ms);
  digest.Add(record.metrics.backpressure ? 1 : 0);
  digest.Add(record.metrics.success ? 1 : 0);
}

}  // namespace costream::e2e
