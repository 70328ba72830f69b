#ifndef COSTREAM_BENCH_E2E_TRAFFIC_H_
#define COSTREAM_BENCH_E2E_TRAFFIC_H_

// Inputs of the costream-bench workloads: clusters, tenant query mix, the
// service's cost models and the stage-timed labelling recipe. The tenant
// traffic and the throughput model are bench/bench_service.cc's own:
// traffic.cc compiles that file in, so both benchmarks serve the same
// tenants from one copy.

#include <cstdint>
#include <memory>

#include "bench_support.h"
#include "core/ensemble.h"
#include "dsps/query_graph.h"
#include "nn/random.h"
#include "sim/hardware.h"
#include "workload/corpus.h"
#include "workload/generator.h"

namespace costream::e2e {

// bench_service's 24-node fog cluster.
sim::Cluster ServiceCluster();

// Flash-crowd cluster: the first `fog_nodes` nodes of ServiceCluster with
// their CPU derated so a crowd of 100 tenants per fog node overflows them,
// plus the two 100 MB edge boxes of bench_service's pruning A/B, on which big
// count windows provably crash.
sim::Cluster CrowdCluster(int fog_nodes);

// bench_service's tenant generator configuration.
workload::GeneratorConfig TenantWorkload();

// One tenant of the mix: linear, 2-way or 3-way join with equal weight.
dsps::QueryGraph TenantQuery(const workload::QueryGenerator& generator,
                             nn::Rng& rng);

// bench_service's big count-window query.
dsps::QueryGraph BigWindowQuery(double rate);

// The service's cost models: bench_service's throughput ensemble and, when
// asked for, a success classifier trained on the same corpus. Every seed is
// served by the same models.
struct ServiceModels {
  std::unique_ptr<core::Ensemble> target;
  std::unique_ptr<core::Ensemble> success;
};
ServiceModels TrainServiceModels(bool with_success);

// Record `index` of workload::BuildCorpus(config), built by the same
// per-record recipe with its stages exposed: `stages`, when given, receives
// the end of generation and of labelling. `generator` must be built from
// config.generator. LabelRecipeMatches checks the first `count` records
// against BuildCorpus bit for bit.
struct LabelStages {
  Clock::time_point generated;
  Clock::time_point labelled;
};
workload::TraceRecord LabelRecord(const workload::CorpusConfig& config,
                                  const workload::QueryGenerator& generator,
                                  int64_t index,
                                  LabelStages* stages = nullptr);
bool LabelRecipeMatches(const workload::CorpusConfig& config,
                        const workload::QueryGenerator& generator, int count);

// Digest of everything a labelled record carries that labelling decides.
void AddRecord(Digest& digest, const workload::TraceRecord& record);

}  // namespace costream::e2e

#endif  // COSTREAM_BENCH_E2E_TRAFFIC_H_
