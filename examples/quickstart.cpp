// Quickstart: the COSTREAM public API in one file.
//
//  1. Build a streaming query with the fluent QueryBuilder.
//  2. Describe an edge-cloud cluster and place the operators.
//  3. Execute the placed query on the discrete-event simulator.
//  4. Train a small COSTREAM cost model and predict the execution costs of
//     the same placement *without* running it.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/trainer.h"
#include "dsps/query_builder.h"
#include "sim/des.h"
#include "sim/fluid_engine.h"
#include "workload/corpus.h"

using namespace costream;

int main() {
  // --- 1. A streaming query: temperature sensors, filtered, averaged ------
  dsps::QueryBuilder builder;
  auto sensors = builder.Source(
      /*event_rate=*/2000.0,
      {dsps::DataType::kInt, dsps::DataType::kDouble, dsps::DataType::kString});
  auto hot = builder.Filter(sensors, dsps::FilterFunction::kGreater,
                            dsps::DataType::kDouble, /*selectivity=*/0.2);
  dsps::WindowSpec window;
  window.type = dsps::WindowType::kSliding;
  window.policy = dsps::WindowPolicy::kTimeBased;
  window.size = 4.0;   // seconds
  window.slide = 2.0;
  auto averaged = builder.WindowedAggregate(
      hot, window, dsps::AggregateFunction::kMean, dsps::GroupByType::kInt,
      dsps::DataType::kDouble, /*selectivity=*/0.1);
  dsps::QueryGraph query = builder.Sink(averaged);
  std::printf("query: %s\n", query.DebugString().c_str());

  // --- 2. An edge-cloud cluster and a placement ---------------------------
  sim::Cluster cluster;
  cluster.nodes.push_back({100.0, 2000.0, 100.0, 20.0});    // edge gateway
  cluster.nodes.push_back({800.0, 32000.0, 10000.0, 1.0});  // cloud server
  // Source + filter at the edge, the windowed aggregation + sink in the
  // cloud (operator ids follow insertion order: src, filter, window, agg,
  // sink).
  sim::Placement placement = {0, 0, 1, 1, 1};

  // --- 3. Execute on the tuple-level simulator ----------------------------
  sim::DesConfig des_config;
  des_config.duration_s = 10.0;
  const sim::DesReport executed = RunDes(query, cluster, placement, des_config);
  std::printf("\nexecuted on the discrete-event simulator (%.0fs):\n",
              executed.simulated_s);
  std::printf("  throughput        %8.2f tuples/s\n",
              executed.metrics.throughput);
  std::printf("  processing latency%8.1f ms\n",
              executed.metrics.processing_latency_ms);
  std::printf("  e2e latency       %8.1f ms\n",
              executed.metrics.e2e_latency_ms);
  std::printf("  backpressure      %8s\n",
              executed.metrics.backpressure ? "yes" : "no");

  // --- 4. Predict the same costs with a learned model ---------------------
  std::printf("\ntraining a small COSTREAM throughput model...\n");
  workload::CorpusConfig corpus_config;
  corpus_config.num_queries = 800;
  const auto records = workload::BuildCorpus(corpus_config);
  const auto samples =
      workload::ToTrainSamples(records, sim::Metric::kThroughput);

  core::CostModel model(core::CostModelConfig{});
  core::TrainConfig train_config;
  train_config.epochs = 12;
  core::TrainModel(model, samples, {}, train_config);

  const core::JointGraph graph =
      core::BuildJointGraph(query, cluster, placement);
  const double predicted = model.Predict(graph);
  std::printf("predicted throughput: %.2f tuples/s (executed: %.2f)\n",
              predicted, executed.metrics.throughput);
  std::printf(
      "\nSee examples/train_cost_model.cpp for full-quality training and\n"
      "examples/smart_factory_placement.cpp for cost-based placement.\n");
  return 0;
}
