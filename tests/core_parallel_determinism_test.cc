// The thread-pool parallel paths must be invisible in the numerics: training
// with num_threads = N produces bitwise-identical parameters to
// num_threads = 1 after every epoch, ensemble predictions are identical, and
// the placement optimizer / enumerator / parallelism tuner return identical
// results for every thread count. These tests are the contract that lets the
// parallel code ship without a tolerance anywhere.
#include <vector>

#include <gtest/gtest.h>

#include "core/ensemble.h"
#include "core/trainer.h"
#include "placement/enumeration.h"
#include "placement/optimizer.h"
#include "placement/parallelism_tuner.h"
#include "workload/corpus.h"

namespace costream {
namespace {

std::vector<workload::TraceRecord> FixedCorpus(int num_queries,
                                               uint64_t seed) {
  workload::CorpusConfig config;
  config.num_queries = num_queries;
  config.seed = seed;
  config.duration_s = 60.0;
  return workload::BuildCorpus(config);
}

void ExpectParamsIdentical(const std::vector<nn::Matrix>& a,
                           const std::vector<nn::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].SameShape(b[i]));
    for (int j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i].data()[j], b[i].data()[j])
          << "param " << i << " entry " << j;
    }
  }
}

TEST(ParallelDeterminismTest, TrainedParametersIdenticalAfterEveryEpoch) {
  const auto records = FixedCorpus(36, 17);
  const auto samples =
      workload::ToTrainSamples(records, sim::Metric::kThroughput);
  ASSERT_GE(samples.size(), 20u);

  core::CostModelConfig model_config;
  model_config.hidden_dim = 16;
  core::CostModel serial_model(model_config);
  core::CostModel parallel_model(model_config);

  // Train epoch by epoch so the parameters can be compared after each one.
  for (int epoch = 0; epoch < 3; ++epoch) {
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 8;
    tc.seed = 100 + epoch;
    tc.num_threads = 1;
    const core::TrainResult serial =
        core::TrainModel(serial_model, samples, {}, tc);
    tc.num_threads = 4;
    const core::TrainResult parallel =
        core::TrainModel(parallel_model, samples, {}, tc);

    ASSERT_EQ(serial.train_losses.size(), parallel.train_losses.size());
    for (size_t i = 0; i < serial.train_losses.size(); ++i) {
      ASSERT_EQ(serial.train_losses[i], parallel.train_losses[i]);
      ASSERT_EQ(serial.val_losses[i], parallel.val_losses[i]);
    }
    ExpectParamsIdentical(serial_model.SnapshotParameters(),
                          parallel_model.SnapshotParameters());
  }
}

TEST(ParallelDeterminismTest, MultiEpochRunWithValidationIdentical) {
  const auto records = FixedCorpus(30, 23);
  const auto train =
      workload::ToTrainSamples(records, sim::Metric::kProcessingLatency);
  ASSERT_GE(train.size(), 12u);
  const std::vector<core::TrainSample> val(train.begin(), train.begin() + 6);

  core::CostModelConfig model_config;
  model_config.hidden_dim = 16;
  core::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 5;  // exercises a ragged final batch
  tc.seed = 7;

  core::CostModel serial_model(model_config);
  tc.num_threads = 1;
  const core::TrainResult serial = core::TrainModel(serial_model, train, val, tc);
  core::CostModel parallel_model(model_config);
  tc.num_threads = 4;
  const core::TrainResult parallel =
      core::TrainModel(parallel_model, train, val, tc);

  ASSERT_EQ(serial.best_epoch, parallel.best_epoch);
  ASSERT_EQ(serial.best_val_loss, parallel.best_val_loss);
  ASSERT_EQ(serial.train_losses, parallel.train_losses);
  ASSERT_EQ(serial.val_losses, parallel.val_losses);
  ExpectParamsIdentical(serial_model.SnapshotParameters(),
                        parallel_model.SnapshotParameters());
}

TEST(ParallelDeterminismTest, EnsembleTrainingAndPredictionIdentical) {
  const auto records = FixedCorpus(24, 31);
  const auto samples =
      workload::ToTrainSamples(records, sim::Metric::kBackpressure);
  ASSERT_GE(samples.size(), 10u);

  core::CostModelConfig model_config;
  model_config.hidden_dim = 12;
  model_config.head = core::HeadKind::kClassification;

  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;

  core::Ensemble serial_ensemble(model_config, 3);
  tc.num_threads = 1;
  serial_ensemble.Train(samples, {}, tc);

  core::Ensemble parallel_ensemble(model_config, 3);
  tc.num_threads = 4;
  parallel_ensemble.Train(samples, {}, tc);
  parallel_ensemble.set_num_threads(4);

  for (int i = 0; i < serial_ensemble.size(); ++i) {
    ExpectParamsIdentical(serial_ensemble.member(i).SnapshotParameters(),
                          parallel_ensemble.member(i).SnapshotParameters());
  }
  for (const auto& record : records) {
    const core::JointGraph graph = core::BuildJointGraph(
        record.query, record.cluster, record.placement);
    ASSERT_EQ(serial_ensemble.Predict(graph), parallel_ensemble.Predict(graph));
    ASSERT_EQ(serial_ensemble.PredictBinary(graph),
              parallel_ensemble.PredictBinary(graph));
  }
}

TEST(ParallelDeterminismTest, CandidateEnumerationIdentical) {
  const auto records = FixedCorpus(6, 41);
  for (const auto& record : records) {
    placement::EnumerationConfig config;
    config.num_candidates = 25;
    config.num_threads = 1;
    const auto serial =
        placement::EnumerateCandidates(record.query, record.cluster, config);
    config.num_threads = 4;
    const auto parallel =
        placement::EnumerateCandidates(record.query, record.cluster, config);
    ASSERT_EQ(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, OptimizerRankingIdentical) {
  const auto records = FixedCorpus(4, 47);

  core::CostModelConfig regression_config;
  regression_config.hidden_dim = 12;
  core::Ensemble target(regression_config, 2);

  core::CostModelConfig classification_config = regression_config;
  classification_config.head = core::HeadKind::kClassification;
  classification_config.seed = 11;
  core::Ensemble success(classification_config, 2);
  classification_config.seed = 21;
  core::Ensemble backpressure(classification_config, 2);

  const placement::PlacementOptimizer optimizer(&target, &success,
                                                &backpressure);
  for (const auto& record : records) {
    placement::OptimizerConfig config;
    config.enumeration.num_candidates = 30;
    config.num_threads = 1;
    config.enumeration.num_threads = 1;
    const auto serial = optimizer.Optimize(record.query, record.cluster, config);
    config.num_threads = 4;
    config.enumeration.num_threads = 4;
    const auto parallel =
        optimizer.Optimize(record.query, record.cluster, config);

    ASSERT_EQ(serial.best, parallel.best);
    ASSERT_EQ(serial.predicted_cost, parallel.predicted_cost);
    ASSERT_EQ(serial.any_feasible, parallel.any_feasible);
    ASSERT_EQ(serial.candidates_evaluated, parallel.candidates_evaluated);
    ASSERT_EQ(serial.candidates_filtered, parallel.candidates_filtered);
  }
}

TEST(ParallelDeterminismTest, ParallelismTunerIdentical) {
  const auto records = FixedCorpus(3, 53);

  core::CostModelConfig config;
  config.hidden_dim = 12;
  core::Ensemble target(config, 2);

  for (const auto& record : records) {
    placement::ParallelismTunerConfig tuner_config;
    tuner_config.max_rounds = 3;
    tuner_config.num_threads = 1;
    const auto serial = placement::TuneParallelism(
        record.query, record.cluster, record.placement, target, tuner_config);
    tuner_config.num_threads = 4;
    const auto parallel = placement::TuneParallelism(
        record.query, record.cluster, record.placement, target, tuner_config);

    ASSERT_EQ(serial.parallelism, parallel.parallelism);
    ASSERT_EQ(serial.predicted_initial, parallel.predicted_initial);
    ASSERT_EQ(serial.predicted_tuned, parallel.predicted_tuned);
    ASSERT_EQ(serial.changes, parallel.changes);
  }
}

}  // namespace
}  // namespace costream
