#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/random.h"
#include "obs/metrics.h"
#include "verify/plan_rules.h"
#include "verify/verify.h"

namespace costream::core {

namespace {

struct ClassWeights {
  double positive = 1.0;
  double negative = 1.0;
};

nn::Var SampleLoss(const CostModel& model, nn::Tape& tape,
                   const TrainSample& sample,
                   const ClassWeights& weights = ClassWeights{}) {
  nn::Var out = model.Forward(tape, sample.graph);
  if (model.config().head == HeadKind::kRegression) {
    const double target = std::log1p(std::max(sample.regression_target, 0.0));
    return tape.MseLoss(out, nn::Matrix::Scalar(target));
  }
  nn::Var loss = tape.BceWithLogitsLoss(out, sample.label ? 1.0 : 0.0);
  const double w = sample.label ? weights.positive : weights.negative;
  return w == 1.0 ? loss : tape.Scale(loss, w);
}

// L2 norm over every parameter gradient. Only called while metrics are
// enabled, on the accumulated gradients of an epoch's final batch (after the
// sinks flushed, before Adam::Step clears them).
double GradientNorm(const std::vector<nn::Parameter*>& params) {
  double sum_sq = 0.0;
  for (const nn::Parameter* p : params) {
    const double* g = p->grad.data();
    const size_t n = static_cast<size_t>(p->grad.rows()) * p->grad.cols();
    for (size_t i = 0; i < n; ++i) sum_sq += g[i] * g[i];
  }
  return std::sqrt(sum_sq);
}

ClassWeights ComputeClassWeights(const CostModel& model, SampleSource& train,
                                 bool balance) {
  ClassWeights weights;
  if (!balance || model.config().head != HeadKind::kClassification) {
    return weights;
  }
  // The count is exact in integers; converted to double it matches the
  // historical sum-of-ones accumulation bit for bit (counts < 2^53).
  const double n = static_cast<double>(train.size());
  const double positives = static_cast<double>(train.CountPositiveLabels());
  const double negatives = n - positives;
  if (positives < 1.0 || negatives < 1.0) return weights;
  weights.positive = n / (2.0 * positives);
  weights.negative = n / (2.0 * negatives);
  return weights;
}

// Verifies fetched samples against the model's encoder widths as they
// stream (an out-of-core corpus cannot be checked up front like TrainModel's
// in-memory pre-pass). `ids` names each sample in diagnostics.
void VerifyFetchedBatch(const verify::ModelLayerDims& dims, const char* set,
                        const TrainSample* const* batch, const int64_t* ids,
                        int count) {
  verify::VerifyReport report;
  for (int i = 0; i < count; ++i) {
    report.PushLocationPrefix(std::string(set) + "[" +
                              std::to_string(ids[i]) + "].");
    verify::VerifyJointGraph(batch[i]->graph, &dims, &report);
    report.PopLocationPrefix();
  }
  verify::CheckOrDie(report, "TrainModelStreaming");
}

// Samples per evaluation fetch: bounds the resident validation set while
// keeping the thread pool busy.
constexpr int kEvalChunk = 256;

// Mean per-sample loss, streamed in chunks. Per-sample losses land in
// per-index slots and are summed in sample order (chunked summation visits
// the same additions in the same order as one big pass), so the result
// matches the serial whole-vector evaluation bitwise for any thread count
// and any chunking.
double WeightedLoss(const CostModel& model, SampleSource& samples,
                    const ClassWeights& weights, common::ThreadPool& pool,
                    const verify::ModelLayerDims* verify_dims) {
  const int64_t n = samples.size();
  const int chunk = static_cast<int>(std::min<int64_t>(kEvalChunk, n));
  std::vector<int64_t> ids(chunk);
  std::vector<const TrainSample*> batch(chunk);
  std::vector<double> losses(chunk, 0.0);
  std::vector<nn::Tape> tapes(pool.num_threads());
  double total = 0.0;
  for (int64_t start = 0; start < n; start += chunk) {
    const int len = static_cast<int>(std::min<int64_t>(chunk, n - start));
    std::iota(ids.begin(), ids.begin() + len, start);
    samples.Fetch(ids.data(), len, batch.data());
    if (verify_dims != nullptr) {
      VerifyFetchedBatch(*verify_dims, "val", batch.data(), ids.data(), len);
    }
    pool.ParallelForIndexed(len, [&](int worker, int i) {
      nn::Tape& tape = tapes[worker];
      tape.Reset();
      losses[i] =
          tape.value(SampleLoss(model, tape, *batch[i], weights))(0, 0);
    });
    for (int i = 0; i < len; ++i) total += losses[i];
  }
  return total / static_cast<double>(n);
}

// The epoch driver shared by TrainModel and TrainModelStreaming. All
// determinism-critical structure lives here exactly once: the seeded
// per-epoch shuffle, per-batch-position gradient sinks, index-order
// reductions, and the best-epoch snapshot.
TrainResult TrainLoop(CostModel& model, SampleSource& train, SampleSource& val,
                      const TrainConfig& config, bool verify_batches) {
  COSTREAM_CHECK(train.size() > 0);
  COSTREAM_CHECK(config.epochs > 0 && config.batch_size > 0);

  nn::AdamConfig adam_config;
  adam_config.learning_rate = config.learning_rate;
  nn::Adam adam(model.parameters(), adam_config);
  adam.ZeroGrad();

  nn::Rng rng(config.seed);
  const int64_t num_train = train.size();
  // int64 indices (out-of-core corpora exceed int32), shuffled with the same
  // engine draws std::shuffle makes over any element type — the permutation
  // matches the historical vector<int> one exactly.
  std::vector<int64_t> order(static_cast<size_t>(num_train));
  std::iota(order.begin(), order.end(), int64_t{0});

  const ClassWeights weights =
      ComputeClassWeights(model, train, config.balance_classes);

  TrainResult result;
  result.best_val_loss = std::numeric_limits<double>::infinity();
  std::vector<nn::Matrix> best_snapshot;

  common::ThreadPool pool(config.num_threads);

  const bool verify_on = verify_batches && verify::VerificationEnabled();
  verify::ModelLayerDims verify_dims{};
  if (verify_on) verify_dims = verify::DimsFromModel(model);
  bool plan_proved = false;

  // Per batch-position scratch, reused across batches: its own tape plus a
  // private gradient sink, so workers never touch the shared Parameter::grad.
  struct Slot {
    nn::Tape tape;
    nn::GradientSink sink;
    double loss = 0.0;
  };
  const int batch_size =
      static_cast<int>(std::min<int64_t>(config.batch_size, num_train));
  std::vector<Slot> slots(batch_size);
  for (Slot& slot : slots) slot.sink.Reset(model.parameters());
  std::vector<const TrainSample*> batch(batch_size);

  static obs::Counter& metric_epochs = obs::GetCounter("core.train.epochs");
  static obs::Counter& metric_samples = obs::GetCounter("core.train.samples");
  static obs::Histogram& metric_epoch_us =
      obs::GetHistogram("core.train.epoch_us");
  static obs::Gauge& metric_train_loss =
      obs::GetGauge("core.train.last_train_loss");
  static obs::Gauge& metric_val_loss =
      obs::GetGauge("core.train.last_val_loss");
  static obs::Gauge& metric_grad_norm =
      obs::GetGauge("core.train.last_grad_norm");

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(metric_epoch_us);
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    for (int64_t start = 0; start < num_train;
         start += static_cast<int64_t>(config.batch_size)) {
      const int in_batch = static_cast<int>(
          std::min<int64_t>(config.batch_size, num_train - start));
      train.Fetch(order.data() + start, in_batch, batch.data());
      if (verify_on) {
        VerifyFetchedBatch(verify_dims, "train", batch.data(),
                           order.data() + start, in_batch);
        if (!plan_proved) {
          ForwardPlan plan;
          model.BuildForwardPlan(batch[0]->graph, plan);
          verify::VerifyReport report;
          report.PushLocationPrefix("train[" + std::to_string(order[start]) +
                                    "].");
          verify::VerifyForwardPlan(batch[0]->graph, plan, verify_dims,
                                    &report);
          report.PopLocationPrefix();
          verify::CheckOrDie(report, "TrainModelStreaming");
        }
        plan_proved = true;
      }
      pool.ParallelFor(in_batch, [&](int j) {
        Slot& slot = slots[j];
        slot.tape.Reset();
        slot.sink.Clear();
        nn::Var loss = SampleLoss(model, slot.tape, *batch[j], weights);
        slot.loss = slot.tape.value(loss)(0, 0);
        // Scale so the batch gradient is the mean over the batch.
        nn::Var scaled = slot.tape.Scale(loss, 1.0 / config.batch_size);
        slot.tape.Backward(scaled, &slot.sink);
      });
      // Deterministic reduction: sample order, independent of the schedule.
      for (int j = 0; j < in_batch; ++j) {
        epoch_loss += slots[j].loss;
        slots[j].sink.FlushToParams();
      }
      // Adam::Step clears the gradients, so the norm (of the epoch's final
      // batch only, to bound the cost) must be read here.
      if (start + static_cast<int64_t>(config.batch_size) >= num_train &&
          obs::Enabled()) {
        metric_grad_norm.Set(GradientNorm(model.parameters()));
      }
      adam.Step();
      metric_samples.Add(static_cast<uint64_t>(in_batch));
    }
    metric_epochs.Increment();
    epoch_loss /= static_cast<double>(num_train);
    result.train_losses.push_back(epoch_loss);
    metric_train_loss.Set(epoch_loss);

    const double val_loss =
        val.size() == 0
            ? epoch_loss
            : WeightedLoss(model, val, weights, pool,
                           verify_on ? &verify_dims : nullptr);
    result.val_losses.push_back(val_loss);
    metric_val_loss.Set(val_loss);
    if (val_loss < result.best_val_loss) {
      result.best_val_loss = val_loss;
      result.best_epoch = epoch;
      best_snapshot = model.SnapshotParameters();
    }
    if (config.verbose) {
      std::fprintf(stderr, "epoch %3d  train %.4f  val %.4f\n", epoch,
                   epoch_loss, val_loss);
    }
    adam.set_learning_rate(adam.learning_rate() * config.lr_decay);
  }
  if (!best_snapshot.empty()) model.RestoreParameters(best_snapshot);
  return result;
}

}  // namespace

void VectorSampleSource::Fetch(const int64_t* ids, int count,
                               const TrainSample** out) {
  for (int i = 0; i < count; ++i) {
    COSTREAM_CHECK(ids[i] >= 0 &&
                   ids[i] < static_cast<int64_t>(samples_.size()));
    out[i] = &samples_[static_cast<size_t>(ids[i])];
  }
}

int64_t VectorSampleSource::CountPositiveLabels() {
  int64_t positives = 0;
  for (const TrainSample& sample : samples_) {
    if (sample.label) ++positives;
  }
  return positives;
}

double EvaluateLoss(const CostModel& model,
                    const std::vector<TrainSample>& samples) {
  COSTREAM_CHECK(!samples.empty());
  double total = 0.0;
  nn::Tape tape;
  for (const TrainSample& sample : samples) {
    tape.Reset();
    total += tape.value(SampleLoss(model, tape, sample))(0, 0);
  }
  return total / samples.size();
}

TrainResult TrainModel(CostModel& model, const std::vector<TrainSample>& train,
                       const std::vector<TrainSample>& val,
                       const TrainConfig& config) {
  COSTREAM_CHECK(!train.empty());
  COSTREAM_CHECK(config.epochs > 0 && config.batch_size > 0);

  if (verify::VerificationEnabled()) {
    // Statically verify every sample's joint graph against the model's
    // encoder widths before the first epoch, plus one full forward-plan
    // shape proof on a representative sample — a malformed sample then
    // fails with a located diagnostic instead of mid-epoch inside a GEMM.
    const verify::ModelLayerDims dims = verify::DimsFromModel(model);
    verify::VerifyReport report;
    const auto check_set = [&](const std::vector<TrainSample>& samples,
                               const char* name) {
      for (size_t i = 0; i < samples.size(); ++i) {
        report.PushLocationPrefix(std::string(name) + "[" +
                                  std::to_string(i) + "].");
        verify::VerifyJointGraph(samples[i].graph, &dims, &report);
        report.PopLocationPrefix();
      }
    };
    check_set(train, "train");
    check_set(val, "val");
    if (report.ok()) {
      ForwardPlan plan;
      model.BuildForwardPlan(train.front().graph, plan);
      report.PushLocationPrefix("train[0].");
      verify::VerifyForwardPlan(train.front().graph, plan, dims, &report);
      report.PopLocationPrefix();
    }
    verify::CheckOrDie(report, "TrainModel");
  }

  // The whole corpus was just verified; the driver needn't re-check batches.
  VectorSampleSource train_source(train);
  VectorSampleSource val_source(val);
  return TrainLoop(model, train_source, val_source, config,
                   /*verify_batches=*/false);
}

TrainResult TrainModelStreaming(CostModel& model, SampleSource& train,
                                SampleSource& val, const TrainConfig& config) {
  return TrainLoop(model, train, val, config, /*verify_batches=*/true);
}

eval::QErrorSummary EvaluateRegression(
    const CostModel& model, const std::vector<TrainSample>& samples) {
  COSTREAM_CHECK(model.config().head == HeadKind::kRegression);
  std::vector<double> actual;
  std::vector<double> predicted;
  actual.reserve(samples.size());
  predicted.reserve(samples.size());
  nn::Tape tape;
  for (const TrainSample& sample : samples) {
    actual.push_back(sample.regression_target);
    predicted.push_back(model.Predict(sample.graph, &tape));
  }
  return eval::SummarizeQErrors(actual, predicted);
}

double EvaluateClassification(const CostModel& model,
                              const std::vector<TrainSample>& samples) {
  COSTREAM_CHECK(model.config().head == HeadKind::kClassification);
  std::vector<bool> actual;
  std::vector<bool> predicted;
  actual.reserve(samples.size());
  predicted.reserve(samples.size());
  nn::Tape tape;
  for (const TrainSample& sample : samples) {
    actual.push_back(sample.label);
    predicted.push_back(model.Predict(sample.graph, &tape) >= 0.5);
  }
  return eval::Accuracy(actual, predicted);
}

}  // namespace costream::core
