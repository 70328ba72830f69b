// Training-side workloads: label-corpus (generator -> fluid engine -> v2c
// TraceWriter), train-memory (in-memory training over the paper-scale
// corpus) and train-stream (out-of-core training through TraceReader and
// StreamingCorpus). Both trainers run TrainLoop through
// core::TrainModelStreaming, the epoch loop TrainModel delegates to, behind a
// SampleSource wrapper that stamps every batch fetch: the step from one
// fetch to the next is the operation whose latency and rate are reported.

#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>

#include "bench_support.h"
#include "core/trainer.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "traffic.h"
#include "workload/corpus.h"
#include "workload/streaming.h"
#include "workload/trace_io.h"
#include "workload/trace_reader.h"

namespace costream::e2e {

namespace {

// The paper's corpus size.
constexpr int64_t kPaperCorpus = 43281;
constexpr int64_t kSmokeCorpus = 4000;
// label-corpus set-up labels and writes this many records before timing.
constexpr int64_t kLabelWarmup = 16384;
// train-memory: one job trains a fresh model for one epoch over this many
// samples; consecutive jobs walk the whole train split slice by slice.
constexpr int64_t kJobSamples = 4096;
// train-stream: records of the train split one streamed epoch covers. They
// are a shuffled subset, so every epoch touches every block of the file.
constexpr int64_t kStreamRecords = 512;
constexpr int64_t kSmokeStreamRecords = 256;

uint64_t WeightsDigest(const core::CostModel& model) {
  Digest digest;
  for (const nn::Matrix& m : model.SnapshotParameters()) {
    const size_t n = static_cast<size_t>(m.rows()) * m.cols();
    for (size_t i = 0; i < n; ++i) digest.AddDouble(m.data()[i]);
  }
  return digest.value();
}

uint64_t LossesDigest(const std::vector<double>& losses) {
  Digest digest;
  for (double loss : losses) digest.AddDouble(loss);
  return digest.value();
}

// Forwards to `inner` and stamps every batch fetch.
class StepClock final : public core::SampleSource {
 public:
  struct Batch {
    Clock::time_point fetch0;
    Clock::time_point fetch1;
    std::vector<int64_t> ids;
  };

  explicit StepClock(core::SampleSource& inner) : inner_(inner) {}
  int64_t size() const override { return inner_.size(); }
  int64_t CountPositiveLabels() override {
    return inner_.CountPositiveLabels();
  }
  void Fetch(const int64_t* ids, int count,
             const core::TrainSample** out) override {
    Batch batch;
    batch.fetch0 = Clock::now();
    inner_.Fetch(ids, count, out);
    batch.fetch1 = Clock::now();
    batch.ids.assign(ids, ids + count);
    batches_.push_back(std::move(batch));
  }
  const std::vector<Batch>& batches() const { return batches_; }

 private:
  core::SampleSource& inner_;
  std::vector<Batch> batches_;
};

// A contiguous slice of an in-memory sample vector.
class SliceSource final : public core::SampleSource {
 public:
  SliceSource(const std::vector<core::TrainSample>& samples, int64_t begin,
              int64_t count)
      : samples_(samples), begin_(begin), count_(count) {}
  int64_t size() const override { return count_; }
  void Fetch(const int64_t* ids, int count,
             const core::TrainSample** out) override {
    for (int i = 0; i < count; ++i) out[i] = &samples_[begin_ + ids[i]];
  }
  int64_t CountPositiveLabels() override {
    int64_t positives = 0;
    for (int64_t i = 0; i < count_; ++i) positives += samples_[begin_ + i].label;
    return positives;
  }

 private:
  const std::vector<core::TrainSample>& samples_;
  int64_t begin_;
  int64_t count_;
};

// Replays a sampled batch's training step on a model of its own: the
// regression loss forward, the backward pass into per-sample gradient sinks
// and the Adam step — the three stages TrainLoop runs per batch.
class BatchReplayer {
 public:
  BatchReplayer()
      : model_(core::CostModelConfig{}),
        adam_(model_.parameters(), nn::AdamConfig{}) {}

  void Replay(int64_t op, const std::vector<const core::TrainSample*>& batch,
              LayerRecorder& layers) {
    const int count = static_cast<int>(batch.size());
    while (static_cast<int>(slots_.size()) < count) {
      slots_.emplace_back();
      slots_.back().sink.Reset(model_.parameters());
    }
    const double scale = 1.0 / core::TrainConfig{}.batch_size;
    layers.Time(op, "core.train_forward", "train_step", true, [&] {
      for (int j = 0; j < count; ++j) {
        Slot& slot = slots_[j];
        slot.tape.Reset();
        slot.sink.Clear();
        const nn::Var out = model_.Forward(slot.tape, batch[j]->graph);
        const double target =
            std::log1p(std::max(batch[j]->regression_target, 0.0));
        slot.loss = slot.tape.MseLoss(out, nn::Matrix::Scalar(target));
        slot.value = slot.tape.value(slot.loss)(0, 0);
      }
    });
    layers.Time(op, "core.train_backward", "train_step", true, [&] {
      for (int j = 0; j < count; ++j) {
        Slot& slot = slots_[j];
        slot.tape.Backward(slot.tape.Scale(slot.loss, scale), &slot.sink);
      }
    });
    layers.Time(op, "nn.adam_step", "train_step", true, [&] {
      for (int j = 0; j < count; ++j) slots_[j].sink.FlushToParams();
      adam_.Step();
    });
  }

 private:
  struct Slot {
    nn::Tape tape;
    nn::GradientSink sink;
    nn::Var loss;
    double value = 0.0;
  };
  core::CostModel model_;
  nn::Adam adam_;
  std::deque<Slot> slots_;  // stable addresses; sinks are never moved
};

struct JobOutcome {
  std::unique_ptr<core::CostModel> model;
  std::vector<double> losses;
  uint64_t weights = 0;
  int64_t samples = 0;
};

// Trains a fresh default model for one epoch over `source`. With `result`
// given, every batch step (from its fetch to the next fetch, or to the end
// of the job) is booked as one operation; sampled steps also book their
// fetch and are handed to `replay` with the batch's sample ids.
JobOutcome TrainOneEpoch(
    core::SampleSource& source, RunResult* result, LayerRecorder* layers,
    int64_t* batch_index,
    const std::function<void(int64_t, const std::vector<int64_t>&)>& replay) {
  static const std::vector<core::TrainSample> kNoSamples;
  core::VectorSampleSource no_validation(kNoSamples);
  StepClock clock(source);
  JobOutcome outcome;
  outcome.model = std::make_unique<core::CostModel>(core::CostModelConfig{});
  core::TrainConfig config;
  config.epochs = 1;
  config.num_threads = 1;
  outcome.losses =
      core::TrainModelStreaming(*outcome.model, clock, no_validation, config)
          .train_losses;
  const Clock::time_point end = Clock::now();
  outcome.weights = WeightsDigest(*outcome.model);
  outcome.samples = source.size();
  if (result == nullptr) return outcome;

  const std::vector<StepClock::Batch>& batches = clock.batches();
  for (size_t k = 0; k < batches.size(); ++k) {
    const StepClock::Batch& batch = batches[k];
    const Clock::time_point step_end =
        k + 1 < batches.size() ? batches[k + 1].fetch0 : end;
    const double step_s = Seconds(batch.fetch0, step_end);
    const double samples = static_cast<double>(batch.ids.size());
    result->latency_us.push_back(step_s * 1e6);
    result->throughput.Add(samples, step_s);
    result->attempted += static_cast<int64_t>(batch.ids.size());
    if (layers->enabled() && *batch_index % kSampleEvery == 0) {
      layers->Op(*batch_index, "train_step", batch.fetch0, step_end);
      layers->Add(*batch_index, "workload.fetch", "train_step", true,
                  batch.fetch0, batch.fetch1);
      replay(*batch_index, batch.ids);
    }
    ++*batch_index;
  }
  for (double loss : outcome.losses) {
    if (!std::isfinite(loss)) result->failed += outcome.samples;
  }
  return outcome;
}

// The trace file at `path` holds `count` records, and spot records equal a
// fresh labelling of the same index (`first` is the file's first index).
bool ReadsBack(const std::string& path, const workload::CorpusConfig& config,
               const workload::QueryGenerator& generator, int64_t first,
               int64_t count) {
  const std::unique_ptr<workload::TraceReader> reader =
      workload::TraceReader::Open(path);
  if (reader == nullptr || reader->num_records() != count) return false;
  for (int k = 0; k < 8 && count > 0; ++k) {
    const int64_t index = count * k / 8;
    workload::TraceRecord stored;
    if (!reader->Get(index, &stored)) return false;
    Digest a;
    Digest b;
    AddRecord(a, stored);
    AddRecord(b, LabelRecord(config, generator, first + index));
    if (a.value() != b.value()) return false;
  }
  return true;
}

std::string ScratchFile(const RunOptions& options, const char* name) {
  return options.scratch_dir + "/" + name;
}

// The default corpus recipe (paper template mix, 4-minute fluid labels) with
// the run's seed, generated on one thread.
workload::CorpusConfig Corpus(const RunOptions& options, int64_t records) {
  workload::CorpusConfig config;
  config.num_queries = static_cast<int>(records);
  config.seed = options.seed;
  config.num_threads = 1;
  return config;
}

}  // namespace

void RunLabelCorpus(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers) {
  const workload::CorpusConfig config = Corpus(options, kPaperCorpus);
  const workload::QueryGenerator generator(config.generator);
  const std::string path = ScratchFile(options, "label-corpus.v2c");
  workload::TraceWriter::Options writer_options;
  writer_options.format = workload::TraceFormat::kBinaryV2Compressed;

  // Set-up: open a writer and label a first stretch of records.
  std::vector<uint64_t> warmup_digests;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    workload::TraceWriter writer;
    bool ok = writer.Open(path, writer_options);
    Digest digest;
    for (int64_t i = 0; i < kLabelWarmup && ok; ++i) {
      const workload::TraceRecord record = LabelRecord(config, generator, i);
      ok = writer.Append(record);
      AddRecord(digest, record);
    }
    ok = writer.Finish() && ok;
    result.setup_s.push_back(Seconds(t0, Clock::now()));
    warmup_digests.push_back(ok ? digest.value() : 0);
  }
  result.Check("warmup_digest_equal_across_setups",
               AllEqual(warmup_digests) && warmup_digests.front() != 0);

  // Measured: label and append records until the time is up and the digest
  // is full. The corpus is written in files of the paper's corpus size; a
  // full file is finished (its block index written, counted as busy time),
  // read back and deleted.
  workload::TraceWriter writer;
  bool writer_ok = writer.Open(path, writer_options);
  bool readable = true;
  Digest digest;
  int64_t written = 0;
  int64_t file_first = 0;  // index of the current file's first record
  const auto finish_file = [&] {
    const Clock::time_point f0 = Clock::now();
    writer_ok = writer.Finish() && writer_ok;
    result.throughput.Add(0.0, Seconds(f0, Clock::now()));
    const int64_t count = written - file_first;
    writer_ok = writer_ok &&
                static_cast<int64_t>(writer.records_written()) == count;
    readable = readable && ReadsBack(path, config, generator,
                                     kLabelWarmup + file_first, count);
    std::remove(path.c_str());
    file_first = written;
  };
  const Clock::time_point deadline = Deadline(options.seconds);
  while (Clock::now() < deadline || written < kDigestOps) {
    const bool sampled = layers.enabled() && written % kSampleEvery == 0;
    LabelStages stages;
    const Clock::time_point t0 = Clock::now();
    const workload::TraceRecord record =
        LabelRecord(config, generator, kLabelWarmup + written,
                    sampled ? &stages : nullptr);
    const Clock::time_point t1 = Clock::now();
    const bool appended = writer.Append(record);
    const Clock::time_point t2 = Clock::now();

    ++result.attempted;
    if (!appended) ++result.failed;
    result.latency_us.push_back(Micros(t0, t2));
    result.throughput.Add(1.0, Seconds(t0, t2));
    if (written < kDigestOps) AddRecord(digest, record);
    if (sampled) {
      layers.Op(written, "label", t0, t2);
      layers.Add(written, "workload.generate", "label", true, t0,
                 stages.generated);
      layers.Add(written, "sim.fluid", "label", true, stages.generated,
                 stages.labelled);
      layers.Add(written, "workload.trace_append", "label", true, t1, t2);
    }
    ++written;
    if (written - file_first == kPaperCorpus) {
      finish_file();
      writer_ok = writer.Open(path, writer_options) && writer_ok;
    }
  }
  finish_file();
  result.Check("trace_files_written", writer_ok);
  result.Check("trace_files_read_back", readable);
  result.Check("label_recipe_matches_build_corpus",
               LabelRecipeMatches(config, generator, 64));
  result.digest = digest.value();
  result.digest_ops = kDigestOps;
  result.Info("records", static_cast<double>(written), "count");
}

void RunTrainMemory(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers) {
  const int64_t corpus = options.smoke ? kSmokeCorpus : kPaperCorpus;

  // Set-up: build the corpus in memory, split 80/10/10 and featurize.
  std::vector<core::TrainSample> train;
  std::vector<core::TrainSample> test;
  std::vector<uint64_t> label_digests;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    train = {};
    test = {};
    const std::vector<workload::TraceRecord> records =
        workload::BuildCorpus(Corpus(options, corpus));
    Digest digest;
    for (const workload::TraceRecord& record : records) {
      AddRecord(digest, record);
    }
    const workload::SplitIndices split =
        workload::SplitCorpus(corpus, 0.8, 0.1, Mix64(options.seed));
    train = workload::ToTrainSamples(workload::Gather(records, split.train),
                                     sim::Metric::kThroughput);
    test = workload::ToTrainSamples(workload::Gather(records, split.test),
                                    sim::Metric::kThroughput);
    result.setup_s.push_back(Seconds(t0, Clock::now()));
    label_digests.push_back(digest.value());
  }
  result.Check("corpus_digest_equal_across_setups", AllEqual(label_digests));

  // Measured: one-epoch jobs of fresh models, each on the next slice.
  const int64_t job_samples =
      std::min<int64_t>(kJobSamples, static_cast<int64_t>(train.size()));
  const int64_t slices = static_cast<int64_t>(train.size()) / job_samples;
  BatchReplayer replayer;
  int64_t batch_index = 0;
  int64_t begin = 0;
  const auto replay = [&](int64_t op, const std::vector<int64_t>& ids) {
    std::vector<const core::TrainSample*> batch;
    for (int64_t id : ids) batch.push_back(&train[begin + id]);
    replayer.Replay(op, batch, layers);
  };
  uint64_t first_weights = 0;
  int jobs = 0;
  const Clock::time_point deadline = Deadline(options.seconds);
  while (Clock::now() < deadline) {
    begin = (jobs % slices) * job_samples;
    SliceSource slice(train, begin, job_samples);
    const JobOutcome job =
        TrainOneEpoch(slice, &result, &layers, &batch_index, replay);
    if (jobs == 0) first_weights = job.weights;
    ++jobs;
  }

  // Repeat the first job untimed: training is deterministic, so the weights
  // must come out bit for bit the same.
  SliceSource first_slice(train, 0, job_samples);
  const JobOutcome repeat =
      TrainOneEpoch(first_slice, nullptr, nullptr, nullptr, nullptr);
  result.Check("weights_digest_equal_on_repeat", repeat.weights == first_weights);
  result.digest = first_weights;
  result.digest_ops = job_samples;

  std::vector<core::TrainSample> test_head(
      test.begin(),
      test.begin() + std::min<size_t>(test.size(), static_cast<size_t>(2000)));
  const eval::QErrorSummary qerror =
      core::EvaluateRegression(*repeat.model, test_head);
  result.Check("test_qerror_finite", std::isfinite(qerror.q50));
  result.Info("jobs", jobs, "count");
  result.Info("train_samples", static_cast<double>(train.size()), "count");
  result.Info("test_qerror_p50", qerror.q50, "ratio");
}

void RunTrainStream(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers) {
  const int64_t corpus = options.smoke ? kSmokeCorpus : kPaperCorpus;
  const int64_t stream_records =
      options.smoke ? kSmokeStreamRecords : kStreamRecords;
  const std::string path = ScratchFile(options, "train-stream.v2c");

  // Set-up: build the corpus and save it as a v2c file, open a reader with
  // default options and a streaming corpus over a shuffled train-split
  // subset.
  std::unique_ptr<workload::StreamingCorpus> stream;
  std::unique_ptr<workload::TraceReader> reader;
  std::vector<workload::TraceRecord> subset_records;
  std::vector<int64_t> subset;
  std::vector<uint64_t> subset_digests;
  bool written = true;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    stream.reset();
    reader.reset();
    const workload::SplitIndices split =
        workload::SplitCorpus(corpus, 0.8, 0.1, Mix64(options.seed));
    subset.assign(split.train.begin(), split.train.begin() + stream_records);
    {
      const std::vector<workload::TraceRecord> records =
          workload::BuildCorpus(Corpus(options, corpus));
      subset_records = workload::Gather(records, subset);
      written = workload::SaveTracesToFile(
                    path, records,
                    workload::TraceFormat::kBinaryV2Compressed) &&
                written;
    }
    reader = workload::TraceReader::Open(path);
    if (reader == nullptr) break;
    stream = std::make_unique<workload::StreamingCorpus>(
        reader.get(), subset, sim::Metric::kThroughput);
    result.setup_s.push_back(Seconds(t0, Clock::now()));
    Digest digest;
    for (const workload::TraceRecord& record : subset_records) {
      AddRecord(digest, record);
    }
    subset_digests.push_back(digest.value());
  }
  result.Check("trace_written", written);
  result.Check("trace_reader_opens",
               reader != nullptr && reader->num_records() == corpus);
  if (reader == nullptr || stream == nullptr) return;
  result.Check("subset_digest_equal_across_setups", AllEqual(subset_digests));

  // Sample id -> record, under the same drop-failed filter the streaming
  // corpus applies for a regression metric.
  std::vector<const workload::TraceRecord*> sample_records;
  for (const workload::TraceRecord& record : subset_records) {
    if (record.metrics.success) sample_records.push_back(&record);
  }
  result.Check("stream_size_matches_filter",
               stream->size() == static_cast<int64_t>(sample_records.size()));

  // Measured: one-epoch jobs of fresh models over the same streamed subset;
  // the reader's block cache carries over from job to job.
  BatchReplayer replayer;
  std::vector<core::TrainSample> featurized;
  const auto replay = [&](int64_t op, const std::vector<int64_t>& ids) {
    featurized.assign(ids.size(), core::TrainSample{});
    layers.Time(op, "workload.featurize", "workload.fetch", false, [&] {
      for (size_t j = 0; j < ids.size(); ++j) {
        workload::FeaturizeRecord(*sample_records[ids[j]],
                                  sim::Metric::kThroughput,
                                  core::FeaturizationMode::kFull,
                                  &featurized[j]);
      }
    });
    std::vector<const core::TrainSample*> batch;
    for (const core::TrainSample& sample : featurized) batch.push_back(&sample);
    replayer.Replay(op, batch, layers);
  };
  const uint64_t hits0 = reader->block_hits();
  const uint64_t misses0 = reader->block_misses();
  int64_t batch_index = 0;
  int64_t streamed = 0;
  int jobs = 0;
  JobOutcome first;
  bool jobs_agree = true;
  const Clock::time_point deadline = Deadline(options.seconds);
  while (Clock::now() < deadline) {
    JobOutcome job =
        TrainOneEpoch(*stream, &result, &layers, &batch_index, replay);
    streamed += job.samples;
    if (jobs == 0) {
      first = std::move(job);
    } else {
      jobs_agree = jobs_agree && job.weights == first.weights;
    }
    ++jobs;
  }
  const double hits = static_cast<double>(reader->block_hits() - hits0);
  const double misses = static_cast<double>(reader->block_misses() - misses0);
  result.Check("weights_digest_equal_across_jobs", jobs_agree);

  // The streamed epoch must equal in-memory training on the same samples.
  core::CostModel in_memory{core::CostModelConfig{}};
  core::TrainConfig config;
  config.epochs = 1;
  config.num_threads = 1;
  const std::vector<double> memory_losses =
      core::TrainModel(in_memory,
                       workload::ToTrainSamples(subset_records,
                                                sim::Metric::kThroughput),
                       {}, config)
          .train_losses;
  result.Check("streamed_loss_equals_in_memory",
               LossesDigest(memory_losses) == LossesDigest(first.losses));
  result.Check("streamed_weights_equal_in_memory",
               WeightsDigest(in_memory) == first.weights);
  result.digest = first.weights;
  result.digest_ops = first.samples;
  result.Info("jobs", jobs, "count");
  result.Info("stream_samples", static_cast<double>(stream->size()), "count");

  if (layers.enabled()) {
    const double records_per_block =
        static_cast<double>(reader->num_records()) /
        static_cast<double>(std::max<size_t>(reader->info().blocks.size(), 1));
    result.Layer("workload.reader.hit_rate",
                 hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "share");
    result.Layer("workload.reader.decoded_records_per_sample",
                 streamed > 0 ? misses * records_per_block /
                                    static_cast<double>(streamed)
                              : 0.0,
                 "count");
  }
  stream.reset();
  reader.reset();
  std::remove(path.c_str());
}

}  // namespace costream::e2e
