// Micro-benchmarks (google-benchmark) for the performance-critical building
// blocks: fluid-engine evaluation, joint-graph featurization, GNN inference
// and training steps, placement enumeration, GBDT prediction, and the
// discrete-event simulator's event rate.
//
// Results are also written to BENCH_micro.json (JSON reporter) unless the
// caller passes an explicit --benchmark_out, so CI and before/after
// comparisons get machine-readable numbers by default.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "baselines/flat_vector.h"
#include "baselines/gbdt.h"
#include "bench_common.h"
#include "common/codec.h"
#include "core/ensemble.h"
#include "core/model.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "nn/quantized.h"
#include "placement/enumeration.h"
#include "placement/optimizer.h"
#include "service/scoring_engine.h"
#include "sim/des.h"
#include "sim/fluid_engine.h"
#include "verify/verify.h"
#include "workload/corpus.h"
#include "workload/streaming.h"
#include "workload/trace_io.h"
#include "workload/trace_reader.h"

namespace costream {
namespace {

workload::TraceRecord MakeRecord(workload::QueryTemplate t, uint64_t seed) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(seed);
  workload::TraceRecord record;
  record.query = generator.Generate(t, rng);
  record.cluster = generator.GenerateCluster(rng);
  const auto bins = placement::CapabilityBins(record.cluster);
  record.placement =
      placement::SamplePlacement(record.query, record.cluster, bins, rng);
  return record;
}

void BM_FluidEvaluate(benchmark::State& state) {
  const auto record = MakeRecord(
      static_cast<workload::QueryTemplate>(state.range(0)), 1);
  sim::FluidConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::EvaluateFluid(record.query, record.cluster,
                                                record.placement, config));
  }
}
BENCHMARK(BM_FluidEvaluate)->Arg(0)->Arg(1)->Arg(2);

void BM_BuildJointGraph(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildJointGraph(
        record.query, record.cluster, record.placement));
  }
}
BENCHMARK(BM_BuildJointGraph);

// Single-sample GNN inference with a reused (arena) tape. The lone Arg(0)
// keeps the benchmark's historical name (BM_GnnInference/0).
void BM_GnnInference(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 3);
  const core::JointGraph graph = core::BuildJointGraph(
      record.query, record.cluster, record.placement);
  core::CostModel model(core::CostModelConfig{});
  nn::Tape tape;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(graph, &tape));
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GnnInference)->Arg(0);

// Forward + backward of one training sample (Arg(0) as for BM_GnnInference).
void BM_GnnTrainStep(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 4);
  core::TrainSample sample;
  sample.graph = core::BuildJointGraph(record.query, record.cluster,
                                       record.placement);
  sample.regression_target = 123.0;
  core::CostModel model(core::CostModelConfig{});
  nn::Tape tape;
  for (auto _ : state) {
    tape.Reset();
    nn::Var out = model.Forward(tape, sample.graph);
    nn::Var loss = tape.MseLoss(out, nn::Matrix::Scalar(4.8));
    tape.Backward(loss);
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GnnTrainStep)->Arg(0);

// Thread scaling of the data-parallel trainer. Reports samples/s; results
// are bitwise-identical across thread counts, so the Arg sweep measures
// nothing but the thread-pool speedup.
void BM_ParallelTrainEpoch(benchmark::State& state) {
  static const std::vector<core::TrainSample>* samples = [] {
    workload::CorpusConfig config;
    config.num_queries = 48;
    config.seed = 909;
    config.duration_s = 30.0;
    const auto records = workload::BuildCorpus(config);
    return new std::vector<core::TrainSample>(
        workload::ToTrainSamples(records, sim::Metric::kThroughput));
  }();
  core::CostModelConfig model_config;
  model_config.hidden_dim = 16;
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::CostModel model(model_config);  // fresh init per epoch
    benchmark::DoNotOptimize(core::TrainModel(model, *samples, {}, tc));
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * samples->size()),
      benchmark::Counter::kIsRate);
  // google-benchmark's own "threads" field counts benchmark threads (always
  // 1 here); the pool width under test is the Arg, exported as a counter so
  // ci.sh can gate on it.
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
// Real time: the pool's workers do the work, so main-thread CPU time would
// inflate every kIsRate counter as the thread count grows.
BENCHMARK(BM_ParallelTrainEpoch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Thread scaling of batched placement-candidate scoring inside the
// optimizer. Reports candidates/s.
void BM_ParallelCandidateScoring(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 11);
  static const core::Ensemble* target = [] {
    core::CostModelConfig config;
    config.hidden_dim = 16;
    return new core::Ensemble(config, 3);
  }();
  static const core::Ensemble* success = [] {
    core::CostModelConfig config;
    config.hidden_dim = 16;
    config.head = core::HeadKind::kClassification;
    config.seed = 5;
    return new core::Ensemble(config, 3);
  }();
  const placement::PlacementOptimizer optimizer(target, success, success);
  placement::OptimizerConfig config;
  config.enumeration.num_candidates = 32;
  config.num_threads = static_cast<int>(state.range(0));
  config.enumeration.num_threads = config.num_threads;
  int evaluated = 0;
  for (auto _ : state) {
    const auto result =
        optimizer.Optimize(record.query, record.cluster, config);
    evaluated += result.candidates_evaluated;
    benchmark::DoNotOptimize(result.best);
  }
  state.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(evaluated), benchmark::Counter::kIsRate);
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_ParallelCandidateScoring)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PlacementEnumeration(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 5);
  placement::EnumerationConfig config;
  config.num_candidates = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        placement::EnumerateCandidates(record.query, record.cluster, config));
  }
}
BENCHMARK(BM_PlacementEnumeration)->Arg(10)->Arg(50);

void BM_FlatVectorFeatures(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::FlatVectorFeatures(
        record.query, record.cluster, record.placement));
  }
}
BENCHMARK(BM_FlatVectorFeatures);

void BM_GbdtPredict(benchmark::State& state) {
  nn::Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(36);
    for (double& v : row) v = rng.Uniform(0.0, 1.0);
    y.push_back(row[0] * 100.0);
    x.push_back(std::move(row));
  }
  baselines::Gbdt gbdt(baselines::GbdtConfig{},
                       baselines::GbdtObjective::kSquaredError);
  gbdt.Fit(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gbdt.Predict(x[0]));
  }
}
BENCHMARK(BM_GbdtPredict);

void BM_DesEventRate(benchmark::State& state) {
  const auto record = MakeRecord(workload::QueryTemplate::kLinear, 8);
  sim::DesConfig config;
  config.duration_s = 1.0;
  uint64_t events = 0;
  for (auto _ : state) {
    const sim::DesReport report =
        sim::RunDes(record.query, record.cluster, record.placement, config);
    events += report.events_processed;
    benchmark::DoNotOptimize(report.sink_tuples);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DesEventRate);

// Thread scaling of corpus generation. Output is bitwise-identical across
// thread counts (per-record seed derivation), so the Arg sweep measures
// nothing but the fork-join speedup of the label-collection loop.
void BM_CorpusGeneration(benchmark::State& state) {
  workload::CorpusConfig config;
  config.num_queries = 100;
  config.num_threads = static_cast<int>(state.range(0));
  uint64_t seed = 100;
  for (auto _ : state) {
    config.seed = ++seed;
    benchmark::DoNotOptimize(workload::BuildCorpus(config));
  }
  state.counters["traces/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * config.num_queries,
      benchmark::Counter::kIsRate);
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
// Real time, like every thread sweep here (see BM_ParallelTrainEpoch).
BENCHMARK(BM_CorpusGeneration)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// --- Corpus persistence (trace formats) ------------------------------------

const std::vector<workload::TraceRecord>& PersistenceCorpus() {
  static const std::vector<workload::TraceRecord>* corpus = [] {
    workload::CorpusConfig config;
    config.num_queries = 128;
    config.seed = 777;
    config.duration_s = 30.0;
    config.num_threads = 0;  // generation speed is not what's measured here
    return new std::vector<workload::TraceRecord>(
        workload::BuildCorpus(config));
  }();
  return *corpus;
}

std::string SerializeCorpus(const std::vector<workload::TraceRecord>& records,
                            workload::TraceFormat format) {
  std::ostringstream os;
  if (format == workload::TraceFormat::kBinaryV2) {
    workload::SaveTracesV2(os, records);
  } else {
    workload::SaveTraces(os, records);
  }
  return std::move(os).str();
}

void BM_TraceSave(benchmark::State& state) {
  const auto& records = PersistenceCorpus();
  const auto format = static_cast<workload::TraceFormat>(state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string image = SerializeCorpus(records, format);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records.size()),
      benchmark::Counter::kIsRate);
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * bytes) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSave)
    ->Arg(static_cast<int>(workload::TraceFormat::kTextV1))
    ->Arg(static_cast<int>(workload::TraceFormat::kBinaryV2));

void BM_TraceLoad(benchmark::State& state) {
  const auto& records = PersistenceCorpus();
  const auto format = static_cast<workload::TraceFormat>(state.range(0));
  const std::string image = SerializeCorpus(records, format);
  for (auto _ : state) {
    std::vector<workload::TraceRecord> loaded;
    bool ok;
    if (format == workload::TraceFormat::kBinaryV2) {
      ok = workload::LoadTracesV2(image.data(), image.size(), &loaded);
    } else {
      std::istringstream is(image);
      ok = workload::LoadTraces(is, &loaded);
    }
    if (!ok || loaded.size() != records.size()) {
      state.SkipWithError("trace load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded.data());
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records.size()),
      benchmark::Counter::kIsRate);
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * image.size()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceLoad)
    ->Arg(static_cast<int>(workload::TraceFormat::kTextV1))
    ->Arg(static_cast<int>(workload::TraceFormat::kBinaryV2));

// Featurization thread scaling (the ToTrainSamples path every harness runs
// before training).
void BM_ParallelFeaturization(benchmark::State& state) {
  const auto& records = PersistenceCorpus();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::ToTrainSamples(
        records, sim::Metric::kThroughput, core::FeaturizationMode::kFull,
        threads));
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records.size()),
      benchmark::Counter::kIsRate);
  state.counters["workers"] =
      benchmark::Counter(static_cast<double>(threads));
}
BENCHMARK(BM_ParallelFeaturization)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Metrics overhead measurement -----------------------------------------
//
// Runs the single-threaded candidate-scoring loop with the observability
// layer enabled and disabled, and splices the result (plus a full registry
// export) into the benchmark JSON as a top-level "metrics" section. CI gates
// on the encode-cache hit rate and on the export being valid JSON; the
// overhead number is recorded so regressions are visible in before/after
// diffs (budget: <= 2%).
using bench::SpliceJsonSection;

double CandidateScoringRate(const workload::TraceRecord& record,
                            const placement::PlacementOptimizer& optimizer,
                            const placement::OptimizerConfig& config,
                            int reps, int optimize_calls) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    int evaluated = 0;
    for (int i = 0; i < optimize_calls; ++i) {
      evaluated += optimizer.Optimize(record.query, record.cluster, config)
                       .candidates_evaluated;
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (secs > 0.0) best = std::max(best, evaluated / secs);
  }
  return best;
}

void AppendMetricsSection(const std::string& path) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 11);
  core::CostModelConfig target_config;
  target_config.hidden_dim = 16;
  const core::Ensemble target(target_config, 3);
  core::CostModelConfig success_config;
  success_config.hidden_dim = 16;
  success_config.head = core::HeadKind::kClassification;
  success_config.seed = 5;
  const core::Ensemble success(success_config, 3);
  const placement::PlacementOptimizer optimizer(&target, &success, &success);
  placement::OptimizerConfig config;
  config.enumeration.num_candidates = 32;
  config.num_threads = 1;
  config.enumeration.num_threads = 1;

  constexpr int kReps = 3;
  constexpr int kOptimizeCalls = 8;
  // Warm-up: equalizes cache/allocator state before either timed pass.
  obs::SetEnabled(true);
  CandidateScoringRate(record, optimizer, config, 1, 2);
  obs::Registry::Default().ResetValues();
  const double rate_enabled =
      CandidateScoringRate(record, optimizer, config, kReps, kOptimizeCalls);
  const auto hits =
      obs::GetCounter("placement.scorer.encode_cache_hits").Value();
  const auto misses =
      obs::GetCounter("placement.scorer.encode_cache_misses").Value();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  const std::string registry_json = obs::Registry::Default().ExportJson();
  obs::SetEnabled(false);
  const double rate_disabled =
      CandidateScoringRate(record, optimizer, config, kReps, kOptimizeCalls);
  obs::SetEnabled(true);
  const double overhead_pct =
      rate_disabled > 0.0
          ? (rate_disabled - rate_enabled) / rate_disabled * 100.0
          : 0.0;

  std::ostringstream section;
  section.precision(17);
  section << ",\n  \"metrics\": {\n"
          << bench::KernelContextJson("    ") << ",\n"
          << "    \"scoring_candidates_per_s_enabled\": " << rate_enabled
          << ",\n"
          << "    \"scoring_candidates_per_s_disabled\": " << rate_disabled
          << ",\n"
          << "    \"overhead_pct\": " << overhead_pct << ",\n"
          << "    \"encode_cache_hit_rate\": " << hit_rate << ",\n"
          << "    \"export\": " << registry_json << "\n  }\n";
  SpliceJsonSection(path, section.str());
}

// --- Static-verification overhead section -----------------------------------
//
// Candidate-scoring rate with the costream-verify entry-point checks forced
// on vs off, spliced into the JSON as a "verify" section. The scorer
// verifies a query/cluster/plan triple once at construction and never per
// candidate, so the budget CI gates on (overhead_pct <= 2) holds with head-
// room; the verify.runs counter proves the checks actually executed.
void AppendVerifySection(const std::string& path) {
  const auto record = MakeRecord(workload::QueryTemplate::kThreeWayJoin, 13);
  core::CostModelConfig target_config;
  target_config.hidden_dim = 16;
  const core::Ensemble target(target_config, 3);
  core::CostModelConfig success_config;
  success_config.hidden_dim = 16;
  success_config.head = core::HeadKind::kClassification;
  success_config.seed = 5;
  const core::Ensemble success(success_config, 3);
  const placement::PlacementOptimizer optimizer(&target, &success, &success);
  placement::OptimizerConfig config;
  config.enumeration.num_candidates = 32;
  config.num_threads = 1;
  config.enumeration.num_threads = 1;

  constexpr int kReps = 3;
  constexpr int kOptimizeCalls = 8;
  const bool was_enabled = verify::VerificationEnabled();
  verify::SetVerificationEnabled(true);
  CandidateScoringRate(record, optimizer, config, 1, 2);  // warm-up
  obs::SetEnabled(true);
  obs::Registry::Default().ResetValues();
  const double rate_verified =
      CandidateScoringRate(record, optimizer, config, kReps, kOptimizeCalls);
  const uint64_t verify_runs = obs::GetCounter("verify.runs").Value();
  const uint64_t verify_failed =
      obs::GetCounter("verify.reports_failed").Value();
  verify::SetVerificationEnabled(false);
  const double rate_unverified =
      CandidateScoringRate(record, optimizer, config, kReps, kOptimizeCalls);
  verify::SetVerificationEnabled(was_enabled);
  const double overhead_pct =
      rate_unverified > 0.0
          ? (rate_unverified - rate_verified) / rate_unverified * 100.0
          : 0.0;

  std::ostringstream section;
  section.precision(17);
  section << ",\n  \"verify\": {\n"
          << bench::KernelContextJson("    ") << ",\n"
          << "    \"scoring_candidates_per_s_verified\": " << rate_verified
          << ",\n"
          << "    \"scoring_candidates_per_s_unverified\": " << rate_unverified
          << ",\n"
          << "    \"overhead_pct\": " << overhead_pct << ",\n"
          << "    \"verify_runs\": " << verify_runs << ",\n"
          << "    \"verify_reports_failed\": " << verify_failed << "\n  }\n";
  SpliceJsonSection(path, section.str());
}

// --- Corpus-pipeline section ------------------------------------------------
//
// Direct best-of-N timings of the label-collection pipeline on a smoke
// corpus, spliced into the JSON report as a "corpus_pipeline" section. CI
// gates on: parallel generation bitwise-identical to serial (hash equality),
// v2 load >= 3x faster than v1, and — only on machines with >= 4 hardware
// threads — parallel generation scaling > 2x at 4 threads.

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count());
  }
  return best;
}

void AppendCorpusPipelineSection(const std::string& path) {
  workload::CorpusConfig config;
  config.num_queries = 256;
  config.seed = 4242;
  config.duration_s = 30.0;
  constexpr int kReps = 3;

  // Generation: serial vs 4 workers, then the bitwise-identity check that
  // makes the parallel number trustworthy.
  config.num_threads = 1;
  std::vector<workload::TraceRecord> serial;
  const double serial_s =
      BestSeconds(kReps, [&] { serial = workload::BuildCorpus(config); });
  config.num_threads = 4;
  std::vector<workload::TraceRecord> parallel;
  const double parallel_s =
      BestSeconds(kReps, [&] { parallel = workload::BuildCorpus(config); });
  const std::string serial_v2 =
      SerializeCorpus(serial, workload::TraceFormat::kBinaryV2);
  const std::string parallel_v2 =
      SerializeCorpus(parallel, workload::TraceFormat::kBinaryV2);
  const uint64_t serial_hash = Fnv1a(serial_v2);
  const uint64_t parallel_hash = Fnv1a(parallel_v2);

  // Persistence: the same records through both formats.
  const std::string v1_image =
      SerializeCorpus(serial, workload::TraceFormat::kTextV1);
  std::vector<workload::TraceRecord> loaded;
  const double v1_save_s = BestSeconds(kReps, [&] {
    benchmark::DoNotOptimize(
        SerializeCorpus(serial, workload::TraceFormat::kTextV1));
  });
  const double v2_save_s = BestSeconds(kReps, [&] {
    benchmark::DoNotOptimize(
        SerializeCorpus(serial, workload::TraceFormat::kBinaryV2));
  });
  const double v1_load_s = BestSeconds(kReps, [&] {
    std::istringstream is(v1_image);
    workload::LoadTraces(is, &loaded);
  });
  const bool v1_ok = loaded.size() == serial.size();
  const double v2_load_s = BestSeconds(kReps, [&] {
    workload::LoadTracesV2(serial_v2.data(), serial_v2.size(), &loaded);
  });
  const bool v2_ok = loaded.size() == serial.size();

  const double n = static_cast<double>(serial.size());
  const auto rate = [n](double secs) { return secs > 0.0 ? n / secs : 0.0; };
  std::ostringstream section;
  section.precision(17);
  section << std::boolalpha << ",\n  \"corpus_pipeline\": {\n"
          << bench::KernelContextJson("    ") << ",\n"
          << "    \"records\": " << serial.size() << ",\n"
          << "    \"hardware_threads\": "
          << std::thread::hardware_concurrency() << ",\n"
          << "    \"build_records_per_s_serial\": " << rate(serial_s) << ",\n"
          << "    \"build_records_per_s_4t\": " << rate(parallel_s) << ",\n"
          << "    \"build_speedup_4t\": "
          << (parallel_s > 0.0 ? serial_s / parallel_s : 0.0) << ",\n"
          << "    \"build_bitwise_equal\": " << (serial_v2 == parallel_v2)
          << ",\n"
          << "    \"corpus_hash_serial\": \"" << std::hex << serial_hash
          << "\",\n"
          << "    \"corpus_hash_4t\": \"" << parallel_hash << "\",\n"
          << std::dec << "    \"v1_bytes\": " << v1_image.size() << ",\n"
          << "    \"v2_bytes\": " << serial_v2.size() << ",\n"
          << "    \"save_records_per_s_v1\": " << rate(v1_save_s) << ",\n"
          << "    \"save_records_per_s_v2\": " << rate(v2_save_s) << ",\n"
          << "    \"load_records_per_s_v1\": " << rate(v1_load_s) << ",\n"
          << "    \"load_records_per_s_v2\": " << rate(v2_load_s) << ",\n"
          << "    \"load_ok\": " << (v1_ok && v2_ok) << ",\n"
          << "    \"v2_load_speedup\": "
          << (v2_load_s > 0.0 ? v1_load_s / v2_load_s : 0.0) << "\n  }\n";
  SpliceJsonSection(path, section.str());
}

// --- Out-of-core corpus section ---------------------------------------------
//
// The block-compressed trace format and the streaming training pipeline:
// load throughput of the three on-disk formats, the compressed/plain size
// ratio, shuffled-epoch sample throughput through StreamingCorpus over a
// bounded-cache TraceReader, and an order-sensitive FNV-1a hash over every
// featurized sample proving the streamed samples are bitwise-identical to
// the in-memory ToTrainSamples path. CI gates on the hash equality, the
// compressed loader's speedup over v1 text, the size ratio, the cache
// bound, and (against history) the epoch throughput.

uint64_t HashSample(uint64_t h, const core::TrainSample& sample) {
  h = common::Fnv1a64(&sample.regression_target, sizeof(double), h);
  for (const auto& node : sample.graph.nodes) {
    h = common::Fnv1a64(node.features.data(),
                        node.features.size() * sizeof(double), h);
  }
  return h;
}

void AppendCorpusOutOfCoreSection(const std::string& path) {
  workload::CorpusConfig config;
  config.num_queries = 256;
  config.seed = 1717;
  config.duration_s = 30.0;
  config.num_threads = 4;
  const auto records = workload::BuildCorpus(config);
  constexpr int kReps = 3;
  constexpr size_t kBlockBytes = size_t{32} << 10;

  const std::string v1_image =
      SerializeCorpus(records, workload::TraceFormat::kTextV1);
  const std::string v2_image =
      SerializeCorpus(records, workload::TraceFormat::kBinaryV2);
  std::ostringstream v2c_os;
  workload::SaveTracesV2Compressed(v2c_os, records, kBlockBytes);
  const std::string v2c_image = std::move(v2c_os).str();

  std::vector<workload::TraceRecord> loaded;
  const double v1_load_s = BestSeconds(kReps, [&] {
    std::istringstream is(v1_image);
    workload::LoadTraces(is, &loaded);
  });
  bool load_ok = loaded.size() == records.size();
  const double v2_load_s = BestSeconds(kReps, [&] {
    workload::LoadTracesV2(v2_image.data(), v2_image.size(), &loaded);
  });
  load_ok = load_ok && loaded.size() == records.size();
  const double v2c_load_s = BestSeconds(kReps, [&] {
    workload::LoadTracesV2(v2c_image.data(), v2c_image.size(), &loaded);
  });
  load_ok = load_ok && loaded.size() == records.size();

  // In-memory reference: featurize everything, hash in sample order.
  const sim::Metric metric = sim::Metric::kThroughput;
  const auto reference = workload::ToTrainSamples(records, metric);
  uint64_t inmemory_hash = 0;
  for (const auto& sample : reference) {
    inmemory_hash = HashSample(inmemory_hash, sample);
  }

  // Streaming pass: same samples through the mmap reader's bounded block
  // cache. The cache cap (4 blocks) is far below the block count, so the
  // peak-cached-bytes proxy proves the corpus never sat in memory whole.
  const std::string tmp = path + ".ooc_tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(v2c_image.data(),
             static_cast<std::streamsize>(v2c_image.size()));
  }
  workload::TraceReaderOptions reader_opts;
  reader_opts.max_cached_blocks = 4;
  reader_opts.num_threads = 4;
  auto reader = workload::TraceReader::Open(tmp, reader_opts);
  uint64_t streaming_hash = 1;  // != 0 so a dead reader can never "match"
  double epoch_s = 0.0;
  uint64_t peak_cached = 0;
  uint64_t uncompressed_total = 0;
  int64_t streamed = -1;
  size_t num_blocks = 0;
  if (reader != nullptr) {
    num_blocks = reader->info().blocks.size();
    for (const workload::TraceBlockInfo& b : reader->info().blocks) {
      uncompressed_total += b.uncompressed_bytes;
    }
    std::vector<int64_t> all(records.size());
    std::iota(all.begin(), all.end(), int64_t{0});
    workload::StreamingCorpusOptions sc_opts;
    sc_opts.num_threads = 4;
    workload::StreamingCorpus corpus(reader.get(), all, metric, sc_opts);
    streamed = corpus.size();
    constexpr int kBatch = 64;
    std::vector<int64_t> ids(kBatch);
    std::vector<const core::TrainSample*> batch(kBatch);
    streaming_hash = 0;
    for (int64_t start = 0; start < corpus.size(); start += kBatch) {
      const int len =
          static_cast<int>(std::min<int64_t>(kBatch, corpus.size() - start));
      std::iota(ids.begin(), ids.begin() + len, start);
      corpus.Fetch(ids.data(), len, batch.data());
      for (int i = 0; i < len; ++i) {
        streaming_hash = HashSample(streaming_hash, *batch[i]);
      }
    }
    // Shuffled epochs — the training access pattern, cache-hostile.
    std::vector<int64_t> order(static_cast<size_t>(corpus.size()));
    std::iota(order.begin(), order.end(), int64_t{0});
    nn::Rng rng(99);
    epoch_s = BestSeconds(kReps, [&] {
      rng.Shuffle(order);
      for (int64_t start = 0; start < corpus.size(); start += kBatch) {
        const int len = static_cast<int>(
            std::min<int64_t>(kBatch, corpus.size() - start));
        corpus.Fetch(order.data() + start, len, batch.data());
        benchmark::DoNotOptimize(batch.data());
      }
    });
    peak_cached = reader->peak_cached_bytes();
  }
  std::remove(tmp.c_str());

  const bool bitwise_equal =
      streamed == static_cast<int64_t>(reference.size()) &&
      streaming_hash == inmemory_hash;
  const double n = static_cast<double>(records.size());
  const auto rate = [n](double secs) { return secs > 0.0 ? n / secs : 0.0; };
  const double epoch_rate =
      epoch_s > 0.0 ? static_cast<double>(streamed) / epoch_s : 0.0;
  std::ostringstream section;
  section.precision(17);
  section << std::boolalpha << ",\n  \"corpus_outofcore\": {\n"
          << bench::KernelContextJson("    ") << ",\n"
          << "    \"records\": " << records.size() << ",\n"
          << "    \"block_bytes\": " << kBlockBytes << ",\n"
          << "    \"num_blocks\": " << num_blocks << ",\n"
          << "    \"v1_bytes\": " << v1_image.size() << ",\n"
          << "    \"v2_bytes\": " << v2_image.size() << ",\n"
          << "    \"v2c_bytes\": " << v2c_image.size() << ",\n"
          << "    \"size_ratio_v2c_over_v2\": "
          << (v2_image.empty()
                  ? 0.0
                  : static_cast<double>(v2c_image.size()) /
                        static_cast<double>(v2_image.size()))
          << ",\n"
          << "    \"load_records_per_s_v1\": " << rate(v1_load_s) << ",\n"
          << "    \"load_records_per_s_v2\": " << rate(v2_load_s) << ",\n"
          << "    \"load_records_per_s_v2c\": " << rate(v2c_load_s) << ",\n"
          << "    \"v2c_vs_v1_load_speedup\": "
          << (v2c_load_s > 0.0 ? v1_load_s / v2c_load_s : 0.0) << ",\n"
          << "    \"load_ok\": " << load_ok << ",\n"
          << "    \"streaming_epoch_samples_per_s\": " << epoch_rate << ",\n"
          << "    \"streamed_samples\": " << streamed << ",\n"
          << "    \"inmemory_samples\": " << reference.size() << ",\n"
          << "    \"sample_hash_inmemory\": \"" << std::hex << inmemory_hash
          << "\",\n"
          << "    \"sample_hash_streaming\": \"" << streaming_hash << "\",\n"
          << std::dec << "    \"streaming_bitwise_equal\": " << bitwise_equal
          << ",\n"
          << "    \"peak_cached_bytes\": " << peak_cached << ",\n"
          << "    \"uncompressed_payload_bytes\": " << uncompressed_total
          << ",\n"
          << "    \"peak_cached_fraction\": "
          << (uncompressed_total > 0
                  ? static_cast<double>(peak_cached) /
                        static_cast<double>(uncompressed_total)
                  : 1.0)
          << "\n  }\n";
  SpliceJsonSection(path, section.str());
}

// --- Scoring fast-path section ----------------------------------------------
//
// The cross-request scoring fast path (pooled workspaces + candidate cache +
// quantized ranking tier) against the full-precision baseline it replaces,
// on identical inputs. The workload mirrors the service: a wave of
// concurrent admissions sharing one trained target ensemble, every query's
// candidate set scored three times against the same view (admission, then
// two rip-up re-placement rounds — the access pattern the candidate and
// rank caches exist for),
// with all requests of a wave ranked through one cross-request GEMM batch.
// Both paths run single-threaded, so the speedup is algorithmic, not
// parallelism. CI gates on the speedup (>= 10x), the top-1 decision
// agreement against the fp32-only path (>= 0.99, measured over a larger
// query population than the timed workload), and the cache hit rate.

// The same model shapes the "metrics" section (the PR 6 baseline) scores
// with — a 3-member hidden-16 target ensemble plus a 3-member success
// classifier — but trained on a smoke corpus so feasibility verdicts and
// cost orderings are real rather than random-init noise. (No backpressure
// model: wiring the success ensemble as its own backpressure filter, as the
// optimizer smoke sections do, makes every candidate infeasible by
// construction — success implies backpressure — which would degenerate the
// best-feasible decision this section's agreement gate is about.)
struct FastpathModels {
  std::unique_ptr<core::Ensemble> target;
  std::unique_ptr<core::Ensemble> success;
};

const FastpathModels& FastpathEnsembles() {
  static const FastpathModels* models = [] {
    workload::CorpusConfig cc;
    cc.num_queries = 60;
    cc.seed = 2026;
    cc.duration_s = 30.0;
    const auto records = workload::BuildCorpus(cc);
    core::TrainConfig tc;
    tc.epochs = 3;
    auto* m = new FastpathModels;
    core::CostModelConfig target_config;
    target_config.hidden_dim = 16;
    m->target = std::make_unique<core::Ensemble>(target_config, 3);
    m->target->Train(
        workload::ToTrainSamples(records, sim::Metric::kThroughput), {}, tc);
    core::CostModelConfig success_config;
    success_config.hidden_dim = 16;
    success_config.head = core::HeadKind::kClassification;
    success_config.seed = 5;
    m->success = std::make_unique<core::Ensemble>(success_config, 3);
    // The classifier gets more epochs than the regressor: an undertrained
    // success model rejects far more placements than the corpus labels
    // justify (~88% positive), flooding the workload with queries where no
    // candidate is feasible — an edge case, not the admission steady state.
    core::TrainConfig success_tc = tc;
    success_tc.epochs = 10;
    m->success->Train(
        workload::ToTrainSamples(records, sim::Metric::kSuccess), {},
        success_tc);
    return m;
  }();
  return *models;
}

struct FastpathWorkload {
  sim::Cluster cluster;
  std::vector<dsps::QueryGraph> queries;
  std::vector<std::vector<sim::Placement>> candidates;
  int total_candidates = 0;
};

FastpathWorkload BuildFastpathWorkload(int num_queries, int num_candidates,
                                       uint64_t seed) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(seed);
  FastpathWorkload w;
  w.cluster = generator.GenerateCluster(rng);
  placement::EnumerationConfig ec;
  ec.num_candidates = num_candidates;
  ec.num_threads = 1;
  for (int q = 0; q < num_queries; ++q) {
    w.queries.push_back(
        generator.Generate(workload::QueryTemplate::kThreeWayJoin, rng));
    ec.seed = seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(q + 1));
    w.candidates.push_back(
        placement::EnumerateCandidates(w.queries.back(), w.cluster, ec));
    w.total_candidates += static_cast<int>(w.candidates.back().size());
  }
  return w;
}

// Mirrors the service's selection loop with unit penalty factors on a
// maximized metric: best cost among feasible fully-scored candidates, else
// best overall; first index wins ties, exactly like the service.
int FastpathDecision(const service::ScoringEngine::ScoreResult& result) {
  const int n = static_cast<int>(result.scored.size());
  int best_any = -1;
  int best_feasible = -1;
  double best_any_cost = 0.0;
  double best_feasible_cost = 0.0;
  for (int i = 0; i < n; ++i) {
    if (!result.have_full[i]) continue;
    const double cost = result.scored[i].cost;
    if (best_any < 0 || cost > best_any_cost) {
      best_any = i;
      best_any_cost = cost;
    }
    if (!result.scored[i].feasible) continue;
    if (best_feasible < 0 || cost > best_feasible_cost) {
      best_feasible = i;
      best_feasible_cost = cost;
    }
  }
  return best_feasible >= 0 ? best_feasible : best_any;
}

struct FastpathRun {
  double seconds = 0.0;
  std::vector<int> decisions;  // per (query, pass), query-major
};

FastpathRun RunFastpathWorkload(const FastpathWorkload& w,
                                const service::FastPathConfig& config,
                                int passes) {
  const FastpathModels& models = FastpathEnsembles();
  service::ScoringEngine engine(models.target.get(), models.success.get(),
                                nullptr, config);
  const int num_queries = static_cast<int>(w.queries.size());
  std::vector<const dsps::QueryGraph*> queries;
  std::vector<const std::vector<sim::Placement>*> cands;
  for (int q = 0; q < num_queries; ++q) {
    queries.push_back(&w.queries[q]);
    cands.push_back(&w.candidates[q]);
  }
  FastpathRun run;
  const auto start = std::chrono::steady_clock::now();
  // One cross-request rank batch per admission wave; full scoring then runs
  // both passes of a query back to back, the pattern the cache serves.
  std::vector<std::vector<std::vector<double>>> ranked(passes);
  for (int pass = 0; pass < passes; ++pass) {
    engine.RankRequests(queries, cands, w.cluster, ranked[pass]);
  }
  static const std::vector<double> kNoRank;
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<double> factors(w.candidates[q].size(), 1.0);
    for (int pass = 0; pass < passes; ++pass) {
      const service::ScoringEngine::ScoreResult result = engine.ScoreRequest(
          w.queries[q], w.cluster, w.candidates[q], factors,
          /*maximize=*/true,
          ranked[pass].empty() ? kNoRank : ranked[pass][q]);
      run.decisions.push_back(FastpathDecision(result));
    }
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

std::vector<int> TopKIndices(const std::vector<double>& values, int k) {
  std::vector<int> idx(values.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  k = std::min<int>(k, static_cast<int>(idx.size()));
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](int a, int b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  idx.resize(static_cast<size_t>(k));
  return idx;
}

struct AgreementStats {
  double top1 = 1.0;          // fraction of queries with identical decisions
  double topk_overlap = 1.0;  // mean |quant top-k ∩ fp32 top-k| / k
};

service::FastPathConfig FastpathConfig(nn::QuantKind kind, int top_k) {
  service::FastPathConfig config;
  config.enabled = true;
  config.quantized_ranking = true;
  config.quant_kind = kind;
  config.rank_top_k = top_k;
  config.candidate_cache = true;
  config.num_threads = 1;
  return config;
}

AgreementStats MeasureAgreement(const FastpathWorkload& w, nn::QuantKind kind,
                                int top_k) {
  service::FastPathConfig base_config;
  base_config.enabled = false;
  base_config.num_threads = 1;
  const FastpathModels& models = FastpathEnsembles();
  service::ScoringEngine baseline(models.target.get(), models.success.get(),
                                  nullptr, base_config);
  service::ScoringEngine quant(models.target.get(), models.success.get(),
                               nullptr, FastpathConfig(kind, top_k));
  static const std::vector<double> kNoRank;
  int agree = 0;
  double overlap_sum = 0.0;
  const int num_queries = static_cast<int>(w.queries.size());
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<double> factors(w.candidates[q].size(), 1.0);
    const service::ScoringEngine::ScoreResult full = baseline.ScoreRequest(
        w.queries[q], w.cluster, w.candidates[q], factors, true, kNoRank);
    std::vector<std::vector<double>> ranked;
    quant.RankRequests({&w.queries[q]}, {&w.candidates[q]}, w.cluster, ranked);
    const service::ScoringEngine::ScoreResult fast = quant.ScoreRequest(
        w.queries[q], w.cluster, w.candidates[q], factors, true,
        ranked.empty() ? kNoRank : ranked[0]);
    if (FastpathDecision(full) == FastpathDecision(fast)) ++agree;
    if (!ranked.empty()) {
      std::vector<double> full_costs(full.scored.size());
      for (size_t i = 0; i < full.scored.size(); ++i) {
        full_costs[i] = full.scored[i].cost;
      }
      const std::vector<int> quant_top = TopKIndices(ranked[0], top_k);
      const std::vector<int> full_top = TopKIndices(full_costs, top_k);
      int common = 0;
      for (int qi : quant_top) {
        for (int fi : full_top) {
          if (qi == fi) {
            ++common;
            break;
          }
        }
      }
      overlap_sum += quant_top.empty()
                         ? 1.0
                         : static_cast<double>(common) / quant_top.size();
    } else {
      overlap_sum += 1.0;
    }
  }
  AgreementStats stats;
  stats.top1 = num_queries > 0 ? static_cast<double>(agree) / num_queries : 1.0;
  stats.topk_overlap = num_queries > 0 ? overlap_sum / num_queries : 1.0;
  return stats;
}

void AppendScoringFastpathSection(const std::string& path) {
  constexpr int kQueries = 12;
  constexpr int kCandidates = 128;
  constexpr int kTopK = 8;
  constexpr int kPasses = 3;
  constexpr int kReps = 3;
  constexpr int kAgreementQueries = 100;

  obs::SetEnabled(true);
  const core::Ensemble& target = *FastpathEnsembles().target;
  const bool ranking_active =
      placement::QuantizedRanker::CanRank(target);
  const FastpathWorkload w = BuildFastpathWorkload(kQueries, kCandidates, 515);
  service::FastPathConfig base_config;
  base_config.enabled = false;
  base_config.num_threads = 1;
  const service::FastPathConfig fast_config =
      FastpathConfig(nn::QuantKind::kInt8, kTopK);

  // Warm-up equalizes allocator/cache state before either timed pass.
  RunFastpathWorkload(w, fast_config, 1);
  double base_s = std::numeric_limits<double>::infinity();
  double fast_s = base_s;
  std::vector<int> base_decisions;
  std::vector<int> fast_decisions;
  for (int rep = 0; rep < kReps; ++rep) {
    const FastpathRun run = RunFastpathWorkload(w, base_config, kPasses);
    base_s = std::min(base_s, run.seconds);
    base_decisions = run.decisions;
  }
  obs::Registry::Default().ResetValues();
  for (int rep = 0; rep < kReps; ++rep) {
    const FastpathRun run = RunFastpathWorkload(w, fast_config, kPasses);
    fast_s = std::min(fast_s, run.seconds);
    fast_decisions = run.decisions;
  }
  // Each rep runs a fresh engine, so the accumulated hit *rate* matches any
  // single rep even though the counters sum over all of them.
  const uint64_t hits = obs::GetCounter("service.scoring.cache_hits").Value();
  const uint64_t misses =
      obs::GetCounter("service.scoring.cache_misses").Value();
  const uint64_t ranked_candidates =
      obs::GetCounter("service.scoring.ranked_candidates").Value();
  const uint64_t rank_cache_hits =
      obs::GetCounter("service.scoring.rank_cache_hits").Value();
  const uint64_t rank_fallbacks =
      obs::GetCounter("service.scoring.rank_fallbacks").Value();
  const uint64_t rescored_candidates =
      obs::GetCounter("service.scoring.rescored_candidates").Value();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;

  int timed_same = 0;
  for (size_t i = 0;
       i < base_decisions.size() && i < fast_decisions.size(); ++i) {
    if (base_decisions[i] == fast_decisions[i]) ++timed_same;
  }
  const double timed_agreement =
      base_decisions.empty()
          ? 1.0
          : static_cast<double>(timed_same) / base_decisions.size();

  // Decision agreement over a wider query population than the timed wave
  // (>= 100 decisions, so the 0.99 CI gate tolerates a single miss).
  const FastpathWorkload aw =
      BuildFastpathWorkload(kAgreementQueries, kCandidates, 717);
  const AgreementStats int8_stats =
      MeasureAgreement(aw, nn::QuantKind::kInt8, kTopK);
  const AgreementStats bf16_stats =
      MeasureAgreement(aw, nn::QuantKind::kBf16, kTopK);

  const double scored = static_cast<double>(w.total_candidates) * kPasses;
  const double base_rate = base_s > 0.0 ? scored / base_s : 0.0;
  const double fast_rate = fast_s > 0.0 ? scored / fast_s : 0.0;
  std::ostringstream section;
  section.precision(17);
  section << std::boolalpha << ",\n  \"scoring_fastpath\": {\n"
          << bench::KernelContextJson("    ") << ",\n"
          << "    \"queries\": " << kQueries << ",\n"
          << "    \"total_candidates\": " << w.total_candidates << ",\n"
          << "    \"passes\": " << kPasses << ",\n"
          << "    \"rank_top_k\": " << kTopK << ",\n"
          << "    \"ranking_active\": " << ranking_active << ",\n"
          << "    \"baseline_candidates_per_s\": " << base_rate << ",\n"
          << "    \"fast_candidates_per_s\": " << fast_rate << ",\n"
          << "    \"speedup\": " << (base_rate > 0.0 ? fast_rate / base_rate
                                                     : 0.0)
          << ",\n"
          << "    \"timed_decision_agreement\": " << timed_agreement << ",\n"
          << "    \"agreement_queries\": " << kAgreementQueries << ",\n"
          << "    \"top1_agreement_int8\": " << int8_stats.top1 << ",\n"
          << "    \"top1_agreement_bf16\": " << bf16_stats.top1 << ",\n"
          << "    \"topk_overlap_int8\": " << int8_stats.topk_overlap << ",\n"
          << "    \"topk_overlap_bf16\": " << bf16_stats.topk_overlap << ",\n"
          << "    \"cache_hit_rate\": " << hit_rate << ",\n"
          << "    \"cache_hits\": " << hits << ",\n"
          << "    \"cache_misses\": " << misses << ",\n"
          << "    \"ranked_candidates\": " << ranked_candidates << ",\n"
          << "    \"rank_cache_hits\": " << rank_cache_hits << ",\n"
          << "    \"rank_fallbacks\": " << rank_fallbacks << ",\n"
          << "    \"rescored_candidates\": " << rescored_candidates
          << "\n  }\n";
  SpliceJsonSection(path, section.str());
}

// --- Geo-distributed DES-vs-fluid section ------------------------------------
//
// A randomized population of multi-region geo clusters (every cluster carries
// a per-link WAN matrix, half the operators run parallelism 2 or 4, the DES
// uses per-instance scheduling) evaluated by both engines. CI gates on the
// off-boundary label agreement rate and on DES event throughput not
// regressing against the history snapshot.
void AppendGeoSection(const std::string& path) {
  constexpr int kCases = 16;

  workload::GeneratorConfig gen_config;
  gen_config.hardware.geo_probability = 1.0;
  gen_config.parallelism_fraction = 0.5;
  gen_config.parallelism_choices = {2, 4};
  const workload::QueryGenerator generator{gen_config};
  const workload::QueryTemplate templates[] = {
      workload::QueryTemplate::kLinear, workload::QueryTemplate::kTwoWayJoin,
      workload::QueryTemplate::kThreeWayJoin};
  nn::Rng rng(6117);

  int geo_clusters = 0;
  int label_checked = 0;
  int label_agreements = 0;
  std::vector<double> ratios;
  uint64_t des_events = 0;
  double des_seconds = 0.0;
  for (int i = 0; i < kCases; ++i) {
    const auto query = generator.Generate(templates[i % 3], rng);
    const auto cluster = generator.GenerateCluster(rng);
    if (cluster.has_link_matrix()) ++geo_clusters;
    const auto bins = placement::CapabilityBins(cluster);
    const auto placed =
        placement::SamplePlacement(query, cluster, bins, rng);

    sim::FluidConfig fluid_config;
    fluid_config.noise_sigma = 0.0;
    const sim::FluidReport fluid =
        sim::EvaluateFluid(query, cluster, placed, fluid_config);
    sim::DesConfig des_config;
    des_config.duration_s = 10.0;
    des_config.seed = 6200 + static_cast<uint64_t>(i);
    des_config.per_instance_scheduling = true;
    const auto start = std::chrono::steady_clock::now();
    const sim::DesReport des = sim::RunDes(query, cluster, placed, des_config);
    des_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    des_events += des.events_processed;

    // Label agreement is only meaningful off the saturation boundary, same
    // acceptance structure as the randomized DES-vs-fluid test sweeps.
    const bool borderline = fluid.bottleneck_utilization > 0.7 &&
                            fluid.bottleneck_utilization < 1.5;
    if (borderline) continue;
    ++label_checked;
    if (fluid.metrics.backpressure == des.metrics.backpressure &&
        fluid.metrics.success == des.metrics.success) {
      ++label_agreements;
    }
    if (fluid.metrics.success && des.metrics.success &&
        !fluid.metrics.backpressure && !des.metrics.backpressure) {
      ratios.push_back(std::max(fluid.metrics.throughput, 1e-9) /
                       std::max(des.metrics.throughput, 1e-9));
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio_median =
      ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  const double agreement_rate =
      label_checked > 0
          ? static_cast<double>(label_agreements) / label_checked
          : 1.0;
  const double des_events_per_s =
      des_seconds > 0.0 ? static_cast<double>(des_events) / des_seconds : 0.0;

  std::ostringstream section;
  section.precision(17);
  section << ",\n  \"geo\": {\n"
          << bench::KernelContextJson("    ") << ",\n"
          << "    \"cases\": " << kCases << ",\n"
          << "    \"geo_clusters\": " << geo_clusters << ",\n"
          << "    \"label_checked\": " << label_checked << ",\n"
          << "    \"label_agreements\": " << label_agreements << ",\n"
          << "    \"label_agreement_rate\": " << agreement_rate << ",\n"
          << "    \"throughput_ratio_cases\": " << ratios.size() << ",\n"
          << "    \"throughput_ratio_median\": " << ratio_median << ",\n"
          << "    \"des_events\": " << des_events << ",\n"
          << "    \"des_events_per_s\": " << des_events_per_s << "\n  }\n";
  SpliceJsonSection(path, section.str());
}

}  // namespace
}  // namespace costream

// BENCHMARK_MAIN with a default JSON output file: unless the caller already
// chose a --benchmark_out, results land in BENCH_micro.json in the working
// directory (console output is unchanged).
int main(int argc, char** argv) {
  std::string out_path = "BENCH_micro.json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
      out_path = arg.substr(std::string("--benchmark_out=").size());
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Post-run: measure metrics overhead on the scoring hot path and time the
  // label-collection pipeline, splicing "metrics" and "corpus_pipeline"
  // sections into the JSON report for CI consumption. A timestamped copy
  // lands under results/history/ so runs stay comparable over time.
  costream::AppendMetricsSection(out_path);
  costream::AppendVerifySection(out_path);
  costream::AppendCorpusPipelineSection(out_path);
  costream::AppendCorpusOutOfCoreSection(out_path);
  costream::AppendScoringFastpathSection(out_path);
  costream::AppendGeoSection(out_path);
  const std::string history = costream::bench::SaveMetricsHistory(out_path);
  if (!history.empty()) {
    std::printf("metrics history written to %s\n", history.c_str());
  }
  return 0;
}
