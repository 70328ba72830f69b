#ifndef COSTREAM_BENCH_BENCH_COMMON_H_
#define COSTREAM_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/gbdt.h"
#include "core/ensemble.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "workload/corpus.h"
#include "workload/trace_io.h"

namespace costream::bench {

// Scaling knob for the experiment harnesses: COSTREAM_BENCH_SCALE (float
// env var, default 1.0) multiplies corpus sizes and training epochs, so the
// full pipeline can be run quickly (0.2) or at higher fidelity (4.0).
double BenchScale();

// Corpus size / epoch counts after applying the scale.
int ScaledCorpusSize(int base);
int ScaledEpochs(int base);

// Worker threads used for training, corpus generation and featurization
// inside the harness: COSTREAM_BENCH_THREADS (int env var, default 0 = all
// hardware threads). Every parallel entry point is bitwise-deterministic in
// the thread count, so this only changes wall-clock.
int BenchThreads();

// Trace format used when a harness persists a corpus:
// COSTREAM_BENCH_TRACE_FORMAT env var, "v1" (text) or "v2" (binary,
// default).
workload::TraceFormat BenchTraceFormat();

// Inserts `section` (",\n  \"name\": {...}\n") before the final '}' of the
// JSON report at `path`. Shared by every post-run section writer
// (bench_micro's metrics/verify/corpus sections, bench_service's service
// section). Returns false when the file is missing or not JSON-shaped.
bool SpliceJsonSection(const std::string& path, const std::string& section);

// JSON fragment `"context": {...}` (indented by `indent`, no trailing comma
// or newline) recording the context of this process: the CMake build type
// it was compiled in, the best ISA tier the CPU supports, the tier the GEMM
// kernels actually dispatch to, and the raw COSTREAM_KERNEL override when
// set (null otherwise). Every spliced BENCH_micro.json section leads with
// this block so history snapshots stay attributable to the code path that
// produced them when runs cross machines, builds or pinned tiers.
std::string KernelContextJson(const std::string& indent);

// Copies `json_path` into results/history/<stem>-<UTC timestamp>.json so
// metric exports persist across bench runs (before/after comparisons stop
// relying on git-diffing the live file). Keeps only the newest 50 snapshots
// (older .json files in results/history/ are pruned). Returns the history
// path, or "" if the source file does not exist or the copy failed.
std::string SaveMetricsHistory(const std::string& json_path);

// Standard 80/10/10 split of a freshly built corpus. Generation runs on
// BenchThreads() workers unless the config requests a specific count.
struct SplitCorpusResult {
  std::vector<workload::TraceRecord> train;
  std::vector<workload::TraceRecord> val;
  std::vector<workload::TraceRecord> test;
};
SplitCorpusResult BuildSplitCorpus(const workload::CorpusConfig& config);

// Trains one COSTREAM model for `metric` on the record splits.
std::unique_ptr<core::CostModel> TrainGnn(
    const std::vector<workload::TraceRecord>& train,
    const std::vector<workload::TraceRecord>& val, sim::Metric metric,
    int epochs, uint64_t seed = 1,
    core::FeaturizationMode featurization = core::FeaturizationMode::kFull,
    core::MessagePassingMode message_passing =
        core::MessagePassingMode::kStaged);

// Trains the flat-vector baseline (GBDT on FlatVectorFeatures) for `metric`.
std::unique_ptr<baselines::Gbdt> TrainFlat(
    const std::vector<workload::TraceRecord>& train, sim::Metric metric);

// Q-error summary of a trained model over test records (regression metrics;
// failed executions are skipped, mirroring training).
eval::QErrorSummary EvalGnnRegression(
    const core::CostModel& model,
    const std::vector<workload::TraceRecord>& test, sim::Metric metric);
eval::QErrorSummary EvalFlatRegression(
    const baselines::Gbdt& model,
    const std::vector<workload::TraceRecord>& test, sim::Metric metric);

// Accuracy over a class-balanced subset of the test records (paper
// Section VII, evaluation strategy). Returns -1 if the test set lacks one of
// the classes entirely.
double EvalGnnBalancedAccuracy(const core::CostModel& model,
                               const std::vector<workload::TraceRecord>& test,
                               sim::Metric metric);
double EvalFlatBalancedAccuracy(const baselines::Gbdt& model,
                                const std::vector<workload::TraceRecord>& test,
                                sim::Metric metric);

// Writes the table to results/<name>.csv (creating the directory) and
// prints it with a heading.
void ReportTable(const std::string& experiment, const std::string& title,
                 const eval::Table& table);

// Formats an accuracy cell ("87.9%" or "n/a" for -1).
std::string AccuracyCell(double accuracy);

}  // namespace costream::bench

#endif  // COSTREAM_BENCH_BENCH_COMMON_H_
