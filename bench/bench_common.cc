#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/flat_vector.h"
#include "common/check.h"
#include "nn/kernel_dispatch.h"

namespace costream::bench {

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("COSTREAM_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double value = std::atof(env);
    return value > 0.0 ? value : 1.0;
  }();
  return scale;
}

int ScaledCorpusSize(int base) {
  return std::max(200, static_cast<int>(base * BenchScale()));
}

int ScaledEpochs(int base) {
  return std::max(4, static_cast<int>(base * std::min(BenchScale(), 2.0)));
}

int BenchThreads() {
  static const int threads = [] {
    const char* env = std::getenv("COSTREAM_BENCH_THREADS");
    return env == nullptr ? 0 : std::atoi(env);
  }();
  return threads;
}

workload::TraceFormat BenchTraceFormat() {
  static const workload::TraceFormat format = [] {
    const char* env = std::getenv("COSTREAM_BENCH_TRACE_FORMAT");
    if (env != nullptr && std::strcmp(env, "v1") == 0) {
      return workload::TraceFormat::kTextV1;
    }
    return workload::TraceFormat::kBinaryV2;
  }();
  return format;
}

namespace {

// Retention cap for results/history/: every bench run adds one snapshot, so
// without a cap the directory grows without bound. Newest files (by
// modification time, name as the tie-break) are kept; the rest are pruned.
constexpr size_t kHistoryRetention = 50;

void PruneHistory(const std::filesystem::path& dir) {
  std::error_code ec;
  using Entry = std::pair<std::filesystem::file_time_type, std::string>;
  std::vector<Entry> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".json") {
      entries.emplace_back(entry.last_write_time(ec),
                           entry.path().filename().string());
    }
  }
  if (entries.size() <= kHistoryRetention) return;
  std::sort(entries.begin(), entries.end());
  const size_t excess = entries.size() - kHistoryRetention;
  for (size_t i = 0; i < excess; ++i) {
    std::filesystem::remove(dir / entries[i].second, ec);
  }
}

}  // namespace

std::string KernelContextJson(const std::string& indent) {
  std::ostringstream os;
  os << indent << "\"context\": {\n"
     << indent << "  \"build_type\": \"" << COSTREAM_BUILD_TYPE << "\",\n"
     << indent << "  \"kernel_detected\": \""
     << nn::KernelTierName(nn::DetectedKernelTier()) << "\",\n"
     << indent << "  \"kernel_active\": \""
     << nn::KernelTierName(nn::ActiveKernelTier()) << "\",\n"
     << indent << "  \"kernel_env_override\": ";
  const char* override_env = nn::KernelTierEnvOverride();
  if (override_env == nullptr) {
    os << "null";
  } else {
    // The override is user-controlled text destined for a JSON string;
    // keep only characters that cannot break out of it.
    os << '"';
    for (const char* p = override_env; *p != '\0'; ++p) {
      if (*p >= 0x20 && *p != '"' && *p != '\\') os << *p;
    }
    os << '"';
  }
  os << "\n" << indent << "}";
  return os.str();
}

bool SpliceJsonSection(const std::string& path, const std::string& section) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  in.close();
  const size_t close = json.rfind('}');
  if (close == std::string::npos) return false;
  json.insert(close, section);
  std::ofstream out(path, std::ios::trunc);
  out << json;
  return out.good();
}

std::string SaveMetricsHistory(const std::string& json_path) {
  std::ifstream in(json_path, std::ios::binary);
  if (!in) return "";
  std::error_code ec;
  std::filesystem::create_directories("results/history", ec);
  if (ec) return "";
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y%m%dT%H%M%SZ", &tm);
  const std::string stem = std::filesystem::path(json_path).stem().string();
  const std::string out_path =
      std::string("results/history/") + stem + "-" + stamp + ".json";
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  out.flush();
  if (!out.good()) return "";
  PruneHistory("results/history");
  return out_path;
}

SplitCorpusResult BuildSplitCorpus(const workload::CorpusConfig& config) {
  workload::CorpusConfig cfg = config;
  // The harnesses leave the config at its serial default; generation is
  // bitwise-identical at any thread count, so defaulting to the bench-wide
  // knob only changes wall-clock.
  if (cfg.num_threads == 1) cfg.num_threads = BenchThreads();
  const auto records = workload::BuildCorpus(cfg);
  const workload::SplitIndices split = workload::SplitCorpus(
      static_cast<int64_t>(records.size()), 0.8, 0.1, config.seed ^ 0x5517ull);
  SplitCorpusResult result;
  result.train = workload::Gather(records, split.train);
  result.val = workload::Gather(records, split.val);
  result.test = workload::Gather(records, split.test);
  return result;
}

std::unique_ptr<core::CostModel> TrainGnn(
    const std::vector<workload::TraceRecord>& train,
    const std::vector<workload::TraceRecord>& val, sim::Metric metric,
    int epochs, uint64_t seed, core::FeaturizationMode featurization,
    core::MessagePassingMode message_passing) {
  core::CostModelConfig config;
  config.featurization = featurization;
  config.message_passing = message_passing;
  config.head = sim::IsRegressionMetric(metric)
                    ? core::HeadKind::kRegression
                    : core::HeadKind::kClassification;
  config.seed = seed;
  auto model = std::make_unique<core::CostModel>(config);
  const auto train_samples =
      workload::ToTrainSamples(train, metric, featurization, BenchThreads());
  const auto val_samples =
      workload::ToTrainSamples(val, metric, featurization, BenchThreads());
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.seed = seed * 7919 + 13;
  tc.num_threads = BenchThreads();
  core::TrainModel(*model, train_samples, val_samples, tc);
  return model;
}

std::unique_ptr<baselines::Gbdt> TrainFlat(
    const std::vector<workload::TraceRecord>& train, sim::Metric metric) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  workload::ToFlatDataset(train, metric, &x, &y);
  const auto objective = sim::IsRegressionMetric(metric)
                             ? baselines::GbdtObjective::kSquaredLogError
                             : baselines::GbdtObjective::kLogistic;
  auto model = std::make_unique<baselines::Gbdt>(baselines::GbdtConfig{},
                                                 objective);
  model->Fit(x, y);
  return model;
}

namespace {

// Regression test pairs (actual, predicted) over successful records.
template <typename PredictFn>
eval::QErrorSummary EvalRegression(
    const std::vector<workload::TraceRecord>& test, sim::Metric metric,
    const PredictFn& predict) {
  std::vector<double> actual;
  std::vector<double> predicted;
  for (const auto& record : test) {
    if (!record.metrics.success) continue;
    actual.push_back(sim::RegressionValue(record.metrics, metric));
    predicted.push_back(predict(record));
  }
  COSTREAM_CHECK_MSG(!actual.empty(), "no successful test records");
  return eval::SummarizeQErrors(actual, predicted);
}

template <typename PredictFn>
double EvalBalancedAccuracy(const std::vector<workload::TraceRecord>& test,
                            sim::Metric metric, const PredictFn& predict) {
  std::vector<bool> labels;
  for (const auto& record : test) {
    labels.push_back(sim::BinaryLabel(record.metrics, metric));
  }
  const std::vector<int> balanced = eval::BalancedIndices(labels);
  if (balanced.empty()) return -1.0;
  std::vector<bool> actual;
  std::vector<bool> predicted;
  for (int i : balanced) {
    actual.push_back(labels[i]);
    predicted.push_back(predict(test[i]));
  }
  return eval::Accuracy(actual, predicted);
}

}  // namespace

eval::QErrorSummary EvalGnnRegression(
    const core::CostModel& model,
    const std::vector<workload::TraceRecord>& test, sim::Metric metric) {
  return EvalRegression(test, metric, [&](const workload::TraceRecord& r) {
    return model.Predict(core::BuildJointGraph(
        r.query, r.cluster, r.placement, model.config().featurization));
  });
}

eval::QErrorSummary EvalFlatRegression(
    const baselines::Gbdt& model,
    const std::vector<workload::TraceRecord>& test, sim::Metric metric) {
  return EvalRegression(test, metric, [&](const workload::TraceRecord& r) {
    return model.Predict(
        baselines::FlatVectorFeatures(r.query, r.cluster, r.placement));
  });
}

double EvalGnnBalancedAccuracy(const core::CostModel& model,
                               const std::vector<workload::TraceRecord>& test,
                               sim::Metric metric) {
  return EvalBalancedAccuracy(
      test, metric, [&](const workload::TraceRecord& r) {
        return model.Predict(core::BuildJointGraph(
                   r.query, r.cluster, r.placement,
                   model.config().featurization)) >= 0.5;
      });
}

double EvalFlatBalancedAccuracy(const baselines::Gbdt& model,
                                const std::vector<workload::TraceRecord>& test,
                                sim::Metric metric) {
  return EvalBalancedAccuracy(
      test, metric, [&](const workload::TraceRecord& r) {
        return model.Predict(baselines::FlatVectorFeatures(
                   r.query, r.cluster, r.placement)) >= 0.5;
      });
}

void ReportTable(const std::string& experiment, const std::string& title,
                 const eval::Table& table) {
  std::printf("== %s — %s ==\n", experiment.c_str(), title.c_str());
  std::printf("%s\n", table.ToString().c_str());
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string path = "results/" + experiment + ".csv";
  if (!table.WriteCsv(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else {
    std::printf("(csv written to %s)\n\n", path.c_str());
  }
}

std::string AccuracyCell(double accuracy) {
  if (accuracy < 0.0) return "n/a";
  return eval::Table::Percent(accuracy, 1);
}

}  // namespace costream::bench
