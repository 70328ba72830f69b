// costream-bench: one end-to-end workload of the Costream system per
// process. Prints progress lines, then one JSON object on the last line with
// the end-to-end metrics (or, with --trace, the per-layer metrics), the
// output checks and a digest of the run's decisions. bench/e2e/run.py builds
// this binary, runs it and turns that object into the benchmark's result.
//
//   costream_bench --workload NAME --seed N --seconds S [--trace]
//                  [--spans PATH] [--scratch DIR] [--smoke]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench_support.h"
#include "nn/kernel_dispatch.h"

#ifndef COSTREAM_BENCH_BUILD_TYPE
#define COSTREAM_BENCH_BUILD_TYPE "unknown"
#endif

namespace costream::e2e {
namespace {

using WorkloadFn = void (*)(const RunOptions&, RunResult&, LayerRecorder&);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"churn-steady", RunChurnSteady},   {"crowd-converge", RunCrowdConverge},
      {"burst-async", RunBurstAsync},     {"label-corpus", RunLabelCorpus},
      {"train-memory", RunTrainMemory},   {"train-stream", RunTrainStream},
  };
  return workloads;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "costream_bench: %s\nusage: costream_bench --workload NAME "
               "--seed N --seconds S [--trace] [--spans PATH] [--scratch DIR] "
               "[--smoke]\nworkloads:",
               message);
  for (const auto& [name, fn] : Workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

// A non-finite value prints as null, which run.py counts as not reported.
void PrintMetric(const char* sep, const Metric& m) {
  std::printf("%s\"%s\": {\"value\": ", sep, m.name.c_str());
  if (std::isfinite(m.value)) {
    std::printf("%.17g", m.value);
  } else {
    std::printf("null");
  }
  std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
}

void PrintMetrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const Metric& m : metrics) {
    PrintMetric(sep, m);
    sep = ", ";
  }
  std::printf("}");
}

// The metrics this run reports: end-to-end untraced, per-layer traced.
std::vector<Metric> ReportedMetrics(const RunOptions& options,
                                    const RunResult& result,
                                    const LayerRecorder& layers) {
  std::vector<Metric> out;
  if (!options.trace) {
    out.push_back({"throughput_per_s", result.throughput.Median(), "1/s"});
    // Windows of 500 operations leave 50 samples beyond each window's p90.
    constexpr size_t kLatencyWindow = 500;
    out.push_back({"latency_p50_us",
                   WindowedPercentile(result.latency_us, 0.5, kLatencyWindow),
                   "us"});
    out.push_back({"latency_p90_us",
                   WindowedPercentile(result.latency_us, 0.9, kLatencyWindow),
                   "us"});
    out.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    out.push_back({"setup_s", Median(result.setup_s), "s"});
    return out;
  }
  for (const auto& [name, unit] : LayerCatalog()) {
    Metric m{name, 0.0, unit};
    bool explicit_value = false;
    for (const Metric& layer : result.layers) {
      if (layer.name == name) {
        m.value = layer.value;
        explicit_value = true;
      }
    }
    const std::string suffix = "_us";
    if (!explicit_value && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      m.value = layers.PerOpUs(name.substr(0, name.size() - suffix.size()));
    }
    if (name == "layers.unattributed_share") {
      m.value = layers.UnattributedShare();
    }
    out.push_back(m);
  }
  return out;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--spans" || arg == "--scratch") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + arg).c_str());
      if (arg == "--workload") options.workload = v;
      if (arg == "--seed") {
        options.seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      }
      if (arg == "--seconds") options.seconds = std::strtod(v, nullptr);
      if (arg == "--spans") options.spans_path = v;
      if (arg == "--scratch") options.scratch_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto workload = Workloads().find(options.workload);
  if (workload == Workloads().end()) return Usage("unknown workload");
  if (!have_seed) return Usage("--seed is required");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (std::strcmp(COSTREAM_BENCH_BUILD_TYPE, "Release") != 0 &&
      !options.smoke) {
    std::fprintf(stderr,
                 "costream_bench: built as '%s'; timings need a Release "
                 "build (or pass --smoke for a functional pass)\n",
                 COSTREAM_BENCH_BUILD_TYPE);
    return 2;
  }
  // bench_service's model recipe scales with these; pinned, every run serves
  // the same models, trained on one thread.
  setenv("COSTREAM_BENCH_SCALE", "1", 1);
  setenv("COSTREAM_BENCH_THREADS", "1", 1);

  std::printf("[costream_bench] %s seed=%llu seconds=%g trace=%d smoke=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? 1 : 0);
  std::fflush(stdout);
  RunResult result(/*window_s=*/0.5);
  LayerRecorder layers(options.trace);
  workload->second(options, result, layers);
  if (options.trace && !options.spans_path.empty()) {
    result.Check("spans_written", layers.WriteSpans(options.spans_path));
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
              "\"trace\": %d, \"smoke\": %d, \"build_type\": \"%s\", "
              "\"kernel\": \"%s\", \"attempted\": %lld, \"failed\": %lld, "
              "\"digest\": \"%016llx\", \"digest_ops\": %lld, "
              "\"sampled_ops\": %lld, \"checks\": {",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? 1 : 0,
              COSTREAM_BENCH_BUILD_TYPE,
              nn::KernelTierName(nn::ActiveKernelTier()),
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              static_cast<unsigned long long>(result.digest),
              static_cast<long long>(result.digest_ops),
              static_cast<long long>(layers.sampled_ops()));
  const char* sep = "";
  for (const auto& [name, ok] : result.checks) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), ok ? "true" : "false");
    sep = ", ";
  }
  std::printf("}");
  PrintMetrics("metrics", ReportedMetrics(options, result, layers));
  PrintMetrics("info", result.info);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace costream::e2e

int main(int argc, char** argv) { return costream::e2e::Main(argc, argv); }
