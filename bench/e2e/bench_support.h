#ifndef COSTREAM_BENCH_E2E_BENCH_SUPPORT_H_
#define COSTREAM_BENCH_E2E_BENCH_SUPPORT_H_

// Measurement plumbing shared by every costream-bench workload: clocks,
// digests, rate windows, percentiles, the per-layer replay recorder and the
// per-run result that costream_bench.cc prints as JSON.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/hardware.h"

namespace costream::e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Every workload sets itself up this many times and reports the median.
inline constexpr int kSetupRepeats = 3;
// Traced runs replay every kSampleEvery-th operation through the layers.
inline constexpr int kSampleEvery = 10;
// Operations (decisions, records) covered by a run's digest. Measured phases
// that digest their operations run until they have made this many.
inline constexpr int64_t kDigestOps = 2000;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scaled-down inputs for a quick functional pass (any build type).
  bool smoke = false;
  // spans.jsonl destination of a traced run ("" = keep spans in memory only).
  std::string spans_path;
  // Directory for the trace files the training workloads write and delete.
  std::string scratch_dir = ".";
};

// FNV-1a 64 over 64-bit words; doubles hash by bit pattern.
class Digest {
 public:
  void Add(uint64_t v);
  void AddDouble(double d);
  void AddPlacement(const sim::Placement& placement);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// Splitmix64, the mixer behind every seed derivation in the benchmark.
uint64_t Mix64(uint64_t x);

inline bool AllEqual(const std::vector<uint64_t>& values) {
  for (uint64_t v : values) {
    if (v != values.front()) return false;
  }
  return true;
}

// Rate over consecutive windows of busy time: units (one op, one crowd, one
// batch) are appended in order and a window closes once it holds at least
// `window_s` seconds of busy time. The median over closed windows ignores
// isolated stalls that a whole-run ratio would absorb.
class RateWindows {
 public:
  explicit RateWindows(double window_s) : window_s_(window_s) {}
  void Add(double ops, double busy_s);
  // Median per-window rate; the open remainder counts only when no window
  // closed at all.
  double Median() const;

 private:
  double window_s_;
  double ops_ = 0.0;
  double busy_s_ = 0.0;
  std::vector<double> rates_;
};

// q in [0, 1], linear interpolation between order statistics; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Median over consecutive windows of `window` samples of each window's
// q-percentile (the whole series when it is shorter than one window). Like
// the rate windows, it keeps a stall of a few seconds from moving the run's
// percentile.
double WindowedPercentile(const std::vector<double>& values, double q,
                          size_t window);

// Peak resident set size of this process (VmHWM), in MB; 0 if unreadable.
double PeakRssMb();

// Per-layer times of sampled operations, measured from outside the library:
// every sampled op records its own wall time, then its inputs are replayed
// through the layers' public entry points and each call is timed. Spans are
// kept in memory and written as JSON lines when the run ends.
class LayerRecorder {
 public:
  explicit LayerRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Wall time of sampled op `op` (the span every replayed layer hangs off).
  void Op(int64_t op, const char* name, Clock::time_point t0,
          Clock::time_point t1);

  // Runs fn() and books its wall time as `layer` of op `op`, a child of
  // `parent`. `attributed` layers count towards layers.unattributed_share:
  // they partition the op's work, while the rest split one of them further
  // or run outside it.
  template <class F>
  void Time(int64_t op, const char* layer, const char* parent,
            bool attributed, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    Add(op, layer, parent, attributed, t0, Clock::now());
  }
  void Add(int64_t op, const char* layer, const char* parent, bool attributed,
           Clock::time_point t0, Clock::time_point t1);

  // Mean microseconds of `layer` per sampled op (0 when never recorded).
  double PerOpUs(const std::string& layer) const;
  // 1 - (attributed layer time) / (sampled op wall time).
  double UnattributedShare() const;
  int64_t sampled_ops() const { return ops_; }

  bool WriteSpans(const std::string& path) const;

 private:
  struct Span {
    int64_t op;
    std::string name;
    std::string parent;
    double t0_us;
    double t1_us;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  int64_t ops_ = 0;
  double op_wall_us_ = 0.0;
  double attributed_us_ = 0.0;
  std::map<std::string, double> layer_us_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one workload run reports. The measured phase fills
// throughput/latency/attempted/failed; every workload also files its output
// checks and, under --trace, the per-layer metrics.
struct RunResult {
  explicit RunResult(double window_s) : throughput(window_s) {}

  std::vector<double> setup_s;
  RateWindows throughput;
  std::vector<double> latency_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Digest of a fixed prefix of the measured decisions/records/weights and
  // how many operations it covers (-1: not comparable across runs).
  uint64_t digest = 0;
  int64_t digest_ops = -1;
  std::vector<std::pair<std::string, bool>> checks;
  // Extra end-to-end readings printed for people, not gated.
  std::vector<Metric> info;
  // Per-layer metrics (traced runs).
  std::vector<Metric> layers;

  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void Info(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

// Every per-layer metric the benchmark declares, with its unit. Traced runs
// report all of them; layers a workload never enters read 0.
const std::vector<std::pair<std::string, std::string>>& LayerCatalog();

// Workload entry points.
void RunChurnSteady(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers);
void RunCrowdConverge(const RunOptions& options, RunResult& result,
                      LayerRecorder& layers);
void RunBurstAsync(const RunOptions& options, RunResult& result,
                   LayerRecorder& layers);
void RunLabelCorpus(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers);
void RunTrainMemory(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers);
void RunTrainStream(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers);

}  // namespace costream::e2e

#endif  // COSTREAM_BENCH_E2E_BENCH_SUPPORT_H_
