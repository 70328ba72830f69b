#include "bench_support.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace costream::e2e {

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (i * 8)) & 0xffull;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::AddDouble(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  Add(bits);
}

void Digest::AddPlacement(const sim::Placement& placement) {
  Add(placement.size());
  for (int node : placement) Add(static_cast<uint64_t>(node));
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void RateWindows::Add(double ops, double busy_s) {
  ops_ += ops;
  busy_s_ += busy_s;
  if (busy_s_ >= window_s_) {
    rates_.push_back(ops_ / busy_s_);
    ops_ = 0.0;
    busy_s_ = 0.0;
  }
}

double RateWindows::Median() const {
  if (!rates_.empty()) return e2e::Median(rates_);
  return busy_s_ > 0.0 ? ops_ / busy_s_ : 0.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double WindowedPercentile(const std::vector<double>& values, double q,
                          size_t window) {
  if (values.size() < window) return Percentile(values, q);
  std::vector<double> per_window;
  for (size_t begin = 0; begin + window <= values.size(); begin += window) {
    per_window.push_back(Percentile(
        std::vector<double>(values.begin() + begin,
                            values.begin() + begin + window),
        q));
  }
  return Median(std::move(per_window));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void LayerRecorder::Op(int64_t op, const char* name, Clock::time_point t0,
                       Clock::time_point t1) {
  ++ops_;
  op_wall_us_ += Micros(t0, t1);
  spans_.push_back({op, name, "", Micros(origin_, t0), Micros(origin_, t1)});
}

void LayerRecorder::Add(int64_t op, const char* layer, const char* parent,
                        bool attributed, Clock::time_point t0,
                        Clock::time_point t1) {
  const double us = Micros(t0, t1);
  layer_us_[layer] += us;
  if (attributed) attributed_us_ += us;
  spans_.push_back({op, layer, parent, Micros(origin_, t0), Micros(origin_, t1)});
}

double LayerRecorder::PerOpUs(const std::string& layer) const {
  const auto it = layer_us_.find(layer);
  if (it == layer_us_.end() || ops_ == 0) return 0.0;
  return it->second / static_cast<double>(ops_);
}

double LayerRecorder::UnattributedShare() const {
  return op_wall_us_ > 0.0 ? 1.0 - attributed_us_ / op_wall_us_ : 0.0;
}

bool LayerRecorder::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\": %lld, \"span\": \"%s\", \"parent\": %s%s%s, "
                 "\"t0_us\": %.3f, \"t1_us\": %.3f}\n",
                 static_cast<long long>(s.op), s.name.c_str(),
                 s.parent.empty() ? "" : "\"",
                 s.parent.empty() ? "null" : s.parent.c_str(),
                 s.parent.empty() ? "" : "\"", s.t0_us, s.t1_us);
  }
  return std::fclose(out) == 0;
}

const std::vector<std::pair<std::string, std::string>>& LayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"service.ledger_view_us", "us"},
      {"placement.enumerate_us", "us"},
      {"verify.intervals_us", "us"},
      {"service.penalty_us", "us"},
      {"service.rank_us", "us"},
      {"service.score_us", "us"},
      {"core.featurize_us", "us"},
      {"core.forward_us", "us"},
      {"service.record_us", "us"},
      {"service.retire_us", "us"},
      {"service.queue_wait_us", "us"},
      {"service.drain_batch_mean", "count"},
      {"service.converge_us_per_ripup", "us"},
      {"service.ripups_per_crowd", "count"},
      {"service.scoring.pruned_share", "share"},
      {"service.scoring.cache_hit_rate", "share"},
      {"service.scoring.rescored_share", "share"},
      {"service.scoring.rank_fallbacks_per_decision", "count"},
      {"service.scoring.rank_cache_hit_rate", "share"},
      {"workload.generate_us", "us"},
      {"sim.fluid_us", "us"},
      {"workload.trace_append_us", "us"},
      {"workload.featurize_us", "us"},
      {"core.train_forward_us", "us"},
      {"core.train_backward_us", "us"},
      {"nn.adam_step_us", "us"},
      {"workload.fetch_us", "us"},
      {"workload.reader.hit_rate", "share"},
      {"workload.reader.decoded_records_per_sample", "count"},
      {"layers.unattributed_share", "share"},
      {"layers.replay_match_share", "share"},
      {"bench.generator_lag_p99_us", "us"},
  };
  return catalog;
}

}  // namespace costream::e2e
