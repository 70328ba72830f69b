#include "workload/streaming.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace costream::workload {

StreamingCorpus::StreamingCorpus(TraceReader* reader,
                                 std::vector<int64_t> record_indices,
                                 sim::Metric metric,
                                 const StreamingCorpusOptions& options)
    : reader_(reader), metric_(metric), options_(options) {
  COSTREAM_CHECK(reader_ != nullptr);
  static obs::Histogram& scan_us =
      obs::GetHistogram("workload.streaming.scan_us");
  obs::ScopedTimer timer(scan_us);

  const bool regression = sim::IsRegressionMetric(metric_);
  const size_t n = record_indices.size();
  // Visit records in file order so each compressed block decodes exactly
  // once during the scan; keep/label land in slots addressed by the split
  // position, so the sample order below is the split order regardless.
  std::vector<size_t> by_file(n);
  std::iota(by_file.begin(), by_file.end(), size_t{0});
  std::sort(by_file.begin(), by_file.end(), [&](size_t a, size_t b) {
    return record_indices[a] < record_indices[b];
  });
  std::vector<char> keep(n, 0);
  std::vector<char> label(n, 0);
  for (size_t p : by_file) {
    TraceRecord record;
    COSTREAM_CHECK(reader_->Get(record_indices[p], &record));
    if (regression && !record.metrics.success) continue;
    keep[p] = 1;
    // Regression samples leave TrainSample::label false (FeaturizeRecord
    // never sets it), so they must not count as positives here either.
    if (!regression && sim::BinaryLabel(record.metrics, metric_)) {
      label[p] = 1;
    }
  }
  sample_to_record_.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    if (!keep[p]) {
      ++dropped_;
      continue;
    }
    sample_to_record_.push_back(record_indices[p]);
    positives_ += label[p];
  }
}

StreamingCorpus::StreamingCorpus(TraceReader* reader,
                                 std::vector<int64_t> record_indices,
                                 sim::Metric metric)
    : StreamingCorpus(reader, std::move(record_indices), metric,
                      StreamingCorpusOptions{}) {}

void StreamingCorpus::Fetch(const int64_t* ids, int count,
                            const core::TrainSample** out) {
  static obs::Counter& fetched =
      obs::GetCounter("workload.streaming.samples_fetched");
  COSTREAM_CHECK(count >= 0);
  std::vector<int64_t> record_ids(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    COSTREAM_CHECK(ids[i] >= 0 && ids[i] < size());
    record_ids[static_cast<size_t>(i)] =
        sample_to_record_[static_cast<size_t>(ids[i])];
  }
  // Pin the batch's blocks (one lookup or concurrent decode per distinct
  // block), then parse each record from its pinned block: a batch wider
  // than the cache never decodes a block twice.
  const std::vector<TraceReader::BlockRef> blocks =
      reader_->Prefetch(record_ids.data(), record_ids.size());
  buffer_.assign(static_cast<size_t>(count), core::TrainSample{});
  std::atomic<bool> ok{true};
  common::ParallelFor(options_.num_threads, count, [&](int i) {
    const size_t k = static_cast<size_t>(i);
    TraceRecord record;
    if (!reader_->Get(record_ids[k], blocks[k], &record)) {
      ok.store(false, std::memory_order_relaxed);
      return;
    }
    // The scan already established this record survives featurization.
    if (!FeaturizeRecord(record, metric_, options_.mode, &buffer_[k])) {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  // The scan already parsed every record, so a failure here means the file
  // mutated underneath the mapping; training on silently-missing samples
  // would be worse than dying.
  COSTREAM_CHECK(ok.load());
  for (int i = 0; i < count; ++i) out[i] = &buffer_[static_cast<size_t>(i)];
  fetched.Add(static_cast<uint64_t>(count));
}

}  // namespace costream::workload
