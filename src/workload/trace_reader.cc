#include "workload/trace_reader.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "workload/trace_format.h"

namespace costream::workload {

namespace {

obs::Counter& BlockHitsCounter() {
  static obs::Counter& c = obs::GetCounter("workload.reader.block_hits");
  return c;
}
obs::Counter& BlockMissesCounter() {
  static obs::Counter& c = obs::GetCounter("workload.reader.block_misses");
  return c;
}
obs::Histogram& ChecksumLatency() {
  static obs::Histogram& h = obs::GetHistogram("workload.reader.checksum_us");
  return h;
}
obs::Histogram& DecompressLatency() {
  static obs::Histogram& h =
      obs::GetHistogram("workload.reader.decompress_us");
  return h;
}
obs::Histogram& FrameScanLatency() {
  static obs::Histogram& h =
      obs::GetHistogram("workload.reader.frame_scan_us");
  return h;
}
obs::Gauge& CachedBytesGauge() {
  static obs::Gauge& g = obs::GetGauge("workload.reader.cached_bytes");
  return g;
}

}  // namespace

struct TraceReader::Block {
  uint64_t first_record = 0;
  std::string payload;  // checksum-verified, decompressed record frames
  FrameTable frames;    // offsets into `payload`
};

std::unique_ptr<TraceReader> TraceReader::Open(
    const std::string& path, const TraceReaderOptions& options) {
  auto reader = std::unique_ptr<TraceReader>(new TraceReader());
  reader->options_ = options;
  reader->options_.max_cached_blocks =
      std::max(reader->options_.max_cached_blocks, 1);
  if (!InspectTraceFile(path, &reader->info_)) return nullptr;
  if (!reader->file_.Open(path)) return nullptr;

  if (reader->info_.version == 1) {
    // v1 text has no random-access structure; parse it once, eagerly.
    reader->mode_ = Mode::kEager;
    if (!LoadTracesFromFile(path, &reader->records_)) return nullptr;
    reader->num_records_ = static_cast<int64_t>(reader->records_.size());
    return reader;
  }

  reader->link_fields_ = reader->info_.link_matrices;
  reader->num_records_ = static_cast<int64_t>(reader->info_.record_count);
  if (reader->info_.compressed) {
    reader->mode_ = Mode::kCompressedV2;
    if (!reader->OpenCompressed()) return nullptr;
  } else {
    reader->mode_ = Mode::kPlainV2;
    if (!reader->OpenPlain()) return nullptr;
  }
  return reader;
}

std::unique_ptr<TraceReader> TraceReader::Open(const std::string& path) {
  return Open(path, TraceReaderOptions{});
}

bool TraceReader::ScanFrames(const unsigned char* begin,
                             const unsigned char* end, uint64_t count,
                             FrameTable* frames) {
  internal::Cursor cur{begin, end};
  // Every frame carries at least its u32 length prefix, so a lying count
  // fails here instead of sizing the table.
  if (count > cur.remaining() / 4) return false;
  frames->offsets.reserve(static_cast<size_t>(count));
  frames->sizes.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t size = 0;
    if (!cur.GetU32(&size) || cur.remaining() < size) return false;
    frames->offsets.push_back(static_cast<uint64_t>(cur.p - begin));
    frames->sizes.push_back(size);
    cur.p += size;
  }
  return cur.remaining() == 0;  // trailing bytes fail closed
}

bool TraceReader::ParseFrame(const unsigned char* begin,
                             const FrameTable& frames, size_t i,
                             TraceRecord* out) const {
  const unsigned char* body = begin + frames.offsets[i];
  *out = TraceRecord{};
  return internal::ParseRecordBody({body, body + frames.sizes[i]},
                                   link_fields_, out);
}

bool TraceReader::OpenPlain() {
  // One pass over the record frames records where each body lives; bodies
  // themselves are parsed lazily per Get.
  return ScanFrames(mapped() + info_.header_bytes, mapped() + file_.size(),
                    static_cast<uint64_t>(num_records_), &plain_frames_);
}

bool TraceReader::OpenCompressed() {
  // The sequential loader tolerates a broken index (it has the blocks);
  // random access depends on it, so everything is validated fail-closed
  // here: contiguous block extents starting right after the header and
  // ending at the index, monotone contiguous record ranges covering
  // [0, record_count), and frame headers that agree with their entries.
  if (!info_.index_ok) return false;
  const uint64_t record_count = info_.record_count;
  if (info_.blocks.empty()) return record_count == 0;

  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(file_.data());
  uint64_t expected_offset = info_.header_bytes;
  uint64_t expected_record = 0;
  first_records_.reserve(info_.blocks.size());
  for (const TraceBlockInfo& block : info_.blocks) {
    if (block.offset != expected_offset) return false;
    if (block.first_record != expected_record) return false;
    if (block.record_count == 0) return false;
    if (block.uncompressed_bytes > internal::kMaxBlockUncompressedBytes) {
      return false;
    }
    const uint64_t end =
        block.offset + internal::kBlockFrameBytes + block.compressed_bytes;
    if (end < block.offset || end > info_.index_offset) return false;
    // The frame header on disk must agree with the index entry.
    internal::Cursor cur{base + block.offset, base + file_.size()};
    internal::BlockFrame frame;
    if (!internal::GetBlockFrame(&cur, &frame)) return false;
    if (frame.compressed_bytes != block.compressed_bytes ||
        frame.uncompressed_bytes != block.uncompressed_bytes ||
        frame.record_count != block.record_count ||
        frame.checksum != block.checksum ||
        (frame.flags & ~internal::kKnownBlockFlags) != 0) {
      return false;
    }
    first_records_.push_back(block.first_record);
    expected_offset = end;
    expected_record += block.record_count;
  }
  if (expected_offset != info_.index_offset) return false;
  return expected_record == record_count;
}

size_t TraceReader::BlockOf(int64_t index) const {
  const auto it = std::upper_bound(first_records_.begin(), first_records_.end(),
                                   static_cast<uint64_t>(index));
  return static_cast<size_t>(it - first_records_.begin()) - 1;
}

TraceReader::BlockRef TraceReader::DecodeBlock(size_t index) const {
  const TraceBlockInfo& entry = info_.blocks[index];
  internal::Cursor cur{mapped() + entry.offset, mapped() + file_.size()};
  internal::BlockFrame frame;
  if (!internal::GetBlockFrame(&cur, &frame) ||
      cur.remaining() < frame.compressed_bytes) {
    return nullptr;
  }
  {
    obs::ScopedTimer timer(ChecksumLatency());
    if (!internal::VerifyBlockPayload(cur.p, frame)) return nullptr;
  }
  auto block = std::make_shared<Block>();
  block->first_record = entry.first_record;
  {
    obs::ScopedTimer timer(DecompressLatency());
    if (!internal::InflateBlockPayload(cur.p, frame, &block->payload)) {
      return nullptr;
    }
  }
  obs::ScopedTimer timer(FrameScanLatency());
  const auto* payload =
      reinterpret_cast<const unsigned char*>(block->payload.data());
  if (!ScanFrames(payload, payload + block->payload.size(),
                  entry.record_count, &block->frames)) {
    return nullptr;
  }
  return block;
}

TraceReader::BlockRef TraceReader::GetBlock(size_t index) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(index);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      hits_.fetch_add(1, std::memory_order_relaxed);
      BlockHitsCounter().Add(1);
      return it->second.block;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  BlockMissesCounter().Add(1);
  // Decode outside the lock so concurrent misses on different blocks
  // overlap; a duplicate decode of the same block is resolved below.
  BlockRef block = DecodeBlock(index);
  if (block == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.block;
  }
  lru_.push_front(index);
  CacheEntry entry;
  entry.block = block;
  entry.bytes = info_.blocks[index].uncompressed_bytes;
  entry.lru_it = lru_.begin();
  cached_bytes_now_ += entry.bytes;
  cache_.emplace(index, std::move(entry));
  while (cache_.size() > static_cast<size_t>(options_.max_cached_blocks)) {
    const size_t victim = lru_.back();
    lru_.pop_back();
    auto victim_it = cache_.find(victim);
    cached_bytes_now_ -= victim_it->second.bytes;
    cache_.erase(victim_it);
  }
  uint64_t peak = peak_cached_bytes_.load(std::memory_order_relaxed);
  while (cached_bytes_now_ > peak &&
         !peak_cached_bytes_.compare_exchange_weak(peak, cached_bytes_now_)) {
  }
  CachedBytesGauge().Set(static_cast<double>(cached_bytes_now_));
  return block;
}

bool TraceReader::ParseFromBlock(const Block& block, int64_t index,
                                 TraceRecord* out) const {
  const uint64_t i = static_cast<uint64_t>(index) - block.first_record;
  COSTREAM_CHECK(static_cast<uint64_t>(index) >= block.first_record &&
                 i < block.frames.sizes.size());
  return ParseFrame(
      reinterpret_cast<const unsigned char*>(block.payload.data()),
      block.frames, static_cast<size_t>(i), out);
}

bool TraceReader::Get(int64_t index, TraceRecord* out) {
  COSTREAM_CHECK(out != nullptr);
  COSTREAM_CHECK(index >= 0 && index < num_records_);
  switch (mode_) {
    case Mode::kEager:
      *out = records_[static_cast<size_t>(index)];
      return true;
    case Mode::kPlainV2:
      return ParseFrame(mapped() + info_.header_bytes, plain_frames_,
                        static_cast<size_t>(index), out);
    case Mode::kCompressedV2: {
      const BlockRef block = GetBlock(BlockOf(index));
      return block != nullptr && ParseFromBlock(*block, index, out);
    }
  }
  return false;
}

bool TraceReader::Get(int64_t index, const BlockRef& block, TraceRecord* out) {
  if (block == nullptr) return Get(index, out);
  COSTREAM_CHECK(out != nullptr);
  return ParseFromBlock(*block, index, out);
}

std::vector<TraceReader::BlockRef> TraceReader::Prefetch(const int64_t* ids,
                                                         size_t count) {
  std::vector<BlockRef> handles(count);
  if (mode_ != Mode::kCompressedV2 || count == 0) return handles;
  std::vector<size_t> id_blocks(count);
  for (size_t i = 0; i < count; ++i) {
    COSTREAM_CHECK(ids[i] >= 0 && ids[i] < num_records_);
    id_blocks[i] = BlockOf(ids[i]);
  }
  std::vector<size_t> blocks = id_blocks;
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  std::vector<BlockRef> pinned(blocks.size());
  common::ParallelFor(options_.num_threads, static_cast<int>(blocks.size()),
                      [&](int i) {
                        const size_t b = static_cast<size_t>(i);
                        pinned[b] = GetBlock(blocks[b]);
                      });
  for (size_t i = 0; i < count; ++i) {
    const auto it =
        std::lower_bound(blocks.begin(), blocks.end(), id_blocks[i]);
    handles[i] = pinned[static_cast<size_t>(it - blocks.begin())];
  }
  return handles;
}

int TraceReader::cached_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cache_.size());
}

uint64_t TraceReader::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_bytes_now_;
}

}  // namespace costream::workload
