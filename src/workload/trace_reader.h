#ifndef COSTREAM_WORKLOAD_TRACE_READER_H_
#define COSTREAM_WORKLOAD_TRACE_READER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mmap_file.h"
#include "workload/corpus.h"
#include "workload/trace_io.h"

namespace costream::workload {

struct TraceReaderOptions {
  // Upper bound on simultaneously cached decoded blocks (compressed images
  // only). Peak reader memory is roughly this many blocks' uncompressed
  // payloads, plus the blocks a live Prefetch batch pins beyond the cap,
  // plus the mmap (which the OS pages in lazily).
  int max_cached_blocks = 16;
  // Workers used by Prefetch to decode a batch's blocks concurrently
  // (<= 0 means all hardware threads).
  int num_threads = 1;
};

// Random-access reader over a trace file that never materializes the whole
// corpus. The file is memory-mapped; what happens per Get depends on the
// format:
//
//   v2 compressed  the trailing block index (validated fail-closed at Open:
//                  contiguous offsets, monotone record ranges, count
//                  agreement with the header) maps a record to its block.
//                  On first touch the block is checksum-verified and
//                  decompressed, and its record frames are scanned into an
//                  (offset, size) table that must tile the payload exactly;
//                  payload and table are held in a bounded LRU cache. Get
//                  parses only the requested record, zero-copy from the
//                  cached payload.
//   v2 plain       the same frame scan runs over the mapping at Open; Get
//                  parses the one record zero-copy from the mapping.
//   v1 text        eagerly parsed at Open (the text format has no random
//                  access structure); Get copies from memory.
//
// Records are validated as they are parsed, so in both v2 formats a
// malformed record body fails its own Get while its neighbours still read.
//
// Get and Prefetch are safe to call concurrently. Cache hits/misses and the
// per-miss checksum, decompress and frame-scan times are exported through
// obs ("workload.reader.*"), and the cache counters as per-instance
// counters for tests.
class TraceReader {
 public:
  // A verified, decompressed block payload plus its record frame table,
  // shared by the cache and by the handles Prefetch returns.
  struct Block;
  using BlockRef = std::shared_ptr<const Block>;

  // Returns null when the file cannot be opened, is not a recognizable
  // trace, or (compressed) its block index is missing, corrupt, or
  // inconsistent with the header and block frames.
  static std::unique_ptr<TraceReader> Open(const std::string& path,
                                           const TraceReaderOptions& options);
  static std::unique_ptr<TraceReader> Open(const std::string& path);

  int64_t num_records() const { return num_records_; }
  const TraceFileInfo& info() const { return info_; }

  // Parses record `index` (0-based) into *out. False when the record's
  // block fails to decode (possible despite Open's index validation if the
  // file mutated underneath the mapping) or the record body is malformed.
  bool Get(int64_t index, TraceRecord* out);

  // Same, but parses from `block` — the handle Prefetch returned for this
  // index — without a cache lookup. A null handle falls back to Get(index).
  bool Get(int64_t index, const BlockRef& block, TraceRecord* out);

  // Looks up every block overlapping `ids`, decoding the missing ones
  // concurrently, and returns one handle per id (all null for
  // non-compressed formats; null for a block that fails to decode). Each
  // distinct block counts as one cache hit or miss. The handles pin their
  // payloads independently of the cache cap, so a batch spanning more
  // blocks than max_cached_blocks still decodes each block once.
  std::vector<BlockRef> Prefetch(const int64_t* ids, size_t count);

  // Per-instance cache statistics (compressed images only).
  uint64_t block_hits() const { return hits_.load(); }
  uint64_t block_misses() const { return misses_.load(); }
  int cached_blocks() const;
  // Sum of the cached blocks' uncompressed payload bytes — the proxy used
  // for the memory bound (the frame tables add 12 bytes per record).
  uint64_t cached_bytes() const;
  uint64_t peak_cached_bytes() const { return peak_cached_bytes_.load(); }

 private:
  enum class Mode { kEager, kPlainV2, kCompressedV2 };

  // Where each record body lives in a run of record frames: byte offset
  // from the run's start, and size.
  struct FrameTable {
    std::vector<uint64_t> offsets;
    std::vector<uint32_t> sizes;
  };

  TraceReader() = default;

  // Scans `count` length-prefixed record frames in [begin, end) into
  // *frames; true only when they tile the range exactly.
  static bool ScanFrames(const unsigned char* begin, const unsigned char* end,
                         uint64_t count, FrameTable* frames);
  // Parses frame `i` of the run starting at `begin`.
  bool ParseFrame(const unsigned char* begin, const FrameTable& frames,
                  size_t i, TraceRecord* out) const;
  bool ParseFromBlock(const Block& block, int64_t index,
                      TraceRecord* out) const;
  const unsigned char* mapped() const {
    return reinterpret_cast<const unsigned char*>(file_.data());
  }

  bool OpenPlain();
  bool OpenCompressed();
  size_t BlockOf(int64_t index) const;
  BlockRef GetBlock(size_t block);
  BlockRef DecodeBlock(size_t block) const;

  TraceReaderOptions options_;
  TraceFileInfo info_;
  common::MappedFile file_;
  Mode mode_ = Mode::kEager;
  int64_t num_records_ = 0;
  bool link_fields_ = false;

  std::vector<TraceRecord> records_;     // kEager
  FrameTable plain_frames_;              // kPlainV2
  std::vector<uint64_t> first_records_;  // kCompressedV2: per-block start id

  struct CacheEntry {
    BlockRef block;
    uint64_t bytes = 0;
    std::list<size_t>::iterator lru_it;
  };
  mutable std::mutex mu_;
  std::unordered_map<size_t, CacheEntry> cache_;
  std::list<size_t> lru_;  // front = most recently used
  uint64_t cached_bytes_now_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> peak_cached_bytes_{0};
};

}  // namespace costream::workload

#endif  // COSTREAM_WORKLOAD_TRACE_READER_H_
