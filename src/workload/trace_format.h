#ifndef COSTREAM_WORKLOAD_TRACE_FORMAT_H_
#define COSTREAM_WORKLOAD_TRACE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "workload/corpus.h"

// Internal byte-level details of the v2 binary trace format, shared by
// trace_io.cc (save / sequential load), trace_reader.cc (mmap random
// access) and the artifact linter's block-index rules. Everything here is
// an implementation detail — the public API lives in trace_io.h.
//
// Layout recap (little-endian throughout):
//
//   header    8-byte magic "CSTRACE2", u32 version (=2), u32 header_bytes,
//             u64 record_count [, u32 flags, u32 reserved when any flag is
//             set]. Unknown flag bits fail closed (they change the body
//             layout); unknown header TAIL bytes are skippable padding.
//   plain     record frames back to back: u32 payload size + body.
//   compressed (header flag bit 1) — block frames back to back:
//             u32 compressed_bytes, u32 uncompressed_bytes,
//             u32 record_count, u32 block_flags, u64 checksum, payload.
//             The payload is the concatenation of plain record frames,
//             stored LZ-compressed (block_flags bit 0) or raw when the
//             codec cannot shrink it. The checksum is FNV-1a over the
//             stored payload, seeded with a hash of the other frame fields
//             so a lying size or count breaks it before any allocation.
//   index     after the last block: one 48-byte entry per block (offset,
//             compressed/uncompressed bytes, first record, record count,
//             checksum), then a 32-byte trailer: u64 index_offset,
//             u64 num_blocks, u64 index_checksum (FNV-1a over the entry
//             bytes), 8-byte magic "CSTRIDX2".

namespace costream::workload::internal {

inline constexpr char kMagicV2[8] = {'C', 'S', 'T', 'R', 'A', 'C', 'E', '2'};
inline constexpr uint32_t kVersionV2 = 2;
inline constexpr uint32_t kHeaderBytesV2 = 24;  // magic + version + size + count
// Extensible-header revision carrying a feature-flag word (+ a reserved
// word): only written when at least one flag is set, so flag-free corpora
// stay bitwise identical to the original v2 image.
inline constexpr uint32_t kHeaderBytesV2Ext = kHeaderBytesV2 + 8;
// Record bodies carry a per-cluster link-matrix section (u8 presence byte,
// then 2 * num_nodes^2 doubles) after the hardware-node section.
inline constexpr uint32_t kHeaderFlagLinkMatrix = 1u << 0;
// Record frames are grouped into checksummed, individually compressed
// blocks followed by a trailing block index.
inline constexpr uint32_t kHeaderFlagCompressedBlocks = 1u << 1;
inline constexpr uint32_t kKnownHeaderFlags =
    kHeaderFlagLinkMatrix | kHeaderFlagCompressedBlocks;

// Block-frame flags. Bit 0: payload is codec-compressed (clear = stored
// raw, used when compression would grow the block). Unknown bits fail
// closed.
inline constexpr uint32_t kBlockFlagCodec = 1u << 0;
inline constexpr uint32_t kKnownBlockFlags = kBlockFlagCodec;

inline constexpr size_t kBlockFrameBytes = 4 * 4 + 8;
inline constexpr size_t kIndexEntryBytes = 6 * 8;
inline constexpr size_t kTrailerBytes = 3 * 8 + 8;
inline constexpr char kIndexMagic[8] = {'C', 'S', 'T', 'R', 'I', 'D', 'X', '2'};
// Hard cap on a block's uncompressed payload: rejects absurd allocations
// from corrupted frames before the checksum can even be consulted.
inline constexpr uint64_t kMaxBlockUncompressedBytes = uint64_t{1} << 30;

// --- primitive writers -------------------------------------------------------

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

// --- bounds-checked read cursor ---------------------------------------------

// Every accessor fails (and stays failed) instead of reading past `end`, so
// a lying length prefix or a truncated file degrades into a clean `false`
// from the loader.
struct Cursor {
  const unsigned char* p;
  const unsigned char* end;

  size_t remaining() const { return static_cast<size_t>(end - p); }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    p += n;
    return true;
  }
  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p++;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(p[i]) << (8 * i);
    p += 4;
    *v = r;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(p[i]) << (8 * i);
    p += 8;
    *v = r;
    return true;
  }
  bool GetI32(int32_t* v) {
    uint32_t u = 0;
    if (!GetU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t u = 0;
    if (!GetU64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
  // Validates a section's element count against the bytes that are actually
  // left, so corrupted counts cannot trigger multi-gigabyte reserves.
  bool CountFits(uint32_t count, size_t min_elem_bytes) const {
    return min_elem_bytes == 0 || count <= remaining() / min_elem_bytes;
  }
};

inline bool IsV2Image(const char* data, size_t size) {
  return size >= sizeof(kMagicV2) &&
         std::memcmp(data, kMagicV2, sizeof(kMagicV2)) == 0;
}

// --- parsed header -----------------------------------------------------------

struct HeaderInfo {
  uint32_t header_bytes = 0;
  uint64_t record_count = 0;
  uint32_t flags = 0;

  bool link_matrices() const { return (flags & kHeaderFlagLinkMatrix) != 0; }
  bool compressed() const { return (flags & kHeaderFlagCompressedBlocks) != 0; }
};

// Parses (and consumes) the v2 header including any extension words; fails
// closed on a bad magic/version, a short header, or unknown flag bits.
bool ParseV2Header(Cursor* cur, HeaderInfo* info);

// --- block frames, index, trailer -------------------------------------------

struct BlockFrame {
  uint32_t compressed_bytes = 0;
  uint32_t uncompressed_bytes = 0;
  uint32_t record_count = 0;
  uint32_t flags = 0;
  uint64_t checksum = 0;
};

// Seed folded into the payload checksum so that every other frame field is
// covered by it too.
uint64_t FrameSeed(const BlockFrame& frame);

void PutBlockFrame(std::string* out, const BlockFrame& frame);
bool GetBlockFrame(Cursor* cur, BlockFrame* frame);

struct IndexEntry {
  uint64_t offset = 0;  // file offset of the block frame
  uint64_t compressed_bytes = 0;
  uint64_t uncompressed_bytes = 0;
  uint64_t first_record = 0;
  uint64_t record_count = 0;
  uint64_t checksum = 0;
};

void PutIndexEntry(std::string* out, const IndexEntry& entry);
bool GetIndexEntry(Cursor* cur, IndexEntry* entry);

struct Trailer {
  uint64_t index_offset = 0;
  uint64_t num_blocks = 0;
  uint64_t index_checksum = 0;
};

// Reads the fixed-size trailer from the end of the image.
bool ParseTrailer(const char* data, size_t size, Trailer* trailer);

// --- record bodies -----------------------------------------------------------

// Serializes one record body (without the u32 length prefix). `with_links`
// mirrors the image-level kHeaderFlagLinkMatrix flag.
void AppendRecordBody(const TraceRecord& record, bool with_links,
                      std::string* out);

// Parses one record body; `body` must span exactly the record's payload.
bool ParseRecordBody(Cursor body, bool link_fields, TraceRecord* record);

// Parses `count` length-prefixed record frames from `cur`, appending each
// successfully parsed record to *records; stops (returning false) at the
// first malformed one.
bool ParseRecordFrames(Cursor* cur, uint64_t count, bool link_fields,
                       std::vector<TraceRecord>* records);

// Checks a block frame's flags and size cap, then its checksum against the
// stored payload bytes at `payload`. False on any mismatch, unknown flag
// bit, or size lie; nothing is allocated.
bool VerifyBlockPayload(const unsigned char* payload, const BlockFrame& frame);

// Materializes a verified block's uncompressed payload into *out (raw copy
// or codec decompression according to the frame flags), sized exactly
// `frame.uncompressed_bytes`. False on a malformed codec stream.
bool InflateBlockPayload(const unsigned char* payload, const BlockFrame& frame,
                         std::string* out);

// Writes one v1 text record (the `record` ... `end` stanza). The stream's
// precision must already be 17 for lossless doubles.
void AppendRecordTextV1(std::ostream& os, const TraceRecord& record);

}  // namespace costream::workload::internal

#endif  // COSTREAM_WORKLOAD_TRACE_FORMAT_H_
