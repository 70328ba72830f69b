#ifndef COSTREAM_COMMON_CODEC_H_
#define COSTREAM_COMMON_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace costream::common {

// Byte-oriented LZ77 block codec in the LZ4 family, implemented in-repo so
// the trace pipeline carries no external dependency. The format is a
// sequence of tokens:
//
//   token      1 byte: high nibble = literal length, low nibble = match
//              length - 4. A nibble of 15 is extended by continuation bytes
//              (each adds its value; a byte < 255 terminates).
//   literals   `literal length` raw bytes.
//   offset     u16 little-endian backward distance (1..65535). Absent in
//              the final sequence, which is literals-only (match nibble 0).
//   match      `match length` bytes copied from `offset` bytes back in the
//              output (byte-by-byte, so overlapping matches encode runs).
//
// Compression is greedy over a 2^15-entry hash table of 4-byte prefixes
// with a 64 KiB window. Decompression is fully bounds-checked: any
// malformed input (offset of 0 or beyond the produced output, lengths past
// either buffer, a stream that does not produce exactly `dst_size` bytes)
// returns false without reading or writing out of bounds.
//
// Copy rule. After those checks pass, the decompressor copies a literal run
// or a match of n bytes in whole 16-byte chunks (16 * ceil(n / 16) bytes)
// whenever that rounded span still fits in the room left in the output and,
// for literals, in the input; the overshoot past n lands in output that the
// following sequences overwrite, so the result is exact. Matches take the
// chunked path only when offset >= 16: every chunk then reads bytes that
// are already final, which equals the byte-at-a-time semantics above even
// when the match overlaps its own output. Otherwise a match with offset >=
// length is one memcpy, and only a short-offset overlapping match (offset
// < 16 and offset < length) is copied byte by byte.

// Appends the compressed image of src[0..size) to *out. Never fails;
// incompressible input degrades to literal runs (worst case ~size/255 + 16
// bytes of framing overhead).
void CompressBlock(const char* src, size_t size, std::string* out);

// Upper bound on the compressed size of `size` input bytes.
size_t MaxCompressedSize(size_t size);

// Decompresses src[0..src_size) into exactly dst[0..dst_size). Returns
// false on malformed input; dst contents are unspecified on failure.
bool DecompressBlock(const char* src, size_t src_size, char* dst,
                     size_t dst_size);

// FNV-1a 64-bit hash, the checksum used for compressed trace blocks and
// their index (and by the bench gates for bitwise-equality checks).
uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed = 0);

}  // namespace costream::common

#endif  // COSTREAM_COMMON_CODEC_H_
