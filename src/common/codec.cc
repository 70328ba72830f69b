#include "common/codec.h"

#include <cstring>
#include <vector>

namespace costream::common {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 15;
constexpr size_t kCopyChunk = 16;

// Bytes a chunked copy of `n` bytes touches: n rounded up to whole chunks.
inline size_t ChunkedSpan(size_t n) {
  return (n + kCopyChunk - 1) & ~(kCopyChunk - 1);
}

// Copies n bytes as whole kCopyChunk-byte chunks, so it reads and writes
// ChunkedSpan(n) bytes; the overshoot past dst + n is scratch that later
// output overwrites. No single chunk may overlap: src + kCopyChunk <= dst
// whenever both point into the same buffer.
inline void ChunkedCopy(unsigned char* dst, const unsigned char* src,
                        size_t n) {
  for (size_t k = 0; k < n; k += kCopyChunk) {
    std::memcpy(dst + k, src + k, kCopyChunk);
  }
}

inline uint32_t Load32(const unsigned char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Emits a length nibble's extension bytes (value 15 in the token means
// "continuation bytes follow").
inline void PutExtendedLength(size_t len, std::string* out) {
  while (len >= 255) {
    out->push_back(static_cast<char>(0xff));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

void EmitSequence(const unsigned char* literals, size_t literal_len,
                  size_t offset, size_t match_len, std::string* out) {
  const size_t lit_nibble = literal_len < 15 ? literal_len : 15;
  // match_len == 0 marks the stream-final literals-only sequence.
  const size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  const size_t match_nibble = match_code < 15 ? match_code : 15;
  out->push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutExtendedLength(literal_len - 15, out);
  out->append(reinterpret_cast<const char*>(literals), literal_len);
  if (match_len == 0) return;
  out->push_back(static_cast<char>(offset & 0xff));
  out->push_back(static_cast<char>((offset >> 8) & 0xff));
  if (match_nibble == 15) PutExtendedLength(match_code - 15, out);
}

}  // namespace

size_t MaxCompressedSize(size_t size) {
  return size + size / 255 + 16;
}

void CompressBlock(const char* src_c, size_t size, std::string* out) {
  const unsigned char* src = reinterpret_cast<const unsigned char*>(src_c);
  if (size == 0) return;
  std::vector<int64_t> table(size_t{1} << kHashBits, -1);
  size_t anchor = 0;
  size_t i = 0;
  // Stop probing where a 4-byte load would run past the end.
  const size_t probe_limit = size >= kMinMatch ? size - kMinMatch + 1 : 0;
  while (i < probe_limit) {
    const uint32_t seq = Load32(src + i);
    const uint32_t h = Hash4(seq);
    const int64_t cand = table[h];
    table[h] = static_cast<int64_t>(i);
    if (cand < 0 || i - static_cast<size_t>(cand) > kMaxOffset ||
        Load32(src + cand) != seq) {
      ++i;
      continue;
    }
    size_t match_len = kMinMatch;
    while (i + match_len < size &&
           src[cand + match_len] == src[i + match_len]) {
      ++match_len;
    }
    EmitSequence(src + anchor, i - anchor, i - static_cast<size_t>(cand),
                 match_len, out);
    i += match_len;
    anchor = i;
  }
  EmitSequence(src + anchor, size - anchor, 0, 0, out);
}

bool DecompressBlock(const char* src_c, size_t src_size, char* dst_c,
                     size_t dst_size) {
  const unsigned char* ip = reinterpret_cast<const unsigned char*>(src_c);
  const unsigned char* iend = ip + src_size;
  unsigned char* dst = reinterpret_cast<unsigned char*>(dst_c);
  unsigned char* op = dst;
  unsigned char* oend = dst + dst_size;
  if (src_size == 0) return dst_size == 0;
  for (;;) {
    if (ip >= iend) return false;
    const unsigned char token = *ip++;
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      unsigned char b = 0;
      do {
        if (ip >= iend) return false;
        b = *ip++;
        literal_len += b;
      } while (b == 255);
    }
    const size_t in_room = static_cast<size_t>(iend - ip);
    const size_t out_room = static_cast<size_t>(oend - op);
    if (literal_len > in_room || literal_len > out_room) return false;
    if (ChunkedSpan(literal_len) <= in_room &&
        ChunkedSpan(literal_len) <= out_room) {
      ChunkedCopy(op, ip, literal_len);
    } else {
      std::memcpy(op, ip, literal_len);
    }
    op += literal_len;
    ip += literal_len;
    if (ip == iend) {
      // Final sequence: literals only, and the output must be complete.
      return (token & 0x0f) == 0 && op == oend;
    }
    if (iend - ip < 2) return false;
    const size_t offset =
        static_cast<size_t>(ip[0]) | (static_cast<size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > static_cast<size_t>(op - dst)) return false;
    size_t match_len = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15) {
      unsigned char b = 0;
      do {
        if (ip >= iend) return false;
        b = *ip++;
        match_len += b;
      } while (b == 255);
    }
    const size_t match_room = static_cast<size_t>(oend - op);
    if (match_len > match_room) return false;
    const unsigned char* match = op - offset;
    if (offset >= kCopyChunk && ChunkedSpan(match_len) <= match_room) {
      // Each chunk reads only bytes that are already final (offset >=
      // chunk), so this equals the byte loop even when the match overlaps.
      ChunkedCopy(op, match, match_len);
    } else if (offset >= match_len) {
      std::memcpy(op, match, match_len);
    } else {
      // Byte-by-byte so short-offset overlapping matches replicate runs,
      // exactly as the compressor assumed.
      for (size_t k = 0; k < match_len; ++k) op[k] = match[k];
    }
    op += match_len;
  }
}

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull ^ seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace costream::common
