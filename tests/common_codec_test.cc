// Direct coverage of the block codec under the trace format: round trips
// over random, run-heavy and trace-shaped inputs (including every output
// size around the decompressor's 16-byte copy chunks), hand-built malformed
// streams that must be rejected, every truncation of a real compressed
// block, and a differential check of the decompressor against a
// byte-at-a-time reference on mutated streams. CI runs it under ASan, where
// a chunked copy that strays past either buffer aborts the test.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "nn/random.h"
#include "workload/corpus.h"
#include "workload/trace_io.h"

namespace costream::common {
namespace {

std::string Compress(const std::string& input) {
  std::string out;
  CompressBlock(input.data(), input.size(), &out);
  return out;
}

// Decompresses into a buffer of exactly `dst_size` bytes, so ASan sees any
// write or read past it.
bool Decompress(const std::string& compressed, size_t dst_size,
                std::string* out) {
  std::vector<char> src(compressed.begin(), compressed.end());
  std::vector<char> dst(dst_size);
  const bool ok =
      DecompressBlock(src.data(), src.size(), dst.data(), dst.size());
  out->assign(dst.begin(), dst.end());
  return ok;
}

void ExpectRoundTrip(const std::string& input) {
  const std::string compressed = Compress(input);
  EXPECT_LE(compressed.size(), MaxCompressedSize(input.size()));
  std::string output;
  ASSERT_TRUE(Decompress(compressed, input.size(), &output))
      << "size " << input.size();
  EXPECT_EQ(output, input) << "size " << input.size();
}

std::string RandomBytes(nn::Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.Int(0, 255));
  return s;
}

// Runs of short periods (1..`max_period`) separated by random literals:
// every period below 16 forces an overlapping short-offset match.
std::string RunHeavy(nn::Rng& rng, size_t n, int max_period) {
  std::string s;
  while (s.size() < n) {
    const std::string unit =
        RandomBytes(rng, static_cast<size_t>(rng.Int(1, max_period)));
    const int repeats = rng.Int(1, 40);
    for (int r = 0; r < repeats; ++r) s += unit;
    s += RandomBytes(rng, static_cast<size_t>(rng.Int(0, 20)));
  }
  s.resize(n);
  return s;
}

std::string TraceShapedBytes() {
  workload::CorpusConfig config;
  config.num_queries = 8;
  config.seed = 2024;
  config.duration_s = 20.0;
  std::ostringstream os;
  workload::SaveTracesV2(os, workload::BuildCorpus(config));
  return std::move(os).str();
}

// Reference decompressor with the format's plain semantics: the same
// bounds checks, then every literal and match copied one byte at a time.
bool ReferenceDecompress(const std::string& src, size_t dst_size,
                         std::string* out) {
  out->assign(dst_size, '\0');
  size_t ip = 0;
  size_t op = 0;
  if (src.empty()) return dst_size == 0;
  for (;;) {
    if (ip >= src.size()) return false;
    const unsigned char token = static_cast<unsigned char>(src[ip++]);
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      unsigned char b = 0;
      do {
        if (ip >= src.size()) return false;
        b = static_cast<unsigned char>(src[ip++]);
        literal_len += b;
      } while (b == 255);
    }
    if (literal_len > src.size() - ip || literal_len > dst_size - op) {
      return false;
    }
    for (size_t k = 0; k < literal_len; ++k) (*out)[op + k] = src[ip + k];
    op += literal_len;
    ip += literal_len;
    if (ip == src.size()) return (token & 0x0f) == 0 && op == dst_size;
    if (src.size() - ip < 2) return false;
    const size_t offset = static_cast<unsigned char>(src[ip]) |
                          (static_cast<size_t>(
                               static_cast<unsigned char>(src[ip + 1]))
                           << 8);
    ip += 2;
    if (offset == 0 || offset > op) return false;
    size_t match_len = (token & 0x0f) + 4;
    if ((token & 0x0f) == 15) {
      unsigned char b = 0;
      do {
        if (ip >= src.size()) return false;
        b = static_cast<unsigned char>(src[ip++]);
        match_len += b;
      } while (b == 255);
    }
    if (match_len > dst_size - op) return false;
    for (size_t k = 0; k < match_len; ++k) {
      (*out)[op + k] = (*out)[op - offset + k];
    }
    op += match_len;
  }
}

TEST(CodecTest, RandomInputsRoundTripAtEverySmallSize) {
  nn::Rng rng(1);
  for (size_t n = 0; n <= 64; ++n) ExpectRoundTrip(RandomBytes(rng, n));
}

TEST(CodecTest, RoundTripsAroundEveryChunkBoundary) {
  nn::Rng rng(2);
  for (size_t boundary = 16; boundary <= 2048; boundary += 16) {
    for (const size_t n : {boundary - 1, boundary, boundary + 1}) {
      ExpectRoundTrip(RandomBytes(rng, n));
      ExpectRoundTrip(RunHeavy(rng, n, 24));
      ExpectRoundTrip(std::string(n, static_cast<char>(n & 0xff)));
    }
  }
}

TEST(CodecTest, OverlappingMatchesAtEveryShortOffsetRoundTrip) {
  nn::Rng rng(3);
  for (int period = 1; period <= 15; ++period) {
    // A period-p input of n > 2p bytes compresses into one literal run of p
    // bytes and one match at offset p whose n - p bytes overlap its own
    // output.
    const std::string unit = RandomBytes(rng, static_cast<size_t>(period));
    for (const size_t n : {size_t{33}, size_t{47}, size_t{300}}) {
      std::string input;
      while (input.size() < n) input += unit;
      input.resize(n);
      SCOPED_TRACE(testing::Message() << "period " << period << " size " << n);
      ExpectRoundTrip(input);
      const std::string compressed = Compress(input);
      // Token, the literal-length extension byte when the nibble saturates
      // at 15, the p literals, then the u16 offset.
      const size_t offset_at =
          1 + (period == 15 ? 1 : 0) + static_cast<size_t>(period);
      ASSERT_GT(compressed.size(), offset_at + 1);
      EXPECT_EQ(static_cast<unsigned char>(compressed[0]) >> 4, period);
      EXPECT_EQ(compressed[offset_at], period);
      EXPECT_EQ(compressed[offset_at + 1], 0);
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    ExpectRoundTrip(RunHeavy(rng, static_cast<size_t>(rng.Int(1, 5000)), 15));
  }
}

TEST(CodecTest, LargeAndTraceShapedInputsRoundTrip) {
  nn::Rng rng(4);
  ExpectRoundTrip(RandomBytes(rng, size_t{1} << 16));
  ExpectRoundTrip(RunHeavy(rng, size_t{1} << 17, 64));
  const std::string trace = TraceShapedBytes();
  ASSERT_GT(trace.size(), 1000u);
  ExpectRoundTrip(trace);
  EXPECT_LT(Compress(trace).size(), trace.size());
}

TEST(CodecTest, EmptyStreams) {
  std::string out;
  EXPECT_TRUE(Decompress("", 0, &out));
  EXPECT_FALSE(Decompress("", 1, &out));
  EXPECT_EQ(Compress(""), "");
}

// Hand-built streams: token, literals, u16 offset, then the final
// literals-only token.
TEST(CodecTest, MalformedStreamsFail) {
  std::string out;
  // Valid: literal "a", match offset 1 length 4 -> "aaaaa".
  const std::string run("\x10" "a" "\x01\x00" "\x00", 5);
  ASSERT_TRUE(Decompress(run, 5, &out));
  EXPECT_EQ(out, "aaaaa");

  // Offset 0.
  EXPECT_FALSE(Decompress(std::string("\x10" "a" "\x00\x00" "\x00", 5), 5,
                          &out));
  // Offset past the produced output (2 > 1 byte so far).
  EXPECT_FALSE(Decompress(std::string("\x10" "a" "\x02\x00" "\x00", 5), 5,
                          &out));
  // Literal run longer than the input holds.
  EXPECT_FALSE(Decompress(std::string("\x50" "abcd", 5), 5, &out));
  // Literal run longer than the output.
  EXPECT_FALSE(Decompress(std::string("\x40" "abcd", 5), 3, &out));
  // Match running past the output.
  EXPECT_FALSE(Decompress(run, 4, &out));
  // Extended match length running past the output.
  EXPECT_FALSE(Decompress(std::string("\x1f" "a" "\x01\x00" "\x10" "\x00", 6),
                          20, &out));
  // dst_size larger than what the stream produces.
  EXPECT_FALSE(Decompress(run, 6, &out));
  // Final sequence with a match nibble.
  EXPECT_FALSE(Decompress(std::string("\x41" "abcd", 5), 4, &out));
  // Literal length continuation byte missing.
  EXPECT_FALSE(Decompress(std::string("\xf0", 1), 15, &out));
  // Offset cut short.
  EXPECT_FALSE(Decompress(std::string("\x10" "a" "\x01", 3), 5, &out));
}

TEST(CodecTest, EveryTruncationOfARealBlockFails) {
  const std::string trace = TraceShapedBytes().substr(0, 4096);
  const std::string compressed = Compress(trace);
  std::string out;
  ASSERT_TRUE(Decompress(compressed, trace.size(), &out));
  for (size_t cut = 0; cut < compressed.size(); ++cut) {
    EXPECT_FALSE(Decompress(compressed.substr(0, cut), trace.size(), &out))
        << "cut " << cut;
  }
}

// Mutated streams must get the same verdict, and on success the same
// bytes, from the chunked decompressor as from the byte-at-a-time one.
TEST(CodecTest, MatchesByteLoopReferenceOnMutatedStreams) {
  nn::Rng rng(5);
  const std::vector<std::string> inputs = {
      TraceShapedBytes().substr(0, 3000), RunHeavy(rng, 3000, 15),
      RunHeavy(rng, 777, 40)};
  int accepted = 0;
  for (const std::string& input : inputs) {
    const std::string compressed = Compress(input);
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutated = compressed;
      const int flips = rng.Int(1, 3);
      for (int f = 0; f < flips; ++f) {
        const int pos = rng.Int(0, static_cast<int>(mutated.size()) - 1);
        mutated[static_cast<size_t>(pos)] = static_cast<char>(rng.Int(0, 255));
      }
      // One trial in four also lies about the output size.
      const size_t dst_size =
          input.size() +
          (rng.Int(0, 3) == 0 ? static_cast<size_t>(rng.Int(0, 40)) : 0);
      std::string want;
      std::string got;
      const bool want_ok = ReferenceDecompress(mutated, dst_size, &want);
      ASSERT_EQ(Decompress(mutated, dst_size, &got), want_ok)
          << "trial " << trial;
      if (want_ok) {
        EXPECT_EQ(got, want);
        ++accepted;
      }
    }
  }
  // Flips inside literal bytes keep the stream valid, so both paths must
  // have agreed on some successful decodes too.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace costream::common
