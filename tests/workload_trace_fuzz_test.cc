// Randomized robustness sweep for the trace loaders: byte flips, truncations
// and splices over valid v1/v2 images must never crash, read out of bounds
// (CI runs this under AddressSanitizer) or allocate absurdly — every outcome
// is either a clean `false` or a successfully validated corpus. The mmap
// TraceReader gets the same sweep over compressed images, record by record.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/random.h"
#include "sim/geo.h"
#include "sim/hardware.h"
#include "workload/streaming.h"
#include "workload/trace_format.h"
#include "workload/trace_io.h"
#include "workload/trace_reader.h"

namespace costream::workload {
namespace {

std::vector<TraceRecord> FuzzCorpus() {
  CorpusConfig config;
  config.num_queries = 6;
  config.seed = 31337;
  config.duration_s = 20.0;
  return BuildCorpus(config);
}

// Same corpus with a two-region WAN link matrix stamped onto every cluster,
// exercising the flagged v2 extended header and the per-record link section.
std::vector<TraceRecord> GeoCorpus() {
  std::vector<TraceRecord> records = FuzzCorpus();
  const sim::GeoWanProfile wan;
  for (TraceRecord& record : records) {
    std::vector<int> region(record.cluster.nodes.size());
    for (size_t n = 0; n < region.size(); ++n) {
      region[n] = static_cast<int>(n % 2);
    }
    sim::ApplyGeoRegions(region, wan, &record.cluster);
  }
  return records;
}

std::string V2Image(const std::vector<TraceRecord>& records) {
  std::ostringstream os;
  SaveTracesV2(os, records);
  return std::move(os).str();
}

std::string V1Image(const std::vector<TraceRecord>& records) {
  std::ostringstream os;
  SaveTraces(os, records);
  return std::move(os).str();
}

// Every record a loader hands back must be structurally sound — the parsers
// promise validated queries and placements even for records recovered from
// a corrupt file.
void ExpectLoadedRecordsValid(const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    EXPECT_EQ(r.query.Validate(), "");
    EXPECT_EQ(sim::ValidatePlacement(r.query, r.cluster, r.placement), "");
  }
}

void RunV2(const std::string& image) {
  std::vector<TraceRecord> loaded;
  if (LoadTracesV2(image.data(), image.size(), &loaded)) {
    ExpectLoadedRecordsValid(loaded);
  }
  // The auto-detecting stream path must agree on whether the image is sane.
  std::istringstream is(image);
  std::vector<TraceRecord> stream_loaded;
  if (LoadTraces(is, &stream_loaded)) {
    ExpectLoadedRecordsValid(stream_loaded);
  }
}

TEST(TraceFuzzTest, TruncatedV2ImagesNeverCrash) {
  const std::string image = V2Image(FuzzCorpus());
  nn::Rng rng(1);
  // Every header boundary plus a random sample of interior cuts.
  for (size_t cut = 0; cut <= 64 && cut < image.size(); ++cut) {
    RunV2(image.substr(0, cut));
  }
  for (int trial = 0; trial < 200; ++trial) {
    RunV2(image.substr(
        0, static_cast<size_t>(
               rng.Int(0, static_cast<int>(image.size()) - 1))));
  }
}

TEST(TraceFuzzTest, ByteFlippedV2ImagesNeverCrash) {
  const std::string image = V2Image(FuzzCorpus());
  nn::Rng rng(2);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = image;
    const int flips = rng.Int(1, 4);
    for (int f = 0; f < flips; ++f) {
      const int pos = rng.Int(0, static_cast<int>(mutated.size()) - 1);
      mutated[pos] = static_cast<char>(rng.Int(0, 255));
    }
    RunV2(mutated);
  }
}

TEST(TraceFuzzTest, SplicedV2ImagesNeverCrash) {
  const std::string image = V2Image(FuzzCorpus());
  nn::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = image;
    const int pos = rng.Int(0, static_cast<int>(mutated.size()));
    std::string garbage(static_cast<size_t>(rng.Int(1, 32)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Int(0, 255));
    mutated.insert(static_cast<size_t>(pos), garbage);
    RunV2(mutated);
  }
}

TEST(TraceFuzzTest, MutatedV1TextNeverCrashes) {
  const std::string image = V1Image(FuzzCorpus());
  nn::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = image;
    switch (rng.Int(0, 2)) {
      case 0:
        mutated = mutated.substr(
            0, static_cast<size_t>(
                   rng.Int(0, static_cast<int>(mutated.size()) - 1)));
        break;
      case 1: {
        const int pos = rng.Int(0, static_cast<int>(mutated.size()) - 1);
        mutated[pos] = static_cast<char>(rng.Int(32, 126));
        break;
      }
      default: {
        const int pos = rng.Int(0, static_cast<int>(mutated.size()));
        mutated.insert(static_cast<size_t>(pos), "garbage\n");
        break;
      }
    }
    std::istringstream is(mutated);
    std::vector<TraceRecord> loaded;
    if (LoadTraces(is, &loaded)) {
      ExpectLoadedRecordsValid(loaded);
    }
  }
}

// Link matrices survive both serialization formats bitwise (v1 prints with
// precision 17, which is lossless for IEEE doubles).
TEST(TraceFuzzTest, LinkMatricesRoundTripBitwise) {
  const std::vector<TraceRecord> records = GeoCorpus();
  const std::string v2 = V2Image(records);
  std::vector<TraceRecord> loaded;
  ASSERT_TRUE(LoadTracesV2(v2.data(), v2.size(), &loaded));
  ASSERT_EQ(loaded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(loaded[i].cluster.has_link_matrix());
    EXPECT_EQ(loaded[i].cluster.link_bandwidth_mbits,
              records[i].cluster.link_bandwidth_mbits);
    EXPECT_EQ(loaded[i].cluster.link_latency_ms,
              records[i].cluster.link_latency_ms);
  }
  std::istringstream v1(V1Image(records));
  std::vector<TraceRecord> v1_loaded;
  ASSERT_TRUE(LoadTraces(v1, &v1_loaded));
  ASSERT_EQ(v1_loaded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(v1_loaded[i].cluster.link_bandwidth_mbits,
              records[i].cluster.link_bandwidth_mbits);
    EXPECT_EQ(v1_loaded[i].cluster.link_latency_ms,
              records[i].cluster.link_latency_ms);
  }
}

// Corpora without link matrices must keep emitting the pre-extension 24-byte
// header so older readers load them unchanged; geo corpora advertise the
// link section via the flags word of the 32-byte extended header.
TEST(TraceFuzzTest, LinkFreeImagesKeepLegacyHeader) {
  const std::string plain = V2Image(FuzzCorpus());
  const std::string geo = V2Image(GeoCorpus());
  const auto header_bytes = [](const std::string& image) {
    uint32_t v = 0;
    std::memcpy(&v, image.data() + 12, sizeof(v));
    return v;
  };
  EXPECT_EQ(header_bytes(plain), 24u);
  EXPECT_EQ(header_bytes(geo), 32u);
  uint32_t flags = 0;
  std::memcpy(&flags, geo.data() + 24, sizeof(flags));
  EXPECT_EQ(flags, 1u);
}

// The flags word is load-bearing: clearing it leaves unparsed link bytes in
// every record body, and any unknown bit must fail closed — both reject.
TEST(TraceFuzzTest, TamperedHeaderFlagsFailClosed) {
  const std::string geo = V2Image(GeoCorpus());
  std::string cleared = geo;
  cleared[24] = '\0';
  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(LoadTracesV2(cleared.data(), cleared.size(), &loaded));
  std::string unknown_bit = geo;
  unknown_bit[24] = static_cast<char>(unknown_bit[24] | 0x02);
  loaded.clear();
  EXPECT_FALSE(LoadTracesV2(unknown_bit.data(), unknown_bit.size(), &loaded));
}

// Truncating inside a later record's body (which ends with the link matrix)
// fails the load but keeps every record parsed before the damage.
TEST(TraceFuzzTest, TruncatedLinkMatrixKeepsEarlierRecords) {
  const std::string geo = V2Image(GeoCorpus());
  // Walk the record framing: [u32 body_size][body] repeated after the header.
  uint32_t header_bytes = 0;
  std::memcpy(&header_bytes, geo.data() + 12, sizeof(header_bytes));
  size_t offset = header_bytes;
  uint32_t first_body = 0;
  std::memcpy(&first_body, geo.data() + offset, sizeof(first_body));
  const size_t record2 = offset + sizeof(uint32_t) + first_body;
  uint32_t second_body = 0;
  std::memcpy(&second_body, geo.data() + record2, sizeof(second_body));
  // Cut a handful of points across record 2's body, including its final
  // bytes (the link latency matrix).
  for (uint32_t keep :
       {second_body / 4, second_body / 2, second_body - 9, second_body - 1}) {
    // Plain truncation: the frame check sees fewer bytes than advertised.
    const std::string cut = geo.substr(0, record2 + sizeof(uint32_t) + keep);
    std::vector<TraceRecord> loaded;
    EXPECT_FALSE(LoadTracesV2(cut.data(), cut.size(), &loaded));
    ASSERT_EQ(loaded.size(), 1u) << "keep " << keep;
    EXPECT_TRUE(loaded[0].cluster.has_link_matrix());
    ExpectLoadedRecordsValid(loaded);
    // Shrink the declared body size to match the cut so the body parser
    // itself runs and hits a bounds check mid-record (for the larger keeps,
    // inside the link matrix at the body's tail).
    std::string shrunk = cut;
    std::memcpy(shrunk.data() + record2, &keep, sizeof(keep));
    loaded.clear();
    EXPECT_FALSE(LoadTracesV2(shrunk.data(), shrunk.size(), &loaded));
    ASSERT_EQ(loaded.size(), 1u) << "shrunk keep " << keep;
    ExpectLoadedRecordsValid(loaded);
  }
}

// One random mutation of a binary image: a truncation, 1-4 byte flips, or
// a splice of 1-32 random bytes.
std::string MutateImage(nn::Rng& rng, std::string mutated) {
  switch (rng.Int(0, 2)) {
    case 0:
      mutated = mutated.substr(
          0, static_cast<size_t>(
                 rng.Int(0, static_cast<int>(mutated.size()) - 1)));
      break;
    case 1: {
      const int flips = rng.Int(1, 4);
      for (int f = 0; f < flips; ++f) {
        const int pos = rng.Int(0, static_cast<int>(mutated.size()) - 1);
        mutated[pos] = static_cast<char>(rng.Int(0, 255));
      }
      break;
    }
    default: {
      const int pos = rng.Int(0, static_cast<int>(mutated.size()));
      std::string garbage(static_cast<size_t>(rng.Int(1, 32)), '\0');
      for (char& c : garbage) c = static_cast<char>(rng.Int(0, 255));
      mutated.insert(static_cast<size_t>(pos), garbage);
      break;
    }
  }
  return mutated;
}

// The generic mutation sweeps must hold over flagged geo images too.
TEST(TraceFuzzTest, MutatedGeoImagesNeverCrash) {
  const std::string image = V2Image(GeoCorpus());
  nn::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    RunV2(MutateImage(rng, image));
  }
  const std::string text = V1Image(GeoCorpus());
  nn::Rng text_rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = text;
    const int pos = rng.Int(0, static_cast<int>(mutated.size()) - 1);
    mutated[pos] = static_cast<char>(text_rng.Int(32, 126));
    std::istringstream is(mutated);
    std::vector<TraceRecord> loaded;
    if (LoadTraces(is, &loaded)) {
      ExpectLoadedRecordsValid(loaded);
    }
  }
}

// ---- Block-compressed v2 images ----

std::string V2CImage(const std::vector<TraceRecord>& records,
                     size_t block_bytes = 2048) {
  std::ostringstream os;
  SaveTracesV2Compressed(os, records, block_bytes);
  return std::move(os).str();
}

uint32_t ReadU32At(const std::string& image, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, image.data() + offset, sizeof(v));
  return v;
}

uint64_t ReadU64At(const std::string& image, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, image.data() + offset, sizeof(v));
  return v;
}

// Walks the block frames ([u32 csize][u32 usize][u32 count][u32 flags]
// [u64 checksum][payload]) and returns each frame's start offset.
std::vector<size_t> BlockOffsets(const std::string& image) {
  const uint32_t header_bytes = ReadU32At(image, 12);
  const uint64_t index_offset = ReadU64At(image, image.size() - 32);
  std::vector<size_t> offsets;
  size_t at = header_bytes;
  while (at < index_offset) {
    offsets.push_back(at);
    at += 24 + ReadU32At(image, at);
  }
  return offsets;
}

TEST(TraceFuzzTest, CompressedImagesSurviveGenericMutations) {
  const std::string image = V2CImage(FuzzCorpus());
  nn::Rng rng(7);
  for (size_t cut = 0; cut <= 64 && cut < image.size(); ++cut) {
    RunV2(image.substr(0, cut));
  }
  for (int trial = 0; trial < 300; ++trial) {
    RunV2(MutateImage(rng, image));
  }
}

// Cutting the file inside the trailing block index leaves every block frame
// intact: the loader decodes all records, then fails the load because the
// index cannot be validated — fail closed, nothing lost.
TEST(TraceFuzzTest, TruncatedBlockIndexFailsClosedKeepingAllRecords) {
  const std::vector<TraceRecord> records = FuzzCorpus();
  const std::string image = V2CImage(records);
  const uint64_t index_offset = ReadU64At(image, image.size() - 32);
  ASSERT_GT(image.size(), index_offset);
  for (const size_t keep : {size_t{0}, size_t{8}, size_t{47}}) {
    const std::string cut = image.substr(0, index_offset + keep);
    std::vector<TraceRecord> loaded;
    EXPECT_FALSE(LoadTracesV2(cut.data(), cut.size(), &loaded));
    ASSERT_EQ(loaded.size(), records.size()) << "keep " << keep;
    ExpectLoadedRecordsValid(loaded);
  }
}

// A tampered per-block checksum kills that block and everything after it,
// but the blocks decoded before the damage survive.
TEST(TraceFuzzTest, TamperedBlockChecksumFailsClosedKeepingEarlierRecords) {
  const std::vector<TraceRecord> records = FuzzCorpus();
  const std::string image = V2CImage(records);
  const std::vector<size_t> blocks = BlockOffsets(image);
  ASSERT_GE(blocks.size(), 2u) << "corpus too small for a multi-block image";
  // Flip one checksum byte of the second block (checksum lives at frame+16).
  std::string mutated = image;
  mutated[blocks[1] + 16] = static_cast<char>(mutated[blocks[1] + 16] ^ 0xff);
  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(LoadTracesV2(mutated.data(), mutated.size(), &loaded));
  const uint32_t first_block_records = ReadU32At(image, blocks[0] + 8);
  ASSERT_EQ(loaded.size(), first_block_records);
  ExpectLoadedRecordsValid(loaded);
}

// The frame's sizes and count are hashed into the checksum seed, so lying
// about them is caught before any decode buffer is sized from them.
TEST(TraceFuzzTest, LyingBlockSizesFailClosed) {
  const std::vector<TraceRecord> records = FuzzCorpus();
  const std::string image = V2CImage(records);
  const std::vector<size_t> blocks = BlockOffsets(image);
  ASSERT_GE(blocks.size(), 2u);
  const struct {
    size_t field_offset;  // within the frame
    uint32_t value;
  } lies[] = {
      {0, ReadU32At(image, blocks[0]) - 1},     // compressed_bytes shrunk
      {4, 1u << 29},                            // uncompressed_bytes inflated
      {4, ReadU32At(image, blocks[0] + 4) / 2}, // uncompressed_bytes shrunk
      {8, ReadU32At(image, blocks[0] + 8) + 7}, // record_count inflated
  };
  for (const auto& lie : lies) {
    std::string mutated = image;
    std::memcpy(mutated.data() + blocks[0] + lie.field_offset, &lie.value,
                sizeof(lie.value));
    std::vector<TraceRecord> loaded;
    EXPECT_FALSE(LoadTracesV2(mutated.data(), mutated.size(), &loaded));
    EXPECT_TRUE(loaded.empty()) << "field +" << lie.field_offset;
  }
}

// Unknown flag bits — a per-block codec bit or a header compression bit from
// some future writer — must fail closed rather than misparse.
TEST(TraceFuzzTest, UnknownCompressionFlagBitsFailClosed) {
  const std::vector<TraceRecord> records = FuzzCorpus();
  const std::string image = V2CImage(records);
  const std::vector<size_t> blocks = BlockOffsets(image);
  ASSERT_FALSE(blocks.empty());
  // Block flags word is at frame+12; set an undefined bit.
  std::string bad_block = image;
  bad_block[blocks[0] + 12] =
      static_cast<char>(bad_block[blocks[0] + 12] | 0x04);
  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(LoadTracesV2(bad_block.data(), bad_block.size(), &loaded));
  EXPECT_TRUE(loaded.empty());
  // Header flags word is at offset 24 of the extended header.
  std::string bad_header = image;
  bad_header[24] = static_cast<char>(bad_header[24] | 0x04);
  loaded.clear();
  EXPECT_FALSE(LoadTracesV2(bad_header.data(), bad_header.size(), &loaded));
  EXPECT_TRUE(loaded.empty());
}

// ---- Random-access TraceReader over compressed images ----

std::string RecordBytes(const TraceRecord& record) {
  std::string bytes;
  internal::AppendRecordBody(record, /*with_links=*/true, &bytes);
  return bytes;
}

void WriteImage(const std::string& path, const std::string& image) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  ASSERT_TRUE(os.good());
}

// Opens `image` through the reader and reads every record twice, once via
// Get and once via the handles Prefetch pins. Every outcome must be a null
// reader, a false Get, or exactly the pristine record.
void RunReader(const std::string& image,
               const std::vector<TraceRecord>& pristine,
               const std::string& path) {
  WriteImage(path, image);
  TraceReaderOptions options;
  options.max_cached_blocks = 2;
  const auto reader = TraceReader::Open(path, options);
  if (reader == nullptr) return;
  ASSERT_EQ(reader->num_records(), static_cast<int64_t>(pristine.size()));
  std::vector<int64_t> ids(pristine.size());
  std::iota(ids.begin(), ids.end(), int64_t{0});
  const std::vector<TraceReader::BlockRef> blocks =
      reader->Prefetch(ids.data(), ids.size());
  for (int64_t i = 0; i < reader->num_records(); ++i) {
    const std::string want = RecordBytes(pristine[static_cast<size_t>(i)]);
    TraceRecord got;
    const bool ok = reader->Get(i, &got);
    TraceRecord pinned;
    EXPECT_EQ(reader->Get(i, blocks[static_cast<size_t>(i)], &pinned), ok)
        << "record " << i;
    if (ok) {
      EXPECT_EQ(RecordBytes(got), want) << "record " << i;
      EXPECT_EQ(RecordBytes(pinned), want) << "record " << i;
    }
  }
}

TEST(TraceFuzzTest, TraceReaderSurvivesCompressedImageMutations) {
  const std::string path = ::testing::TempDir() + "/fuzz_reader.bin";
  for (const bool geo : {false, true}) {
    SCOPED_TRACE(geo ? "geo" : "plain");
    const std::vector<TraceRecord> records = geo ? GeoCorpus() : FuzzCorpus();
    const std::string image = V2CImage(records);
    RunReader(image, records, path);
    nn::Rng rng(geo ? 9 : 8);
    for (size_t cut = 0; cut <= 64 && cut < image.size(); ++cut) {
      RunReader(image.substr(0, cut), records, path);
    }
    for (int trial = 0; trial < 200; ++trial) {
      RunReader(MutateImage(rng, image), records, path);
    }
  }
  std::remove(path.c_str());
}

// A flipped payload byte passes Open (which checks the index, not block
// payloads) and then fails every Get in that block's checksum — and only
// in that block.
TEST(TraceFuzzTest, TraceReaderFailsOnlyTheTamperedBlock) {
  const std::vector<TraceRecord> records = FuzzCorpus();
  const std::string image = V2CImage(records);
  const std::vector<size_t> blocks = BlockOffsets(image);
  ASSERT_GE(blocks.size(), 2u);
  std::string mutated = image;
  const size_t payload_byte = blocks[1] + internal::kBlockFrameBytes + 3;
  mutated[payload_byte] = static_cast<char>(mutated[payload_byte] ^ 0x41);
  const std::string path = ::testing::TempDir() + "/fuzz_reader_block.bin";
  WriteImage(path, mutated);
  const auto reader = TraceReader::Open(path);
  ASSERT_NE(reader, nullptr);
  const TraceBlockInfo& bad = reader->info().blocks[1];
  for (int64_t i = 0; i < reader->num_records(); ++i) {
    const bool in_bad = static_cast<uint64_t>(i) >= bad.first_record &&
                        static_cast<uint64_t>(i) <
                            bad.first_record + bad.record_count;
    TraceRecord got;
    EXPECT_EQ(reader->Get(i, &got), !in_bad) << "record " << i;
  }
  std::remove(path.c_str());
}

// The writer frames and checksums a record faithfully even when its
// placement names a node the cluster lacks, so the block verifies and its
// frame table tiles. Only that record's own parse fails: its neighbours in
// the same block still read, the sequential loader stops at it, and
// streaming training over it dies instead of silently dropping a sample.
TEST(TraceFuzzTest, MalformedRecordFailsAloneInTraceReader) {
  std::vector<TraceRecord> records = FuzzCorpus();
  const size_t bad = 2;
  records[bad].placement[0] = records[bad].cluster.num_nodes() + 3;
  const std::string image = V2CImage(records, size_t{1} << 16);
  const std::string path = ::testing::TempDir() + "/fuzz_reader_record.bin";
  WriteImage(path, image);
  const auto reader = TraceReader::Open(path);
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->info().blocks.size(), 1u);
  for (int64_t i = 0; i < reader->num_records(); ++i) {
    TraceRecord got;
    const bool ok = reader->Get(i, &got);
    EXPECT_EQ(ok, static_cast<size_t>(i) != bad) << "record " << i;
    if (ok) {
      EXPECT_EQ(RecordBytes(got), RecordBytes(records[static_cast<size_t>(i)]));
    }
  }

  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(LoadTracesV2(image.data(), image.size(), &loaded));
  EXPECT_EQ(loaded.size(), bad);

  std::vector<int64_t> all(records.size());
  std::iota(all.begin(), all.end(), int64_t{0});
  EXPECT_DEATH(StreamingCorpus(reader.get(), all, sim::Metric::kThroughput),
               "COSTREAM_CHECK");
  std::remove(path.c_str());
}

// A v1 file whose first bytes happen to be shorter than the v2 magic still
// takes the text path cleanly.
TEST(TraceFuzzTest, TinyInputsNeverCrash) {
  for (const std::string& input :
       {std::string(""), std::string("C"), std::string("CSTRACE"),
        std::string("CSTRACE2"), std::string("CSTRACE2\x02"),
        std::string("#costream"), std::string("\n\n\n")}) {
    std::istringstream is(input);
    std::vector<TraceRecord> loaded;
    EXPECT_FALSE(LoadTraces(is, &loaded));
  }
}

}  // namespace
}  // namespace costream::workload
