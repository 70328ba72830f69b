// Out-of-core corpus pipeline: block-compressed v2 images round-trip
// exactly, the streaming TraceWriter emits byte-identical files to the bulk
// savers, the mmap TraceReader serves random access from a bounded block
// cache, and streaming training through StreamingCorpus produces
// bitwise-identical weights to the in-memory path at any thread count and
// block size.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "workload/corpus.h"
#include "workload/streaming.h"
#include "workload/trace_io.h"
#include "workload/trace_reader.h"

namespace costream::workload {
namespace {

std::vector<TraceRecord> SmallCorpus(int n = 24, uint64_t seed = 11) {
  CorpusConfig config;
  config.num_queries = n;
  config.seed = seed;
  config.duration_s = 30.0;
  return BuildCorpus(config);
}

void ExpectRecordsBitwiseEqual(const TraceRecord& a, const TraceRecord& b) {
  EXPECT_EQ(a.template_kind, b.template_kind);
  EXPECT_EQ(a.num_filters, b.num_filters);
  ASSERT_EQ(a.query.num_operators(), b.query.num_operators());
  for (int i = 0; i < a.query.num_operators(); ++i) {
    EXPECT_EQ(a.query.op(i).type, b.query.op(i).type);
    EXPECT_EQ(a.query.op(i).input_event_rate, b.query.op(i).input_event_rate);
    EXPECT_EQ(a.query.op(i).selectivity, b.query.op(i).selectivity);
    EXPECT_EQ(a.query.op(i).parallelism, b.query.op(i).parallelism);
  }
  EXPECT_EQ(a.query.edges(), b.query.edges());
  ASSERT_EQ(a.cluster.num_nodes(), b.cluster.num_nodes());
  for (int i = 0; i < a.cluster.num_nodes(); ++i) {
    EXPECT_EQ(a.cluster.nodes[i].cpu_pct, b.cluster.nodes[i].cpu_pct);
    EXPECT_EQ(a.cluster.nodes[i].ram_mb, b.cluster.nodes[i].ram_mb);
  }
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.metrics.throughput, b.metrics.throughput);
  EXPECT_EQ(a.metrics.e2e_latency_ms, b.metrics.e2e_latency_ms);
  EXPECT_EQ(a.metrics.backpressure, b.metrics.backpressure);
  EXPECT_EQ(a.metrics.success, b.metrics.success);
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

TEST(OutOfCoreTest, CompressedRoundTripPreservesEverything) {
  const auto records = SmallCorpus();
  std::ostringstream os;
  SaveTracesV2Compressed(os, records, /*block_bytes=*/4096);
  const std::string image = std::move(os).str();
  std::vector<TraceRecord> loaded;
  ASSERT_TRUE(LoadTracesV2(image.data(), image.size(), &loaded));
  ASSERT_EQ(loaded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsBitwiseEqual(records[i], loaded[i]);
  }
}

TEST(OutOfCoreTest, CompressedImageIsSmallerAndMultiBlock) {
  const auto records = SmallCorpus(40, 3);
  std::ostringstream plain_os, comp_os;
  SaveTracesV2(plain_os, records);
  SaveTracesV2Compressed(comp_os, records, 4096);
  const std::string plain = std::move(plain_os).str();
  const std::string comp = std::move(comp_os).str();
  EXPECT_LT(comp.size(), plain.size());

  const std::string path = ::testing::TempDir() + "/ooc_multiblock.bin";
  WriteFileBytes(path, comp);
  TraceFileInfo info;
  ASSERT_TRUE(InspectTraceFile(path, &info));
  EXPECT_EQ(info.version, 2);
  EXPECT_TRUE(info.compressed);
  EXPECT_TRUE(info.index_ok);
  EXPECT_GT(info.blocks.size(), 2u);
  EXPECT_EQ(info.record_count, records.size());
  uint64_t total = 0;
  for (const TraceBlockInfo& b : info.blocks) total += b.record_count;
  EXPECT_EQ(total, records.size());
  std::remove(path.c_str());
}

// Satellite: the streaming TraceWriter must emit exactly the bytes the bulk
// savers emit — uncompressed v2 stays byte-compatible with every existing
// file, and the compressed path has one canonical encoding.
TEST(OutOfCoreTest, TraceWriterMatchesBulkSaversByteForByte) {
  const auto records = SmallCorpus(30, 21);
  std::ostringstream plain_os, comp_os;
  SaveTracesV2(plain_os, records);
  SaveTracesV2Compressed(comp_os, records, 4096);

  const std::string plain_path = ::testing::TempDir() + "/ooc_writer_plain.bin";
  TraceWriter plain_writer;
  TraceWriter::Options plain_opts;
  plain_opts.format = TraceFormat::kBinaryV2;
  ASSERT_TRUE(plain_writer.Open(plain_path, plain_opts));
  for (const TraceRecord& r : records) ASSERT_TRUE(plain_writer.Append(r));
  ASSERT_TRUE(plain_writer.Finish());
  EXPECT_EQ(plain_writer.records_written(), records.size());
  EXPECT_EQ(FileBytes(plain_path), std::move(plain_os).str());
  std::remove(plain_path.c_str());

  const std::string comp_path = ::testing::TempDir() + "/ooc_writer_comp.bin";
  TraceWriter comp_writer;
  TraceWriter::Options comp_opts;
  comp_opts.format = TraceFormat::kBinaryV2Compressed;
  comp_opts.block_bytes = 4096;
  ASSERT_TRUE(comp_writer.Open(comp_path, comp_opts));
  for (const TraceRecord& r : records) ASSERT_TRUE(comp_writer.Append(r));
  ASSERT_TRUE(comp_writer.Finish());
  EXPECT_EQ(FileBytes(comp_path), std::move(comp_os).str());
  std::remove(comp_path.c_str());
}

TEST(OutOfCoreTest, TraceReaderRandomAccessMatchesFullLoad) {
  const auto records = SmallCorpus(32, 41);
  struct Case {
    const char* name;
    TraceFormat format;
    size_t block_bytes;
  };
  const Case cases[] = {
      {"v1", TraceFormat::kTextV1, 0},
      {"v2", TraceFormat::kBinaryV2, 0},
      {"v2c_small", TraceFormat::kBinaryV2Compressed, 2048},
      {"v2c_large", TraceFormat::kBinaryV2Compressed, 1 << 16},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        ::testing::TempDir() + "/ooc_reader_" + c.name + ".bin";
    TraceWriter writer;
    TraceWriter::Options opts;
    opts.format = c.format;
    if (c.block_bytes != 0) opts.block_bytes = c.block_bytes;
    ASSERT_TRUE(writer.Open(path, opts));
    for (const TraceRecord& r : records) ASSERT_TRUE(writer.Append(r));
    ASSERT_TRUE(writer.Finish());

    auto reader = TraceReader::Open(path);
    ASSERT_NE(reader, nullptr);
    ASSERT_EQ(reader->num_records(), static_cast<int64_t>(records.size()));
    // Back to front, so compressed blocks are touched out of write order.
    for (int64_t i = reader->num_records() - 1; i >= 0; --i) {
      TraceRecord got;
      ASSERT_TRUE(reader->Get(i, &got));
      ExpectRecordsBitwiseEqual(records[static_cast<size_t>(i)], got);
    }
    std::remove(path.c_str());
  }
}

TEST(OutOfCoreTest, TraceReaderCacheStaysBounded) {
  const auto records = SmallCorpus(40, 9);
  const std::string path = ::testing::TempDir() + "/ooc_cache.bin";
  std::ostringstream os;
  SaveTracesV2Compressed(os, records, 2048);
  WriteFileBytes(path, std::move(os).str());

  TraceReaderOptions opts;
  opts.max_cached_blocks = 2;
  auto reader = TraceReader::Open(path, opts);
  ASSERT_NE(reader, nullptr);
  ASSERT_GT(reader->info().blocks.size(), 4u)
      << "corpus too small to exercise eviction";
  for (int64_t i = 0; i < reader->num_records(); ++i) {
    TraceRecord got;
    ASSERT_TRUE(reader->Get(i, &got));
    EXPECT_LE(reader->cached_blocks(), 2);
  }
  EXPECT_GE(reader->block_misses(), reader->info().blocks.size());
  // Sequential access within a block hits the cache.
  EXPECT_GT(reader->block_hits(), 0u);
  EXPECT_GT(reader->peak_cached_bytes(), 0u);
  // The byte proxy stays within two maximal uncompressed blocks.
  uint64_t max_block = 0;
  for (const TraceBlockInfo& b : reader->info().blocks) {
    max_block = std::max(max_block, b.uncompressed_bytes);
  }
  EXPECT_LE(reader->peak_cached_bytes(), 2 * max_block);
  std::remove(path.c_str());
}

// A batch spanning more blocks than the cache holds: Fetch pins every block
// it looked up, so each block is decoded exactly once and nothing is
// counted twice, even though the cache evicts most of them mid-batch.
TEST(OutOfCoreTest, FetchDecodesEachBatchBlockOnceBeyondTheCacheCap) {
  const auto records = SmallCorpus(40, 9);
  const std::string path = ::testing::TempDir() + "/ooc_pinned.bin";
  std::ostringstream os;
  SaveTracesV2Compressed(os, records, 1024);
  WriteFileBytes(path, std::move(os).str());

  TraceReaderOptions opts;
  opts.max_cached_blocks = 2;
  auto reader = TraceReader::Open(path, opts);
  ASSERT_NE(reader, nullptr);
  const std::vector<TraceBlockInfo>& blocks = reader->info().blocks;
  ASSERT_GE(blocks.size(), 10u) << "corpus too small for 8 + 2 blocks";

  // Up to two records from each of blocks 0..7, interleaved so consecutive
  // samples alternate blocks.
  std::vector<int64_t> batch_records;
  for (uint64_t pass = 0; pass < 2; ++pass) {
    for (size_t b = 0; b < 8; ++b) {
      if (pass < blocks[b].record_count) {
        batch_records.push_back(
            static_cast<int64_t>(blocks[b].first_record + pass));
      }
    }
  }
  // Records from blocks 8 and 9 come last in file order, so the scan leaves
  // exactly those two cached and the batch below starts cold.
  std::vector<int64_t> indices = batch_records;
  indices.push_back(static_cast<int64_t>(blocks[8].first_record));
  indices.push_back(static_cast<int64_t>(blocks[9].first_record));
  const sim::Metric metric = sim::Metric::kBackpressure;  // drops nothing
  StreamingCorpusOptions sc_opts;
  sc_opts.num_threads = 2;
  StreamingCorpus corpus(reader.get(), indices, metric, sc_opts);
  ASSERT_EQ(corpus.size(), static_cast<int64_t>(indices.size()));

  const uint64_t misses0 = reader->block_misses();
  const uint64_t hits0 = reader->block_hits();
  std::vector<int64_t> ids(batch_records.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  std::vector<const core::TrainSample*> batch(ids.size());
  corpus.Fetch(ids.data(), static_cast<int>(ids.size()), batch.data());
  EXPECT_EQ(reader->block_misses() - misses0, 8u);
  EXPECT_EQ(reader->block_hits() - hits0, 0u);
  EXPECT_LE(reader->cached_blocks(), 2);

  const auto expected = ToTrainSamples(Gather(records, batch_records), metric);
  ASSERT_EQ(expected.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->label, expected[i].label);
    EXPECT_EQ(batch[i]->regression_target, expected[i].regression_target);
  }
  std::remove(path.c_str());
}

TEST(OutOfCoreTest, TraceReaderFailsClosedOnTamperedIndex) {
  const auto records = SmallCorpus(20, 55);
  std::ostringstream os;
  SaveTracesV2Compressed(os, records, 2048);
  const std::string image = std::move(os).str();
  const std::string path = ::testing::TempDir() + "/ooc_tampered.bin";

  // Truncated trailer: random access refuses the file outright.
  WriteFileBytes(path, image.substr(0, image.size() - 16));
  EXPECT_EQ(TraceReader::Open(path), nullptr);

  // Flipped byte inside the index region: checksum mismatch, refused.
  std::string flipped = image;
  flipped[flipped.size() - 40] =
      static_cast<char>(flipped[flipped.size() - 40] ^ 0x5a);
  WriteFileBytes(path, flipped);
  EXPECT_EQ(TraceReader::Open(path), nullptr);
  std::remove(path.c_str());
}

// Split arithmetic must hold far past int32 — a 5-billion-record corpus
// splits into the exact 64-bit boundaries without materializing anything.
TEST(OutOfCoreTest, SplitBoundariesHandleHugeCorpora) {
  const int64_t n = INT64_C(5'000'000'000);
  const SplitBounds bounds = SplitBoundaries(n, 0.8, 0.1);
  EXPECT_EQ(bounds.train_end, INT64_C(4'000'000'000));
  EXPECT_EQ(bounds.val_end, INT64_C(4'500'000'000));
  // And the in-memory split still agrees with the boundary arithmetic.
  const SplitIndices split = SplitCorpus(1000, 0.8, 0.1, 4);
  const SplitBounds small = SplitBoundaries(1000, 0.8, 0.1);
  EXPECT_EQ(static_cast<int64_t>(split.train.size()), small.train_end);
  EXPECT_EQ(static_cast<int64_t>(split.val.size()),
            small.val_end - small.train_end);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 1000u);
}

void ExpectParamsIdentical(const std::vector<nn::Matrix>& a,
                           const std::vector<nn::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].SameShape(b[i]));
    for (int j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i].data()[j], b[i].data()[j])
          << "param " << i << " entry " << j;
    }
  }
}

// The tentpole contract: training from a block-compressed on-disk corpus
// through StreamingCorpus produces bitwise-identical weights to the
// in-memory TrainModel path — at 1 and N threads, across block sizes, for
// both a regression metric (whose failed-execution filter the streaming
// scan must reproduce) and a classification metric (whose class weights
// depend on the streamed positive count).
TEST(OutOfCoreTest, StreamingTrainingMatchesInMemoryBitwise) {
  const auto records = SmallCorpus(48, 77);
  const SplitIndices split =
      SplitCorpus(static_cast<int64_t>(records.size()), 0.7, 0.15, 13);

  const std::string path = ::testing::TempDir() + "/ooc_streaming.bin";
  for (const sim::Metric metric :
       {sim::Metric::kThroughput, sim::Metric::kBackpressure}) {
    // In-memory reference.
    const auto train_samples =
        ToTrainSamples(Gather(records, split.train), metric);
    const auto val_samples = ToTrainSamples(Gather(records, split.val), metric);
    ASSERT_GE(train_samples.size(), 16u);

    core::CostModelConfig model_config;
    model_config.hidden_dim = 16;
    if (!sim::IsRegressionMetric(metric)) {
      model_config.head = core::HeadKind::kClassification;
    }
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 8;
    tc.seed = 5;
    tc.num_threads = 1;
    core::CostModel reference(model_config);
    core::TrainResult ref_result =
        core::TrainModel(reference, train_samples, val_samples, tc);

    for (const size_t block_bytes : {size_t{2048}, size_t{1} << 16}) {
      std::ostringstream os;
      SaveTracesV2Compressed(os, records, block_bytes);
      WriteFileBytes(path, std::move(os).str());
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "metric " << static_cast<int>(metric)
                                        << " block " << block_bytes
                                        << " threads " << threads);
        auto reader = TraceReader::Open(path);
        ASSERT_NE(reader, nullptr);
        StreamingCorpusOptions sc_opts;
        sc_opts.num_threads = threads;
        StreamingCorpus train_source(reader.get(), split.train, metric,
                                     sc_opts);
        StreamingCorpus val_source(reader.get(), split.val, metric, sc_opts);
        ASSERT_EQ(train_source.size(),
                  static_cast<int64_t>(train_samples.size()));
        ASSERT_EQ(val_source.size(), static_cast<int64_t>(val_samples.size()));

        core::CostModel streamed(model_config);
        core::TrainConfig stc = tc;
        stc.num_threads = threads;
        core::TrainResult result = core::TrainModelStreaming(
            streamed, train_source, val_source, stc);
        ASSERT_EQ(result.train_losses, ref_result.train_losses);
        ASSERT_EQ(result.val_losses, ref_result.val_losses);
        ExpectParamsIdentical(reference.SnapshotParameters(),
                              streamed.SnapshotParameters());
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace costream::workload
