// CostModel::Save / CostModel::Load round-trips: predictions must survive
// persistence exactly, and Load must reject truncated files and
// architecture mismatches without crashing or partially mutating the model.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/featurizer.h"
#include "core/model.h"
#include "dsps/query_builder.h"
#include "nn/serialize.h"

namespace costream::core {
namespace {

namespace fs = std::filesystem;
using nn::Matrix;

class SerializeRoundtripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("costream_serialize_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

JointGraph TestGraph(double rate) {
  using dsps::DataType;
  dsps::QueryBuilder b;
  auto s = b.Source(rate, {DataType::kInt, DataType::kInt});
  auto f = b.Filter(s, dsps::FilterFunction::kLess, DataType::kInt, 0.5);
  dsps::QueryGraph query = b.Sink(f);
  sim::Cluster cluster{{sim::HardwareNode{400.0, 8000.0, 500.0, 2.0},
                        sim::HardwareNode{900.0, 16000.0, 1000.0, 1.0}}};
  sim::Placement placement(query.num_operators(), 0);
  placement[query.num_operators() - 1] = 1;
  return BuildJointGraph(query, cluster, placement);
}

double RawOutput(const CostModel& model, const JointGraph& graph) {
  nn::Tape tape;
  return tape.value(model.Forward(tape, graph))(0, 0);
}

std::vector<Matrix> Snapshot(CostModel& model) {
  return model.SnapshotParameters();
}

void ExpectParamsEqual(const std::vector<Matrix>& a,
                       const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].SameShape(b[i]));
    for (int j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i].data()[j], b[i].data()[j]) << "param " << i;
    }
  }
}

TEST_F(SerializeRoundtripTest, RoundTripPreservesPredictionsExactly) {
  CostModelConfig config;
  config.seed = 3;
  CostModel saved(config);
  const std::string path = Path("model.bin");
  ASSERT_TRUE(saved.Save(path));

  CostModelConfig other = config;
  other.seed = 99;  // different init: predictions differ before Load
  CostModel loaded(other);
  const JointGraph g1 = TestGraph(700.0);
  const JointGraph g2 = TestGraph(2500.0);
  // The raw output is not clamped, so differing initializations are
  // guaranteed to disagree here.
  ASSERT_NE(RawOutput(saved, g1), RawOutput(loaded, g1));

  ASSERT_TRUE(loaded.Load(path));
  EXPECT_EQ(saved.Predict(g1), loaded.Predict(g1));
  EXPECT_EQ(saved.Predict(g2), loaded.Predict(g2));
  EXPECT_EQ(RawOutput(saved, g1), RawOutput(loaded, g1));
  ExpectParamsEqual(Snapshot(saved), Snapshot(loaded));
}

TEST_F(SerializeRoundtripTest, TruncatedFilesAreRejectedWithoutMutation) {
  CostModelConfig config;
  config.seed = 7;
  CostModel saved(config);
  const std::string path = Path("full.bin");
  ASSERT_TRUE(saved.Save(path));
  const auto full_size = fs::file_size(path);

  // Truncate at several depths: inside the header, inside a shape record,
  // and inside the payload of a later tensor.
  for (const std::uintmax_t keep :
       {std::uintmax_t{0}, std::uintmax_t{2}, std::uintmax_t{9},
        full_size / 3, full_size - 7}) {
    const std::string cut = Path("cut.bin");
    {
      std::ifstream in(path, std::ios::binary);
      std::vector<char> bytes(keep);
      in.read(bytes.data(), static_cast<std::streamsize>(keep));
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    CostModel victim(config);
    const std::vector<Matrix> before = Snapshot(victim);
    EXPECT_FALSE(victim.Load(cut)) << "kept " << keep << " bytes";
    ExpectParamsEqual(before, Snapshot(victim));
  }
}

TEST_F(SerializeRoundtripTest, ArchitectureMismatchIsRejectedWithoutMutation) {
  CostModelConfig small;
  small.hidden_dim = 16;
  CostModel saved(small);
  const std::string path = Path("h16.bin");
  ASSERT_TRUE(saved.Save(path));

  CostModelConfig big = small;
  big.hidden_dim = 32;
  CostModel victim(big);
  const std::vector<Matrix> before = Snapshot(victim);
  EXPECT_FALSE(victim.Load(path));
  ExpectParamsEqual(before, Snapshot(victim));
}

TEST_F(SerializeRoundtripTest, GarbageMagicAndMissingFileAreRejected) {
  CostModelConfig config;
  CostModel victim(config);
  const std::vector<Matrix> before = Snapshot(victim);

  EXPECT_FALSE(victim.Load(Path("does_not_exist.bin")));

  const std::string junk = Path("junk.bin");
  {
    std::ofstream out(junk, std::ios::binary);
    const char bytes[] = "not a costream checkpoint at all";
    out.write(bytes, sizeof(bytes));
  }
  EXPECT_FALSE(victim.Load(junk));
  ExpectParamsEqual(before, Snapshot(victim));
}

}  // namespace
}  // namespace costream::core
