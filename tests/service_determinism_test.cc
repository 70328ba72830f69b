// The placement service must make bitwise-identical decisions regardless of
// how many scorer threads it uses: per-candidate scoring writes into
// per-index slots and selection walks candidates in enumeration order, so a
// seeded churn script replays to the same admissions, the same final
// placements, and the same ledger totals at 1 and 4 threads.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/trainer.h"
#include "dsps/query_builder.h"
#include "service/placement_service.h"
#include "sim/fluid_engine.h"
#include "workload/corpus.h"

namespace costream::service {
namespace {

sim::Cluster FixtureCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({200.0, 16000.0, 400.0, 20.0});
  cluster.nodes.push_back({400.0, 32000.0, 1000.0, 5.0});
  cluster.nodes.push_back({300.0, 24000.0, 800.0, 10.0});
  cluster.nodes.push_back({600.0, 48000.0, 2000.0, 2.0});
  return cluster;
}

core::Ensemble TinyThroughputEnsemble() {
  workload::CorpusConfig cc;
  cc.num_queries = 50;
  cc.seed = 31;
  cc.duration_s = 30.0;
  const auto records = workload::BuildCorpus(cc);
  core::CostModelConfig config;
  config.hidden_dim = 8;
  core::Ensemble ensemble(config, 1);
  auto samples = workload::ToTrainSamples(records, sim::Metric::kThroughput);
  core::TrainConfig tc;
  tc.epochs = 3;
  ensemble.Train(samples, {}, tc);
  return ensemble;
}

struct ScriptRun {
  std::vector<AdmitResult> admissions;
  std::vector<std::vector<int>> final_placements;  // ascending id order
  ConvergeResult converge;
  sim::BackgroundLoad total;
};

// Replays the same seeded arrive/depart script (the script's randomness is
// independent of the service under test).
ScriptRun RunScript(const core::Ensemble& target, int num_threads) {
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 12;
  config.seed = 77;
  config.num_threads = num_threads;

  PlacementService service(FixtureCluster(), &target, nullptr, nullptr,
                           config);
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(909);

  ScriptRun run;
  std::vector<int64_t> live;
  constexpr int kEvents = 60;
  for (int e = 0; e < kEvents; ++e) {
    if (live.empty() || rng.Uniform(0.0, 1.0) < 0.6) {
      const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
      const dsps::QueryGraph query = generator.Generate(t, rng);
      const AdmitResult result = service.Admit(query);
      run.admissions.push_back(result);
      live.push_back(result.id);
    } else {
      const size_t pick = static_cast<size_t>(
          rng.Int(0, static_cast<int>(live.size()) - 1));
      service.Retire(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
  run.converge = service.Converge();
  for (const int64_t id : service.QueryIds()) {
    run.final_placements.push_back(service.PlacementOf(id));
  }
  run.total = service.ledger().TotalLoad();
  return run;
}

TEST(ServiceDeterminismTest, OneAndFourThreadsAgreeBitwise) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const ScriptRun serial = RunScript(target, 1);
  const ScriptRun parallel = RunScript(target, 4);

  // Every admission decision matches: placement, prediction (bitwise) and
  // feasibility.
  ASSERT_EQ(serial.admissions.size(), parallel.admissions.size());
  for (size_t i = 0; i < serial.admissions.size(); ++i) {
    EXPECT_EQ(serial.admissions[i].id, parallel.admissions[i].id);
    EXPECT_EQ(serial.admissions[i].placement, parallel.admissions[i].placement)
        << "admission " << i;
    EXPECT_EQ(serial.admissions[i].predicted, parallel.admissions[i].predicted);
    EXPECT_EQ(serial.admissions[i].penalized, parallel.admissions[i].penalized);
    EXPECT_EQ(serial.admissions[i].feasible, parallel.admissions[i].feasible);
  }

  // Convergence took the identical trajectory.
  EXPECT_EQ(serial.converge.iterations, parallel.converge.iterations);
  EXPECT_EQ(serial.converge.ripups, parallel.converge.ripups);
  EXPECT_EQ(serial.converge.converged, parallel.converge.converged);

  // Final state matches bitwise.
  ASSERT_EQ(serial.final_placements.size(), parallel.final_placements.size());
  for (size_t i = 0; i < serial.final_placements.size(); ++i) {
    EXPECT_EQ(serial.final_placements[i], parallel.final_placements[i]);
  }
  ASSERT_EQ(serial.total.empty(), parallel.total.empty());
  if (!serial.total.empty()) {
    for (size_t n = 0; n < serial.total.cpu_load_us.size(); ++n) {
      EXPECT_EQ(serial.total.cpu_load_us[n], parallel.total.cpu_load_us[n]);
      EXPECT_EQ(serial.total.out_bytes_per_s[n],
                parallel.total.out_bytes_per_s[n]);
      EXPECT_EQ(serial.total.memory_mb[n], parallel.total.memory_mb[n]);
    }
  }
}

TEST(ServiceDeterminismTest, RerunWithSameThreadsIsIdentical) {
  // Sanity anchor for the cross-thread check: the script itself replays
  // identically when nothing varies.
  const core::Ensemble target = TinyThroughputEnsemble();
  const ScriptRun a = RunScript(target, 1);
  const ScriptRun b = RunScript(target, 1);
  ASSERT_EQ(a.admissions.size(), b.admissions.size());
  for (size_t i = 0; i < a.admissions.size(); ++i) {
    EXPECT_EQ(a.admissions[i].placement, b.admissions[i].placement);
    EXPECT_EQ(a.admissions[i].predicted, b.admissions[i].predicted);
  }
  EXPECT_EQ(a.final_placements, b.final_placements);
}

// Decisions and ledger totals appended as 64-bit words (doubles by bit
// pattern), hashed in order with FNV-1a 64.
class EventDigest {
 public:
  void Add(uint64_t v) { words_.push_back(v); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    words_.push_back(bits);
  }
  void Add(const std::vector<int>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (int v : values) Add(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  void Add(const AdmitResult& r) {
    Add(static_cast<uint64_t>(r.id));
    Add(r.placement);
    Add(r.predicted);
    Add(r.penalized);
    Add(static_cast<uint64_t>(r.feasible));
    Add(static_cast<uint64_t>(r.candidates_evaluated));
  }
  void Add(const sim::BackgroundLoad& total) {
    Add(static_cast<uint64_t>(total.cpu_load_us.size()));
    for (size_t n = 0; n < total.cpu_load_us.size(); ++n) {
      Add(total.cpu_load_us[n]);
      Add(total.out_bytes_per_s[n]);
      Add(total.memory_mb[n]);
    }
  }
  uint64_t Value() const {
    return common::Fnv1a64(words_.data(), words_.size() * sizeof(uint64_t));
  }

 private:
  std::vector<uint64_t> words_;
};

// About 0.9 of node 0's CPU per query (fixture of service_convergence_test,
// scaled to node 0's two cores): two of them overflow the node.
dsps::QueryGraph HeavyQuery() {
  dsps::QueryBuilder b;
  auto s = b.Source(12800.0,
                    std::vector<dsps::DataType>(8, dsps::DataType::kString));
  auto f = b.Filter(s, dsps::FilterFunction::kStartsWith,
                    dsps::DataType::kString, 0.8);
  return b.Sink(f);
}

struct ScriptDigest {
  uint64_t value = 0;
  int ripups = 0;
};

// Sync admits; an async burst drained after an interleaved sync Admit (the
// drain then admits ids below the newest live id); retiring the oldest, a
// middle and the newest tenant; a pile-up on node 0 resolved by Converge.
// Every decision and the ledger total after every event go into the digest.
ScriptDigest RunDigestScript(const core::Ensemble& target, int num_threads) {
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 10;
  config.seed = 91;
  config.num_threads = num_threads;
  PlacementService service(FixtureCluster(), &target, nullptr, nullptr,
                           config);
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(4711);
  auto next_query = [&] {
    return generator.Generate(
        static_cast<workload::QueryTemplate>(rng.Int(0, 3)), rng);
  };
  EventDigest digest;
  auto event_done = [&] { digest.Add(service.ledger().TotalLoad()); };

  for (int i = 0; i < 6; ++i) {
    digest.Add(service.Admit(next_query()));
    event_done();
  }
  for (int i = 0; i < 5; ++i) service.AdmitAsync(next_query());
  digest.Add(service.Admit(next_query()));
  event_done();
  for (const AdmitResult& r : service.DrainAdmissions()) digest.Add(r);
  event_done();

  const std::vector<int64_t> ids = service.QueryIds();
  for (const int64_t id : {ids.front(), ids[ids.size() / 2], ids.back()}) {
    service.Retire(id);
    event_done();
  }
  digest.Add(service.Admit(next_query()));
  event_done();

  const dsps::QueryGraph heavy = HeavyQuery();
  for (int i = 0; i < 3; ++i) {
    digest.Add(service.AdmitWithPlacement(
        heavy, sim::Placement(heavy.num_operators(), 0)));
    event_done();
  }
  const ConvergeResult converge = service.Converge();
  digest.Add(static_cast<uint64_t>(converge.iterations));
  digest.Add(static_cast<uint64_t>(converge.ripups));
  digest.Add(static_cast<uint64_t>(converge.converged));
  digest.Add(converge.overflowed_nodes);
  event_done();
  for (const int64_t id : service.QueryIds()) {
    digest.Add(static_cast<uint64_t>(id));
    digest.Add(service.PlacementOf(id));
  }
  EXPECT_EQ(service.ledger().CheckInvariants(), "");
  return {digest.Value(), converge.ripups};
}

TEST(ServiceDeterminismTest, ScriptedRunDigestIsPinned) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const ScriptDigest serial = RunDigestScript(target, 1);
  const ScriptDigest parallel = RunDigestScript(target, 4);
  EXPECT_GT(serial.ripups, 0);
  EXPECT_EQ(serial.value, parallel.value);
  EXPECT_EQ(serial.value, 0xdf7cba21615dd517ull) << std::hex << serial.value;
}

}  // namespace
}  // namespace costream::service
