// Randomized arrive/depart churn sweep over the multi-tenant placement
// service: the ClusterLoadLedger's invariants must hold after every event —
// the aggregated demand equals the sum of the live placements' loads, a
// retired query exactly restores the pre-admission ledger state, and no node
// is left overflowed at convergence.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "service/placement_service.h"
#include "sim/fluid_engine.h"
#include "workload/corpus.h"

namespace costream::service {
namespace {

sim::Cluster RoomyCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 64000.0, 1000.0, 5.0});
  cluster.nodes.push_back({300.0, 64000.0, 800.0, 10.0});
  cluster.nodes.push_back({200.0, 64000.0, 400.0, 20.0});
  cluster.nodes.push_back({600.0, 64000.0, 2000.0, 2.0});
  return cluster;
}

// Light event rates keep a few dozen concurrent queries well inside the
// cluster's capacity, so the post-churn convergence check is meaningful.
workload::GeneratorConfig LightWorkload() {
  workload::GeneratorConfig config;
  config.workload.event_rate_linear = {100, 200, 400};
  config.workload.event_rate_two_way = {50, 100};
  config.workload.event_rate_three_way = {20, 50};
  config.workload.window_count_sizes = {5, 10, 20};
  config.workload.window_time_sizes = {0.25, 0.5, 1};
  return config;
}

core::Ensemble TinyThroughputEnsemble(uint64_t seed) {
  workload::CorpusConfig cc;
  cc.num_queries = 50;
  cc.seed = seed;
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

ServiceConfig FastConfig() {
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 8;
  config.seed = 11;
  config.num_threads = 1;
  return config;
}

TEST(ServiceChurnTest, LedgerInvariantsHoldAfterEveryEvent) {
  const core::Ensemble target = TinyThroughputEnsemble(21);
  PlacementService service(RoomyCluster(), &target, nullptr, nullptr,
                           FastConfig());
  workload::QueryGenerator generator(LightWorkload());
  nn::Rng rng(77);

  std::vector<int64_t> live;
  int admissions = 0;
  int retirements = 0;
  constexpr int kEvents = 220;
  for (int e = 0; e < kEvents; ++e) {
    const bool admit = live.empty() || rng.Uniform(0.0, 1.0) < 0.55;
    if (admit) {
      const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
      const dsps::QueryGraph query = generator.Generate(t, rng);
      const AdmitResult result = service.Admit(query);
      ASSERT_GE(result.id, 0);
      ASSERT_EQ(sim::ValidatePlacement(query, service.ledger().cluster(),
                                       result.placement),
                "");
      ASSERT_GT(result.candidates_evaluated, 0);
      live.push_back(result.id);
      ++admissions;
    } else {
      const size_t pick = static_cast<size_t>(
          rng.Int(0, static_cast<int>(live.size()) - 1));
      ASSERT_TRUE(service.Retire(live[pick]));
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ++retirements;
    }
    ASSERT_EQ(service.ledger().CheckInvariants(), "") << "event " << e;
    ASSERT_EQ(service.live_queries(), static_cast<int>(live.size()));

    // Every stored per-query load must equal the placement's freshly
    // recomputed steady-state demand (bitwise: ComputeBackgroundLoad is
    // noiseless and deterministic).
    if (e % 20 == 19) {
      for (const int64_t id : live) {
        const sim::BackgroundLoad expected = sim::ComputeBackgroundLoad(
            service.QueryOf(id), service.ledger().cluster(),
            service.PlacementOf(id));
        const sim::BackgroundLoad& stored = service.ledger().LoadOf(id);
        for (int n = 0; n < service.ledger().num_nodes(); ++n) {
          ASSERT_EQ(stored.cpu_load_us[n], expected.cpu_load_us[n]);
          ASSERT_EQ(stored.out_bytes_per_s[n], expected.out_bytes_per_s[n]);
          ASSERT_EQ(stored.memory_mb[n], expected.memory_mb[n]);
        }
      }
    }
  }
  EXPECT_EQ(admissions + retirements, kEvents);
  EXPECT_GT(admissions, 100);
  EXPECT_GT(retirements, 50);

  // Post-churn convergence: this fixture is well inside capacity, so the
  // rip-up loop must end with no overflowed node.
  const ConvergeResult converge = service.Converge();
  EXPECT_TRUE(converge.converged);
  EXPECT_TRUE(service.ledger().OverflowedNodes().empty());
  EXPECT_EQ(service.ledger().CheckInvariants(), "");
}

TEST(ServiceChurnTest, RetireExactlyRestoresLedgerState) {
  const core::Ensemble target = TinyThroughputEnsemble(22);
  PlacementService service(RoomyCluster(), &target, nullptr, nullptr,
                           FastConfig());
  workload::QueryGenerator generator(LightWorkload());
  nn::Rng rng(101);

  // A few resident queries so the restored state is non-trivial.
  for (int i = 0; i < 3; ++i) {
    service.Admit(generator.Generate(workload::QueryTemplate::kLinear, rng));
  }
  const sim::BackgroundLoad before = service.ledger().TotalLoad();
  const int live_before = service.live_queries();

  const AdmitResult admitted = service.Admit(
      generator.Generate(workload::QueryTemplate::kTwoWayJoin, rng));
  ASSERT_EQ(service.live_queries(), live_before + 1);
  ASSERT_TRUE(service.Retire(admitted.id));

  const sim::BackgroundLoad after = service.ledger().TotalLoad();
  ASSERT_EQ(service.live_queries(), live_before);
  ASSERT_EQ(before.empty(), after.empty());
  for (int n = 0; n < service.ledger().num_nodes(); ++n) {
    // Bitwise: totals are recomputed from the live set in id order, so the
    // admit/retire round trip cannot leave floating-point residue.
    EXPECT_EQ(before.cpu_load_us[n], after.cpu_load_us[n]);
    EXPECT_EQ(before.out_bytes_per_s[n], after.out_bytes_per_s[n]);
    EXPECT_EQ(before.memory_mb[n], after.memory_mb[n]);
  }
  EXPECT_EQ(service.ledger().CheckInvariants(), "");
}

TEST(ServiceChurnTest, RetireUnknownIdIsRejected) {
  const core::Ensemble target = TinyThroughputEnsemble(23);
  PlacementService service(RoomyCluster(), &target, nullptr, nullptr,
                           FastConfig());
  EXPECT_FALSE(service.Retire(123));
  workload::QueryGenerator generator(LightWorkload());
  nn::Rng rng(5);
  const AdmitResult result = service.Admit(
      generator.Generate(workload::QueryTemplate::kLinear, rng));
  EXPECT_TRUE(service.Retire(result.id));
  EXPECT_FALSE(service.Retire(result.id));  // double retire
}

TEST(LoadLedgerTest, UtilizationAndOverflowTrackDemand) {
  sim::Cluster cluster;
  cluster.nodes.push_back({100.0, 4000.0, 100.0, 5.0});  // 1 core
  cluster.nodes.push_back({100.0, 4000.0, 100.0, 5.0});
  ClusterLoadLedger ledger(cluster);
  EXPECT_EQ(ledger.NodeUtilization(0), 0.0);
  EXPECT_TRUE(ledger.OverflowedNodes().empty());

  sim::BackgroundLoad load;
  load.cpu_load_us = {1.5e6, 0.25e6};  // node 0: 1.5 cores on a 1-core node
  load.out_bytes_per_s = {0.0, 0.0};
  load.memory_mb = {100.0, 100.0};
  ledger.Admit(7, load);
  EXPECT_NEAR(ledger.NodeUtilization(0), 1.5, 1e-12);
  EXPECT_NEAR(ledger.NodeUtilization(1), 0.25, 1e-12);
  EXPECT_EQ(ledger.OverflowedNodes(), std::vector<int>{0});

  // Repricing escalates: history accumulates while the node stays overflowed
  // and the penalty is monotonically increasing.
  EXPECT_EQ(ledger.NodePenalty(0), 1.0);
  ledger.UpdateCongestion();
  const double p1 = ledger.NodePenalty(0);
  EXPECT_GT(p1, 1.0);
  ledger.UpdateCongestion();
  const double p2 = ledger.NodePenalty(0);
  EXPECT_GT(p2, p1);
  EXPECT_EQ(ledger.history(0), 2);
  EXPECT_GT(ledger.overflow_count(0), 0);
  EXPECT_EQ(ledger.NodePenalty(1), 1.0);

  // Retiring the only query clears demand; congestion state clears on reset.
  EXPECT_TRUE(ledger.Retire(7));
  EXPECT_EQ(ledger.NodeUtilization(0), 0.0);
  ledger.UpdateCongestion();
  EXPECT_GT(ledger.NodePenalty(0), 1.0);  // history persists across iterations
  ledger.ResetCongestion();
  EXPECT_EQ(ledger.NodePenalty(0), 1.0);
}

// Loads whose magnitudes span 19 decades, so a fold in any order other than
// ascending id rounds differently.
sim::BackgroundLoad MixedLoad(nn::Rng& rng, int nodes) {
  sim::BackgroundLoad load;
  for (int n = 0; n < nodes; ++n) {
    load.cpu_load_us.push_back(rng.Uniform(0.1, 1.0) *
                               std::pow(10.0, rng.Int(-3, 16)));
    load.out_bytes_per_s.push_back(rng.Uniform(0.1, 1.0) *
                                   std::pow(10.0, rng.Int(-3, 16)));
    load.memory_mb.push_back(rng.Uniform(0.1, 1.0) *
                             std::pow(10.0, rng.Int(-3, 16)));
  }
  return load;
}

std::vector<uint64_t> Bits(const sim::BackgroundLoad& total) {
  std::vector<uint64_t> bits;
  for (const std::vector<double>* field :
       {&total.cpu_load_us, &total.out_bytes_per_s, &total.memory_mb}) {
    for (double v : *field) {
      uint64_t b = 0;
      std::memcpy(&b, &v, sizeof(b));
      bits.push_back(b);
    }
  }
  return bits;
}

// The live loads folded from scratch, in ascending or descending id order.
sim::BackgroundLoad FoldLoads(const ClusterLoadLedger& ledger,
                              bool ascending) {
  std::vector<int64_t> ids = ledger.QueryIds();
  if (!ascending) std::reverse(ids.begin(), ids.end());
  sim::BackgroundLoad sum;
  for (int64_t id : ids) {
    sim::AccumulateBackgroundLoad(ledger.LoadOf(id), ledger.num_nodes(), &sum);
  }
  return sum;
}

void ExpectTotalIsAscendingFold(const ClusterLoadLedger& ledger,
                                const char* step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(Bits(ledger.TotalLoad()), Bits(FoldLoads(ledger, true)));
  EXPECT_EQ(ledger.CheckInvariants(), "");
}

// TotalLoad() after every kind of live-set change equals the ascending-id
// fold of the live loads bit for bit, whether or not it was read in between.
TEST(LoadLedgerTest, TotalIsAscendingFoldAfterEveryChange) {
  sim::Cluster cluster;
  for (int i = 0; i < 3; ++i) {
    cluster.nodes.push_back({400.0, 8000.0, 1000.0, 5.0});
  }
  ClusterLoadLedger ledger(cluster);
  nn::Rng rng(2718);
  ExpectTotalIsAscendingFold(ledger, "empty");

  ledger.Admit(10, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(ledger, "admit the first id");
  ledger.Admit(20, MixedLoad(rng, 3));
  ledger.Admit(30, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(ledger, "admit newer ids unread");
  ledger.Admit(40, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(ledger, "admit the newest id");

  ledger.Admit(15, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(ledger, "admit an id below the maximum");
  // The fixture has teeth: folding in another order changes the bits.
  EXPECT_NE(Bits(FoldLoads(ledger, true)), Bits(FoldLoads(ledger, false)));

  ASSERT_TRUE(ledger.Retire(10));
  ExpectTotalIsAscendingFold(ledger, "retire the oldest");
  ASSERT_TRUE(ledger.Retire(20));
  ExpectTotalIsAscendingFold(ledger, "retire a middle id");
  ASSERT_TRUE(ledger.Retire(40));
  ExpectTotalIsAscendingFold(ledger, "retire the newest");
  ASSERT_TRUE(ledger.Retire(15));
  ledger.Admit(50, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(ledger, "retire, then admit the newest unread");
  EXPECT_FALSE(ledger.Retire(99));
  ExpectTotalIsAscendingFold(ledger, "retire an unknown id");

  ASSERT_TRUE(ledger.Retire(30));
  ASSERT_TRUE(ledger.Retire(50));
  ExpectTotalIsAscendingFold(ledger, "retire all");
  EXPECT_TRUE(ledger.TotalLoad().empty());
  ledger.Admit(5, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(ledger, "admit after retiring all");
  ledger.Admit(6, MixedLoad(rng, 3));

  const std::vector<uint64_t> original = Bits(ledger.TotalLoad());
  ClusterLoadLedger copy = ledger;
  ExpectTotalIsAscendingFold(copy, "copy");
  copy.Admit(60, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(copy, "admit the newest into the copy");
  ASSERT_TRUE(copy.Retire(5));
  copy.Admit(1, MixedLoad(rng, 3));
  ExpectTotalIsAscendingFold(copy, "retire from and admit below in the copy");
  EXPECT_EQ(Bits(ledger.TotalLoad()), original);
  ExpectTotalIsAscendingFold(ledger, "original after the copy changed");
}

}  // namespace
}  // namespace costream::service
