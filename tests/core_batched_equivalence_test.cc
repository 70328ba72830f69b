// The batched forward must be numerically invisible: every stage-level GEMM,
// gather, segment-sum and scatter accumulates in the exact index order of a
// node-by-node walk of Algorithm 1, so predictions and gradients are bitwise
// identical to it — not merely close. The per-node walk lives here, as a
// test-local oracle built only on the model's public MLP accessors, and
// derives its own in-lists, waves and neighbour lists so that a
// BuildForwardPlan bug cannot hide in both paths.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/ensemble.h"
#include "core/trainer.h"
#include "placement/enumeration.h"
#include "placement/scorer.h"
#include "workload/corpus.h"

namespace costream {
namespace {

std::vector<workload::TraceRecord> FixedCorpus(int num_queries,
                                               uint64_t seed) {
  workload::CorpusConfig config;
  config.num_queries = num_queries;
  config.seed = seed;
  config.duration_s = 60.0;
  return workload::BuildCorpus(config);
}

// FNV-1a 64 over the bit patterns of `values`, in order.
uint64_t BitsDigest(const std::vector<double>& values) {
  return common::Fnv1a64(values.data(), values.size() * sizeof(double));
}

core::CostModelConfig BaseConfig(core::MessagePassingMode mp,
                                 core::FeaturizationMode feat) {
  core::CostModelConfig config;
  config.hidden_dim = 16;
  config.message_passing = mp;
  config.featurization = feat;
  return config;
}

// --- Per-node oracle --------------------------------------------------------

// Incoming dataflow neighbours per operator, in dataflow-edge order.
std::vector<std::vector<int>> InLists(const core::JointGraph& graph) {
  std::vector<std::vector<int>> in_lists(graph.num_operator_nodes);
  for (const auto& [from, to] : graph.dataflow_edges) {
    in_lists[to].push_back(from);
  }
  return in_lists;
}

// Wave L holds the operators whose longest upstream chain has length L, in
// topological order; every input of a wave sits in an earlier wave.
std::vector<std::vector<int>> DataflowWaves(
    const core::JointGraph& graph,
    const std::vector<std::vector<int>>& in_lists) {
  std::vector<int> level(graph.num_operator_nodes, 0);
  int max_level = 0;
  for (int v : graph.topo_order) {
    for (int u : in_lists[v]) level[v] = std::max(level[v], level[u] + 1);
    max_level = std::max(max_level, level[v]);
  }
  std::vector<std::vector<int>> waves(max_level + 1);
  for (int v : graph.topo_order) waves[level[v]].push_back(v);
  return waves;
}

// Undirected neighbourhood over data-flow and placement edges, neighbours
// per node in edge-scan order.
std::vector<std::vector<int>> NeighborLists(const core::JointGraph& graph) {
  std::vector<std::vector<int>> neighbors(graph.nodes.size());
  for (const auto& [from, to] : graph.dataflow_edges) {
    neighbors[from].push_back(to);
    neighbors[to].push_back(from);
  }
  for (const auto& [op, host] : graph.placement_edges) {
    neighbors[op].push_back(host);
    neighbors[host].push_back(op);
  }
  return neighbors;
}

// The model's forward, one 1 x d op chain per graph node.
nn::Var OracleForward(const core::CostModel& model, nn::Tape& tape,
                      const core::JointGraph& graph) {
  const int num_nodes = static_cast<int>(graph.nodes.size());
  std::vector<nn::Var> states(num_nodes);
  for (int v = 0; v < num_nodes; ++v) {
    const core::JointNode& node = graph.nodes[v];
    states[v] = model.encoder_mlp(node.kind).Apply(
        tape, tape.Input(nn::Matrix::Row(node.features)));
  }
  const auto update = [&](int v, const std::vector<nn::Var>& children,
                          nn::Var own) {
    nn::Var cat = tape.ConcatCols(tape.AddN(children), own);
    return model.update_mlp(graph.nodes[v].kind).Apply(tape, cat);
  };

  if (model.config().message_passing == core::MessagePassingMode::kStaged) {
    if (graph.num_host_nodes > 0) {
      // OPS -> HW: co-located operators send one message each.
      std::vector<std::vector<nn::Var>> host_children(num_nodes);
      for (const auto& [op, host] : graph.placement_edges) {
        host_children[host].push_back(states[op]);
      }
      for (int v = graph.num_operator_nodes; v < num_nodes; ++v) {
        states[v] = update(v, host_children[v], states[v]);
      }
      // HW -> OPS: each operator reads the host it runs on.
      for (const auto& [op, host] : graph.placement_edges) {
        states[op] = update(op, {states[host]}, states[op]);
      }
    }
    // SOURCES -> OPS, wave by wave.
    const auto in_lists = InLists(graph);
    const auto waves = DataflowWaves(graph, in_lists);
    for (size_t level = 1; level < waves.size(); ++level) {
      for (int v : waves[level]) {
        std::vector<nn::Var> children;
        for (int u : in_lists[v]) children.push_back(states[u]);
        states[v] = update(v, children, states[v]);
      }
    }
  } else {
    // Traditional: every connected node updates from its neighbours at once.
    // Each iteration runs all sums, then all concats, then all update MLPs,
    // so the reverse sweep credits every shared state with its "own"
    // contributions before any neighbour-sum ones: the accumulation order of
    // the batched gather/segment-sum backward.
    const auto neighbors = NeighborLists(graph);
    for (int iter = 0; iter < model.config().traditional_iterations; ++iter) {
      std::vector<nn::Var> sums(num_nodes);
      std::vector<nn::Var> cats(num_nodes);
      std::vector<nn::Var> next = states;
      for (int v = 0; v < num_nodes; ++v) {
        if (neighbors[v].empty()) continue;
        std::vector<nn::Var> children;
        for (int u : neighbors[v]) children.push_back(states[u]);
        sums[v] = tape.AddN(children);
      }
      for (int v = 0; v < num_nodes; ++v) {
        if (!neighbors[v].empty()) {
          cats[v] = tape.ConcatCols(sums[v], states[v]);
        }
      }
      for (int v = 0; v < num_nodes; ++v) {
        if (neighbors[v].empty()) continue;
        next[v] = model.update_mlp(graph.nodes[v].kind).Apply(tape, cats[v]);
      }
      states = std::move(next);
    }
  }
  return model.readout_mlp().Apply(tape, tape.AddN(states));
}

double OracleOutput(const core::CostModel& model,
                    const core::JointGraph& graph) {
  nn::Tape tape;
  return tape.value(OracleForward(model, tape, graph))(0, 0);
}

// The head map: clamped expm1 floored at zero, or the stable sigmoid.
double OraclePredict(const core::CostModel& model,
                     const core::JointGraph& graph) {
  const double z = OracleOutput(model, graph);
  if (model.config().head == core::HeadKind::kRegression) {
    return std::max(std::expm1(std::clamp(z, -10.0, 30.0)), 0.0);
  }
  return z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                  : std::exp(z) / (1.0 + std::exp(z));
}

// Member mean, summed in member order.
double OracleMean(const core::Ensemble& ensemble,
                  const core::JointGraph& graph) {
  double total = 0.0;
  for (int i = 0; i < ensemble.size(); ++i) {
    total += OraclePredict(ensemble.member(i), graph);
  }
  return total / ensemble.size();
}

bool OracleVote(const core::Ensemble& ensemble,
                const core::JointGraph& graph) {
  int votes = 0;
  for (int i = 0; i < ensemble.size(); ++i) {
    if (OraclePredict(ensemble.member(i), graph) >= 0.5) ++votes;
  }
  return votes * 2 > ensemble.size();
}

// Gradients of one MSE loss through the model's forward and through the
// oracle, compared entry by entry. Leaves every gradient zeroed.
void ExpectGradientsMatchOracle(
    core::CostModel& model, const std::vector<workload::TraceRecord>& records) {
  const std::vector<nn::Parameter*>& params = model.parameters();
  const nn::Matrix target = nn::Matrix::Scalar(1.7);
  for (const auto& record : records) {
    const core::JointGraph graph = core::BuildJointGraph(
        record.query, record.cluster, record.placement);
    for (nn::Parameter* p : params) p->ZeroGrad();
    nn::Tape tape;
    tape.Backward(tape.MseLoss(model.Forward(tape, graph), target));
    std::vector<nn::Matrix> batched;
    for (const nn::Parameter* p : params) batched.push_back(p->grad);

    for (nn::Parameter* p : params) p->ZeroGrad();
    nn::Tape oracle;
    oracle.Backward(
        oracle.MseLoss(OracleForward(model, oracle, graph), target));
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(params[i]->grad.SameShape(batched[i]));
      for (int j = 0; j < batched[i].size(); ++j) {
        ASSERT_EQ(batched[i].data()[j], params[i]->grad.data()[j])
            << "param " << i << " entry " << j;
      }
    }
  }
  for (nn::Parameter* p : params) p->ZeroGrad();
}

// --- Tests ------------------------------------------------------------------

// Both message-passing schemes x three featurization modes x both heads:
// raw outputs and head-mapped predictions equal the oracle's bit for bit,
// with and without a reused tape and plan. Golden digests over the same
// values pin the arithmetic itself, so a rewrite of the forward's schedule
// must leave both constants unchanged.
TEST(BatchedEquivalenceTest, PredictionsBitwiseIdentical) {
  const auto records = FixedCorpus(10, 71);
  std::vector<double> raw;
  std::vector<double> mapped;
  for (const auto mp : {core::MessagePassingMode::kStaged,
                        core::MessagePassingMode::kTraditional}) {
    for (const auto feat : {core::FeaturizationMode::kFull,
                            core::FeaturizationMode::kPlacementOnly,
                            core::FeaturizationMode::kOperatorsOnly}) {
      for (const auto head :
           {core::HeadKind::kRegression, core::HeadKind::kClassification}) {
        core::CostModelConfig config = BaseConfig(mp, feat);
        config.head = head;
        const core::CostModel model(config);

        nn::Tape reused;
        core::ForwardPlan plan;
        for (const auto& record : records) {
          const core::JointGraph graph = core::BuildJointGraph(
              record.query, record.cluster, record.placement, feat);
          reused.Reset();
          raw.push_back(reused.value(model.Forward(reused, graph))(0, 0));
          ASSERT_EQ(raw.back(), OracleOutput(model, graph));
          mapped.push_back(model.Predict(graph));
          ASSERT_EQ(mapped.back(), OraclePredict(model, graph));
          // Arena and plan reuse must be invisible too: the same tape and
          // plan, refilled across differently-shaped graphs, give the same
          // value.
          ASSERT_EQ(model.Predict(graph, &reused), mapped.back());
          model.BuildForwardPlan(graph, plan);
          ASSERT_EQ(model.Predict(graph, &reused, &plan), mapped.back());
        }
      }
    }
  }
  const uint64_t raw_digest = BitsDigest(raw);
  const uint64_t mapped_digest = BitsDigest(mapped);
  EXPECT_EQ(raw_digest, 0xdcc866793131da93ull) << std::hex << raw_digest;
  EXPECT_EQ(mapped_digest, 0x5782b59739b9eff9ull) << std::hex << mapped_digest;
}

// Gradients at initialization and again after each of three training
// epochs, so the oracle is also checked at trained weights. Training runs
// the one forward through TrainLoop, so equal per-sample gradients are what
// keeps trained weights equal; no second, per-node training run is needed.
TEST(BatchedEquivalenceTest, GradientsBitwiseIdentical) {
  const auto records = FixedCorpus(6, 83);
  const auto samples = workload::ToTrainSamples(FixedCorpus(30, 91),
                                                sim::Metric::kThroughput);
  ASSERT_GE(samples.size(), 16u);
  for (const auto mp : {core::MessagePassingMode::kStaged,
                        core::MessagePassingMode::kTraditional}) {
    SCOPED_TRACE(mp == core::MessagePassingMode::kStaged ? "staged"
                                                         : "traditional");
    core::CostModel model(BaseConfig(mp, core::FeaturizationMode::kFull));
    ExpectGradientsMatchOracle(model, records);
    for (int epoch = 0; epoch < 3; ++epoch) {
      core::TrainConfig tc;
      tc.epochs = 1;
      tc.batch_size = 8;
      tc.seed = 300 + epoch;
      core::TrainModel(model, samples, {}, tc);
      ExpectGradientsMatchOracle(model, records);
    }
  }
}

// One forward over a batch graph of K placements returns one output per
// copy, each bitwise equal to that placement's own single-graph forward:
// every GEMM computes its rows independently and each copy's segment sums
// keep the single graph's child order.
TEST(BatchedEquivalenceTest, BatchGraphMatchesSingleGraphs) {
  const auto records = FixedCorpus(4, 113);
  for (const auto mp : {core::MessagePassingMode::kStaged,
                        core::MessagePassingMode::kTraditional}) {
    for (const auto feat : {core::FeaturizationMode::kFull,
                            core::FeaturizationMode::kPlacementOnly,
                            core::FeaturizationMode::kOperatorsOnly}) {
      const core::CostModel model(BaseConfig(mp, feat));
      for (const auto& record : records) {
        placement::EnumerationConfig enumeration;
        enumeration.num_candidates = 6;
        const auto candidates = placement::EnumerateCandidates(
            record.query, record.cluster, enumeration);
        ASSERT_GE(candidates.size(), 2u);
        std::vector<const sim::Placement*> placements;
        for (const sim::Placement& c : candidates) placements.push_back(&c);

        const core::JointGraph op_graph =
            core::BuildOperatorGraph(record.query);
        core::JointGraph batch;
        std::vector<int> host_hw;
        core::BuildBatchGraph(op_graph, placements,
                              record.cluster.num_nodes(), feat, batch,
                              host_hw);
        const int n = op_graph.num_operator_nodes;
        for (int v = 0; v < batch.num_operator_nodes; ++v) {
          batch.nodes[v].features = op_graph.nodes[v % n].features;
        }
        for (size_t i = 0; i < host_hw.size(); ++i) {
          batch.nodes[batch.num_operator_nodes + i].features =
              core::HostNodeFeatures(record.cluster, host_hw[i], feat);
        }
        nn::Tape tape;
        const nn::Matrix outputs = tape.value(model.Forward(tape, batch));
        ASSERT_EQ(outputs.rows(), static_cast<int>(candidates.size()));
        ASSERT_EQ(outputs.cols(), 1);
        for (size_t c = 0; c < candidates.size(); ++c) {
          const core::JointGraph single = core::BuildJointGraph(
              record.query, record.cluster, candidates[c], feat);
          nn::Tape single_tape;
          ASSERT_EQ(outputs(static_cast<int>(c), 0),
                    single_tape.value(model.Forward(single_tape, single))(0, 0))
              << "copy " << c;
        }
      }
    }
  }
}

TEST(BatchedEquivalenceTest, CachedScorerMatchesFreshGraphs) {
  // The PlacementScorer rewrites only the host tail (and, for the tuner,
  // single parallelism features) of cached graphs. Reusing one workspace
  // across many candidates must give exactly the predictions of featurizing
  // every candidate from scratch.
  const auto records = FixedCorpus(4, 107);

  core::CostModelConfig regression = BaseConfig(
      core::MessagePassingMode::kStaged, core::FeaturizationMode::kFull);
  regression.hidden_dim = 12;
  core::CostModelConfig classification = regression;
  classification.head = core::HeadKind::kClassification;
  core::CostModelConfig backpressure_config = classification;
  backpressure_config.seed = 21;
  // The backpressure filter shares the target's working graph and plan; a
  // second featurization mode exercises the per-mode graph caching.
  classification.featurization = core::FeaturizationMode::kPlacementOnly;
  const core::Ensemble target(regression, 2);
  const core::Ensemble success(classification, 2);
  const core::Ensemble backpressure(backpressure_config, 2);

  for (const auto& record : records) {
    const placement::PlacementScorer scorer(record.query, record.cluster,
                                            &target, &success, &backpressure);
    placement::PlacementScorer::Workspace ws = scorer.MakeWorkspace();

    placement::EnumerationConfig enumeration;
    enumeration.num_candidates = 12;
    const auto candidates = placement::EnumerateCandidates(
        record.query, record.cluster, enumeration);
    for (const sim::Placement& candidate : candidates) {
      const auto score = scorer.Score(ws, candidate);
      const core::JointGraph full = core::BuildJointGraph(
          record.query, record.cluster, candidate,
          core::FeaturizationMode::kFull);
      const core::JointGraph placement_only = core::BuildJointGraph(
          record.query, record.cluster, candidate,
          core::FeaturizationMode::kPlacementOnly);
      ASSERT_EQ(score.cost, target.Predict(full));
      ASSERT_EQ(score.cost, OracleMean(target, full));
      ASSERT_EQ(score.feasible, success.PredictBinary(placement_only) &&
                                    !backpressure.PredictBinary(full));
      ASSERT_EQ(score.feasible, OracleVote(success, placement_only) &&
                                    !OracleVote(backpressure, full));
    }

    // Parallelism rewrites: flipping one degree in the cached graphs equals
    // re-featurizing a query whose operator has that degree.
    dsps::QueryGraph modified = record.query;
    const int op = modified.num_operators() / 2;
    modified.mutable_op(op).parallelism = 4;
    scorer.SetParallelism(ws, op, 4);
    const core::JointGraph tuned = core::BuildJointGraph(
        modified, record.cluster, record.placement,
        core::FeaturizationMode::kFull);
    const double tuned_cost = scorer.PredictTarget(ws, record.placement);
    ASSERT_EQ(tuned_cost, target.Predict(tuned));
    ASSERT_EQ(tuned_cost, OracleMean(target, tuned));
    scorer.SetParallelism(ws, op, record.query.op(op).parallelism);
    const core::JointGraph original = core::BuildJointGraph(
        record.query, record.cluster, record.placement,
        core::FeaturizationMode::kFull);
    const double original_cost = scorer.PredictTarget(ws, record.placement);
    ASSERT_EQ(original_cost, target.Predict(original));
    ASSERT_EQ(original_cost, OracleMean(target, original));
  }
}

}  // namespace
}  // namespace costream
