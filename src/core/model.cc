#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/serialize.h"

namespace costream::core {

namespace {

// Flattens `lists` restricted to `rows` into CSR form for Tape::SegmentSum.
void BuildCsr(const std::vector<int>& rows,
              const std::vector<std::vector<int>>& lists,
              std::vector<int>& offsets, std::vector<int>& children) {
  offsets.assign(rows.size() + 1, 0);
  int total = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    total += static_cast<int>(lists[rows[i]].size());
    offsets[i + 1] = total;
  }
  children.clear();
  children.reserve(total);
  for (int r : rows) {
    children.insert(children.end(), lists[r].begin(), lists[r].end());
  }
}

// Incoming dataflow neighbours per operator, in dataflow-edge order. Like
// the helpers below it fills its output in place, so per-candidate plan
// rebuilds reuse vector capacity.
void InListsInto(const JointGraph& graph,
                 std::vector<std::vector<int>>& in_lists) {
  in_lists.resize(graph.num_operator_nodes);
  for (auto& list : in_lists) list.clear();
  for (const auto& [from, to] : graph.dataflow_edges) {
    in_lists[to].push_back(from);
  }
}

// Topological waves of the dataflow stage: wave L holds the operators whose
// longest upstream chain has length L (wave 0 = sources, never updated).
// Every input of a wave-L node was updated in an earlier wave, so all nodes
// of one wave can be processed as a single batch; iterating waves in level
// order yields exactly the same values as a topological-order walk. Within
// a wave, nodes keep their topological-order position.
void DataflowWavesInto(const JointGraph& graph,
                       const std::vector<std::vector<int>>& in_lists,
                       std::vector<int>& level,
                       std::vector<std::vector<int>>& waves) {
  level.assign(graph.num_operator_nodes, 0);
  int max_level = 0;
  for (int v : graph.topo_order) {
    int lv = 0;
    for (int u : in_lists[v]) lv = std::max(lv, level[u] + 1);
    level[v] = lv;
    max_level = std::max(max_level, lv);
  }
  waves.resize(max_level + 1);
  for (auto& wave : waves) wave.clear();
  for (int v : graph.topo_order) waves[level[v]].push_back(v);
}

// Undirected neighbourhood over data-flow and placement edges (traditional
// message passing), neighbours per node in edge-scan order.
void NeighborListsInto(const JointGraph& graph,
                       std::vector<std::vector<int>>& neighbors) {
  neighbors.resize(graph.nodes.size());
  for (auto& list : neighbors) list.clear();
  for (const auto& [from, to] : graph.dataflow_edges) {
    neighbors[from].push_back(to);
    neighbors[to].push_back(from);
  }
  for (const auto& [op, host] : graph.placement_edges) {
    neighbors[op].push_back(host);
    neighbors[host].push_back(op);
  }
}

// Partitions `rows` by node kind into update slices (kinds ascending, rows in
// `rows` order within a kind), reusing the slice vectors' capacity.
void FillSlices(const JointGraph& graph, const std::vector<int>& rows,
                std::vector<ForwardPlan::UpdateSlice>& slices) {
  size_t used = 0;
  for (int k = 0; k < kNumNodeKinds; ++k) {
    bool any = false;
    for (int r : rows) {
      if (static_cast<int>(graph.nodes[r].kind) == k) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    if (slices.size() <= used) slices.emplace_back();
    ForwardPlan::UpdateSlice& slice = slices[used++];
    slice.kind = k;
    slice.pos.clear();
    slice.targets.clear();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (static_cast<int>(graph.nodes[rows[i]].kind) == k) {
        slice.pos.push_back(static_cast<int>(i));
        slice.targets.push_back(rows[i]);
      }
    }
    // A single-kind batch feeds the whole cat matrix to the update MLP with
    // no gather; the empty pos encodes that.
    if (slice.pos.size() == rows.size()) slice.pos.clear();
  }
  slices.resize(used);
}

}  // namespace

CostModel::CostModel(const CostModelConfig& config) : config_(config) {
  nn::Rng rng(config.seed);
  const int h = config.hidden_dim;
  encoders_.reserve(kNumNodeKinds);
  updates_.reserve(kNumNodeKinds);
  for (int k = 0; k < kNumNodeKinds; ++k) {
    const NodeKind kind = static_cast<NodeKind>(k);
    encoders_.emplace_back(std::vector<int>{FeatureDim(kind), h, h}, rng,
                           nn::Activation::kRelu);
    updates_.emplace_back(std::vector<int>{2 * h, h, h}, rng,
                          nn::Activation::kRelu);
  }
  readout_.emplace_back(std::vector<int>{h, h, 1}, rng, nn::Activation::kRelu);
  // Collect parameter pointers only after every MLP is in place (the vectors
  // must not reallocate afterwards).
  for (nn::Mlp& m : encoders_) m.CollectParameters(params_);
  for (nn::Mlp& m : updates_) m.CollectParameters(params_);
  readout_[0].CollectParameters(params_);
}

void CostModel::BuildForwardPlan(const JointGraph& graph,
                                 ForwardPlan& plan) const {
  const int num_nodes = static_cast<int>(graph.nodes.size());
  const int num_ops = graph.num_operator_nodes;

  // Encoder batches: rows per kind, ascending within a kind.
  plan.encode_rows.resize(kNumNodeKinds);
  for (auto& rows : plan.encode_rows) rows.clear();
  for (int v = 0; v < num_nodes; ++v) {
    plan.encode_rows[static_cast<int>(graph.nodes[v].kind)].push_back(v);
  }

  size_t num_stages = 0;
  const auto next_stage = [&]() -> ForwardPlan::Stage& {
    if (plan.stages.size() <= num_stages) plan.stages.emplace_back();
    ForwardPlan::Stage& stage = plan.stages[num_stages++];
    stage.gather = false;
    stage.repeat = 1;
    stage.gather_rows.clear();
    stage.offsets.clear();
    stage.children.clear();
    stage.rows.clear();
    return stage;
  };

  if (config_.message_passing == MessagePassingMode::kStaged) {
    if (graph.num_host_nodes > 0) {
      // Stage 1 (OPS -> HW): segment-sum the operator states into their
      // host, operators per host in placement-edge order (AddN semantics).
      ForwardPlan::Stage& s1 = next_stage();
      s1.rows.resize(graph.num_host_nodes);
      for (int i = 0; i < graph.num_host_nodes; ++i) s1.rows[i] = num_ops + i;
      s1.offsets.assign(graph.num_host_nodes + 1, 0);
      for (const auto& [op, host] : graph.placement_edges) {
        ++s1.offsets[host - num_ops + 1];
      }
      for (int i = 0; i < graph.num_host_nodes; ++i) {
        s1.offsets[i + 1] += s1.offsets[i];
      }
      s1.children.resize(graph.placement_edges.size());
      plan.cursor_scratch.assign(s1.offsets.begin(), s1.offsets.end() - 1);
      for (const auto& [op, host] : graph.placement_edges) {
        s1.children[plan.cursor_scratch[host - num_ops]++] = op;
      }
      FillSlices(graph, s1.rows, s1.slices);
      // Stage 2 (HW -> OPS): each operator reads its (single) host state.
      ForwardPlan::Stage& s2 = next_stage();
      s2.gather = true;
      s2.gather_rows.assign(num_ops, -1);
      for (const auto& [op, host] : graph.placement_edges) {
        s2.gather_rows[op] = host;
      }
      s2.rows.resize(num_ops);
      for (int op = 0; op < num_ops; ++op) {
        COSTREAM_CHECK(s2.gather_rows[op] >= 0);
        s2.rows[op] = op;
      }
      FillSlices(graph, s2.rows, s2.slices);
    }
    // Stage 3 (SOURCES -> OPS): one batch per topological wave.
    InListsInto(graph, plan.adjacency_scratch);
    DataflowWavesInto(graph, plan.adjacency_scratch, plan.level_scratch,
                      plan.wave_scratch);
    for (size_t level = 1; level < plan.wave_scratch.size(); ++level) {
      ForwardPlan::Stage& stage = next_stage();
      const std::vector<int>& wave = plan.wave_scratch[level];
      stage.rows.assign(wave.begin(), wave.end());
      BuildCsr(wave, plan.adjacency_scratch, stage.offsets, stage.children);
      FillSlices(graph, stage.rows, stage.slices);
    }
  } else {
    // Traditional: one stage over every connected node, iterated.
    NeighborListsInto(graph, plan.adjacency_scratch);
    ForwardPlan::Stage& stage = next_stage();
    stage.repeat = config_.traditional_iterations;
    for (int v = 0; v < num_nodes; ++v) {
      if (!plan.adjacency_scratch[v].empty()) stage.rows.push_back(v);
    }
    BuildCsr(stage.rows, plan.adjacency_scratch, stage.offsets,
             stage.children);
    FillSlices(graph, stage.rows, stage.slices);
  }
  plan.stages.resize(num_stages);
  plan.ready = true;
}

nn::Var CostModel::Forward(nn::Tape& tape, const JointGraph& graph,
                           const ForwardPlan* plan,
                           const nn::Matrix* encoded) const {
  COSTREAM_CHECK(!graph.nodes.empty());
  if (plan == nullptr) {
    // One plan per thread, rebuilt per graph but reusing capacity: callers
    // without a long-lived plan (training loops) still avoid reallocating
    // the index vectors every forward.
    static thread_local ForwardPlan local_plan;
    BuildForwardPlan(graph, local_plan);
    plan = &local_plan;
  }
  COSTREAM_DCHECK(plan->ready);
  nn::Var S = encoded != nullptr ? tape.Input(*encoded)
                                 : EncodeBatched(tape, graph, *plan);
  for (const ForwardPlan::Stage& stage : plan->stages) {
    for (int iter = 0; iter < stage.repeat; ++iter) {
      nn::Var msg = stage.gather
                        ? tape.RowGather(S, stage.gather_rows)
                        : tape.SegmentSum(S, stage.offsets, stage.children);
      nn::Var own = tape.RowGather(S, stage.rows);
      nn::Var cat = tape.ConcatCols(msg, own);
      for (const ForwardPlan::UpdateSlice& slice : stage.slices) {
        const nn::Var ck =
            slice.pos.empty() ? cat : tape.RowGather(cat, slice.pos);
        nn::Var uk = updates_[slice.kind].Apply(tape, ck);
        S = tape.RowScatter(S, uk, slice.targets);
      }
    }
  }
  nn::Var total = tape.SumRows(S);
  return readout_[0].Apply(tape, total);
}

nn::Var CostModel::EncodeBatched(nn::Tape& tape, const JointGraph& graph,
                                 const ForwardPlan& plan) const {
  const int num_nodes = static_cast<int>(graph.nodes.size());
  const int h = config_.hidden_dim;
  nn::Var S = tape.InputZero(num_nodes, h);
  for (int k = 0; k < kNumNodeKinds; ++k) {
    const std::vector<int>& rows = plan.encode_rows[k];
    if (rows.empty()) continue;
    const int dim = FeatureDim(static_cast<NodeKind>(k));
    nn::Var x = tape.InputZero(static_cast<int>(rows.size()), dim);
    nn::Matrix& xv = tape.MutableInputValue(x);
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::vector<double>& f = graph.nodes[rows[i]].features;
      COSTREAM_CHECK(static_cast<int>(f.size()) == dim);
      double* d = xv.row(static_cast<int>(i));
      for (int c = 0; c < dim; ++c) d[c] = f[c];
    }
    nn::Var hk = encoders_[k].Apply(tape, x);
    S = tape.RowScatter(S, hk, rows);
  }
  return S;
}

void CostModel::EncodeFeatures(
    NodeKind kind, const std::vector<const std::vector<double>*>& features,
    nn::Tape& tape, nn::Matrix& out) const {
  const int n = static_cast<int>(features.size());
  const int dim = FeatureDim(kind);
  tape.Reset();
  nn::Var x = tape.InputZero(n, dim);
  nn::Matrix& xv = tape.MutableInputValue(x);
  for (int i = 0; i < n; ++i) {
    const std::vector<double>& f = *features[i];
    COSTREAM_CHECK(static_cast<int>(f.size()) == dim);
    double* d = xv.row(i);
    for (int c = 0; c < dim; ++c) d[c] = f[c];
  }
  const nn::Var hk = encoders_[static_cast<int>(kind)].Apply(tape, x);
  out.CopyFrom(tape.value(hk));
}

double CostModel::Predict(const JointGraph& graph, nn::Tape* tape,
                          const ForwardPlan* plan,
                          const nn::Matrix* encoded) const {
  nn::Tape local;
  nn::Tape& t = tape != nullptr ? *tape : local;
  t.Reset();
  const double z = t.value(Forward(t, graph, plan, encoded))(0, 0);
  if (config_.head == HeadKind::kRegression) {
    return std::max(std::expm1(std::clamp(z, -10.0, 30.0)), 0.0);
  }
  return z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                  : std::exp(z) / (1.0 + std::exp(z));
}

std::vector<nn::Matrix> CostModel::SnapshotParameters() const {
  std::vector<nn::Matrix> snapshot;
  snapshot.reserve(params_.size());
  for (const nn::Parameter* p : params_) snapshot.push_back(p->value);
  return snapshot;
}

void CostModel::RestoreParameters(const std::vector<nn::Matrix>& snapshot) {
  COSTREAM_CHECK(snapshot.size() == params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    COSTREAM_CHECK(snapshot[i].SameShape(params_[i]->value));
    params_[i]->value = snapshot[i];
  }
}

std::vector<std::vector<int>> CostModel::EncoderDims() const {
  std::vector<std::vector<int>> dims;
  dims.reserve(encoders_.size());
  for (const nn::Mlp& mlp : encoders_) dims.push_back(mlp.dims());
  return dims;
}

std::vector<std::vector<int>> CostModel::UpdateDims() const {
  std::vector<std::vector<int>> dims;
  dims.reserve(updates_.size());
  for (const nn::Mlp& mlp : updates_) dims.push_back(mlp.dims());
  return dims;
}

std::vector<int> CostModel::ReadoutDims() const { return readout_[0].dims(); }

bool CostModel::Save(const std::string& path) const {
  return nn::SaveParametersToFile(path, params_);
}

bool CostModel::Load(const std::string& path) {
  return nn::LoadParametersFromFile(path, params_);
}

}  // namespace costream::core
