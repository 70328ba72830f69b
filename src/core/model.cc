#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/serialize.h"

namespace costream::core {

namespace {

// Fills a CSR adjacency over `num_rows` rows from the (row, child) pairs
// `scan` passes to its callback, children per row in scan order. `scan` runs
// twice (count, then fill); `cursor` is scratch. Like the helpers below it
// fills its outputs in place, so per-candidate plan rebuilds reuse capacity.
template <typename Scan>
void CsrInto(int num_rows, const Scan& scan, std::vector<int>& offsets,
             std::vector<int>& children, std::vector<int>& cursor) {
  offsets.assign(num_rows + 1, 0);
  scan([&](int row, int) { ++offsets[row + 1]; });
  for (int r = 0; r < num_rows; ++r) offsets[r + 1] += offsets[r];
  children.resize(offsets[num_rows]);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  scan([&](int row, int child) { children[cursor[row]++] = child; });
}

// Restricts the adjacency CSR (adj_offsets, adj_children) to `rows`.
void SubCsr(const std::vector<int>& rows, const std::vector<int>& adj_offsets,
            const std::vector<int>& adj_children, std::vector<int>& offsets,
            std::vector<int>& children) {
  offsets.resize(rows.size() + 1);
  offsets[0] = 0;
  children.clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int e = adj_offsets[rows[i]]; e < adj_offsets[rows[i] + 1]; ++e) {
      children.push_back(adj_children[e]);
    }
    offsets[i + 1] = static_cast<int>(children.size());
  }
}

// Topological waves of the dataflow stage: wave L holds the operators whose
// longest upstream chain has length L (wave 0 = sources, never updated).
// Every input of a wave-L node was updated in an earlier wave, so all nodes
// of one wave can be processed as a single batch; iterating waves in level
// order yields exactly the same values as a topological-order walk. Within
// a wave, nodes keep their topological-order position. The in-lists come as
// a CSR over the operators.
void DataflowWavesInto(const JointGraph& graph,
                       const std::vector<int>& in_offsets,
                       const std::vector<int>& in_children,
                       std::vector<int>& level,
                       std::vector<std::vector<int>>& waves) {
  level.assign(graph.num_operator_nodes, 0);
  int max_level = 0;
  for (int v : graph.topo_order) {
    int lv = 0;
    for (int e = in_offsets[v]; e < in_offsets[v + 1]; ++e) {
      lv = std::max(lv, level[in_children[e]] + 1);
    }
    level[v] = lv;
    max_level = std::max(max_level, lv);
  }
  waves.resize(max_level + 1);
  for (auto& wave : waves) wave.clear();
  for (int v : graph.topo_order) waves[level[v]].push_back(v);
}

// Partitions `rows` by node kind into update slices (kinds ascending, rows in
// `rows` order within a kind), reusing the slice vectors' capacity.
void FillSlices(const JointGraph& graph, const std::vector<int>& rows,
                std::vector<ForwardPlan::UpdateSlice>& slices) {
  int slot[kNumNodeKinds] = {};
  for (int r : rows) slot[static_cast<int>(graph.nodes[r].kind)] = 1;
  size_t used = 0;
  for (int k = 0; k < kNumNodeKinds; ++k) {
    if (slot[k] == 0) continue;
    if (slices.size() <= used) slices.emplace_back();
    slices[used].kind = k;
    slices[used].pos.clear();
    slices[used].targets.clear();
    slot[k] = static_cast<int>(used++);
  }
  slices.resize(used);
  for (size_t i = 0; i < rows.size(); ++i) {
    ForwardPlan::UpdateSlice& slice =
        slices[slot[static_cast<int>(graph.nodes[rows[i]].kind)]];
    slice.pos.push_back(static_cast<int>(i));
    slice.targets.push_back(rows[i]);
  }
  // A single-kind batch feeds the whole cat matrix to the update MLP with no
  // gather; the empty pos encodes that.
  if (used == 1) slices[0].pos.clear();
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
    stage.repeat = 1;
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
      CsrInto(
          graph.num_host_nodes,
          [&](const auto& add) {
            for (const auto& [op, host] : graph.placement_edges) {
              add(host - num_ops, op);
            }
          },
          s1.offsets, s1.children, plan.cursor_scratch);
      FillSlices(graph, s1.rows, s1.slices);
      // Stage 2 (HW -> OPS): each operator's one message is its host state.
      ForwardPlan::Stage& s2 = next_stage();
      CsrInto(
          num_ops,
          [&](const auto& add) {
            for (const auto& [op, host] : graph.placement_edges) add(op, host);
          },
          s2.offsets, s2.children, plan.cursor_scratch);
      s2.rows.resize(num_ops);
      for (int op = 0; op < num_ops; ++op) {
        COSTREAM_CHECK(s2.offsets[op + 1] == op + 1);  // exactly one host
        s2.rows[op] = op;
      }
      FillSlices(graph, s2.rows, s2.slices);
    }
    // Stage 3 (SOURCES -> OPS): one batch per topological wave, messages
    // from each operator's incoming dataflow neighbours in edge order.
    CsrInto(
        num_ops,
        [&](const auto& add) {
          for (const auto& [from, to] : graph.dataflow_edges) add(to, from);
        },
        plan.adjacency_offsets, plan.adjacency_children, plan.cursor_scratch);
    DataflowWavesInto(graph, plan.adjacency_offsets, plan.adjacency_children,
                      plan.level_scratch, plan.wave_scratch);
    for (size_t level = 1; level < plan.wave_scratch.size(); ++level) {
      ForwardPlan::Stage& stage = next_stage();
      const std::vector<int>& wave = plan.wave_scratch[level];
      stage.rows.assign(wave.begin(), wave.end());
      SubCsr(wave, plan.adjacency_offsets, plan.adjacency_children,
             stage.offsets, stage.children);
      FillSlices(graph, stage.rows, stage.slices);
    }
  } else {
    // Traditional: one stage over every connected node, iterated; the
    // undirected neighbourhood over dataflow and placement edges, neighbours
    // per node in edge-scan order.
    CsrInto(
        num_nodes,
        [&](const auto& add) {
          for (const auto& [from, to] : graph.dataflow_edges) {
            add(from, to);
            add(to, from);
          }
          for (const auto& [op, host] : graph.placement_edges) {
            add(op, host);
            add(host, op);
          }
        },
        plan.adjacency_offsets, plan.adjacency_children, plan.cursor_scratch);
    ForwardPlan::Stage& stage = next_stage();
    stage.repeat = config_.traditional_iterations;
    for (int v = 0; v < num_nodes; ++v) {
      if (plan.adjacency_offsets[v + 1] > plan.adjacency_offsets[v]) {
        stage.rows.push_back(v);
      }
    }
    SubCsr(stage.rows, plan.adjacency_offsets, plan.adjacency_children,
           stage.offsets, stage.children);
    FillSlices(graph, stage.rows, stage.slices);
  }
  plan.stages.resize(num_stages);

  // Readout segments, one per copy: its operator rows ascending, then its
  // host rows. Hosts follow all operators copy by copy (see JointGraph), so
  // copy c's hosts end at the highest host its operators use and the last
  // copy's at the final node.
  const int copies = graph.copies;
  COSTREAM_CHECK(copies >= 1 && num_ops % copies == 0);
  const int copy_ops = num_ops / copies;
  plan.cursor_scratch.assign(copies, num_ops);  // host end per copy
  for (const auto& [op, host] : graph.placement_edges) {
    int& end = plan.cursor_scratch[op / copy_ops];
    end = std::max(end, host + 1);
  }
  plan.cursor_scratch[copies - 1] = num_nodes;
  plan.readout_offsets.assign(1, 0);
  plan.readout_children.clear();
  for (int c = 0, host = num_ops; c < copies; ++c) {
    for (int v = c * copy_ops; v < (c + 1) * copy_ops; ++v) {
      plan.readout_children.push_back(v);
    }
    for (; host < plan.cursor_scratch[c]; ++host) {
      plan.readout_children.push_back(host);
    }
    plan.readout_offsets.push_back(
        static_cast<int>(plan.readout_children.size()));
  }
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
      nn::Var msg = tape.SegmentSum(S, stage.offsets, stage.children);
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
  nn::Var totals =
      tape.SegmentSum(S, plan->readout_offsets, plan->readout_children);
  return readout_[0].Apply(tape, totals);
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
