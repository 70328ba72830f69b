#include "placement/rank_scorer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace costream::placement {

namespace {

// float row helpers: fixed, single-threaded accumulation orders keep the
// ranking deterministic for a given candidate batch.
inline void CopyRow(const float* src, float* dst, int cols) {
  for (int c = 0; c < cols; ++c) dst[c] = src[c];
}
inline void AddRow(const float* src, float* dst, int cols) {
  for (int c = 0; c < cols; ++c) dst[c] += src[c];
}

// dst = segment i of a plan CSR over the rows of `src`: the first child
// copied, the rest added in list order (Tape::SegmentSum's order).
inline void SumSegment(const nn::FloatMatrix& src,
                       const std::vector<int>& offsets,
                       const std::vector<int>& children, int i, float* dst) {
  const int cols = src.cols();
  CopyRow(src.row(children[offsets[i]]), dst, cols);
  for (int e = offsets[i] + 1; e < offsets[i + 1]; ++e) {
    AddRow(src.row(children[e]), dst, cols);
  }
}

}  // namespace

QuantizedEnsemble::QuantizedEnsemble(const core::Ensemble& ensemble,
                                     nn::QuantKind quant_kind,
                                     int max_members)
    : kind(quant_kind) {
  const int count = (max_members > 0 && max_members < ensemble.size())
                        ? max_members
                        : ensemble.size();
  members.reserve(count);
  for (int m = 0; m < count; ++m) {
    const core::CostModel& model = ensemble.member(m);
    QuantizedModel& qm = members.emplace_back();
    qm.encoders.reserve(core::kNumNodeKinds);
    qm.updates.reserve(core::kNumNodeKinds);
    for (int k = 0; k < core::kNumNodeKinds; ++k) {
      const core::NodeKind node_kind = static_cast<core::NodeKind>(k);
      qm.encoders.emplace_back(model.encoder_mlp(node_kind), quant_kind);
      qm.updates.emplace_back(model.update_mlp(node_kind), quant_kind);
    }
    qm.readout = nn::QuantizedMlp(model.readout_mlp(), quant_kind);
  }
}

bool QuantizedRanker::CanRank(const core::Ensemble& ensemble) {
  const core::CostModelConfig& config = ensemble.member(0).config();
  return config.message_passing == core::MessagePassingMode::kStaged &&
         config.head == core::HeadKind::kRegression &&
         config.featurization != core::FeaturizationMode::kOperatorsOnly;
}

QuantizedRanker::QuantizedRanker(const dsps::QueryGraph& query,
                                 const sim::Cluster& cluster,
                                 const core::Ensemble* target,
                                 const QuantizedEnsemble* weights,
                                 RankWorkspace* workspace)
    : planner_(target != nullptr ? &target->member(0) : nullptr),
      weights_(weights),
      num_ops_(query.num_operators()),
      num_hw_(cluster.num_nodes()),
      op_graph_(core::BuildOperatorGraph(query)),
      ws_(workspace != nullptr ? workspace : &own_workspace_) {
  COSTREAM_CHECK(target != nullptr && weights != nullptr);
  COSTREAM_CHECK(CanRank(*target));
  COSTREAM_CHECK(!weights->members.empty() &&
                 static_cast<int>(weights->members.size()) <= target->size());
  const core::CostModelConfig& config = planner_->config();
  hidden_ = config.hidden_dim;
  mode_ = config.featurization;
  EncodeHosts(cluster);
  EncodeQueryFeatures(op_graph_);
}

int QuantizedRanker::AddQuery(const dsps::QueryGraph& query) {
  COSTREAM_CHECK(query.num_operators() == num_ops_);
  EncodeQueryFeatures(core::BuildOperatorGraph(query));
  return static_cast<int>(num_queries_) - 1;
}

// Hardware-node encodings, shared by every query of the batch.
void QuantizedRanker::EncodeHosts(const sim::Cluster& cluster) {
  hw_enc_.resize(weights_->members.size());
  if (num_hw_ == 0) return;
  nn::FloatMatrix feats;
  feats.ResizeUninit(num_hw_, core::FeatureDim(core::NodeKind::kHost));
  for (int hw = 0; hw < num_hw_; ++hw) {
    const std::vector<double> f = core::HostNodeFeatures(cluster, hw, mode_);
    std::copy(f.begin(), f.end(), feats.row(hw));
  }
  const int host_kind = static_cast<int>(core::NodeKind::kHost);
  for (size_t m = 0; m < hw_enc_.size(); ++m) {
    weights_->members[m].encoders[host_kind].Apply(feats, hw_enc_[m],
                                                   ws_->scratch);
  }
}

void QuantizedRanker::EncodeQueryFeatures(const core::JointGraph& graph) {
  const int n = num_ops_;
  COSTREAM_CHECK(static_cast<int>(graph.nodes.size()) == n);
  std::vector<std::vector<int>> kind_rows(core::kNumNodeKinds);
  for (int v = 0; v < n; ++v) {
    // Same-structure contract: AddQuery callers group by a structure hash
    // over kinds and edges, so a mismatch here is an engine bug.
    COSTREAM_CHECK(graph.nodes[v].kind == op_graph_.nodes[v].kind);
    kind_rows[static_cast<int>(graph.nodes[v].kind)].push_back(v);
  }

  const int members = static_cast<int>(weights_->members.size());
  const int h = hidden_;
  op_enc_.resize(members);
  nn::FloatMatrix feats;
  nn::FloatMatrix enc;
  for (int m = 0; m < members; ++m) {
    nn::FloatMatrix& query_enc = op_enc_[m].emplace_back();
    query_enc.ResizeUninit(n, h);
    for (int k = 0; k < core::kNumNodeKinds; ++k) {
      const std::vector<int>& ops = kind_rows[k];
      if (ops.empty()) continue;
      const int dim = static_cast<int>(graph.nodes[ops[0]].features.size());
      feats.ResizeUninit(static_cast<int>(ops.size()), dim);
      for (size_t i = 0; i < ops.size(); ++i) {
        const std::vector<double>& f = graph.nodes[ops[i]].features;
        std::copy(f.begin(), f.end(), feats.row(static_cast<int>(i)));
      }
      weights_->members[m].encoders[k].Apply(feats, enc, ws_->scratch);
      for (size_t i = 0; i < ops.size(); ++i) {
        CopyRow(enc.row(static_cast<int>(i)), query_enc.row(ops[i]), h);
      }
    }
  }
  ++num_queries_;
}

void QuantizedRanker::RankBatch(const std::vector<Request>& requests,
                                std::vector<std::vector<double>>& costs) {
  costs.assign(requests.size(), {});
  RankWorkspace& ws = *ws_;

  // Every request's candidates become one copy each of a single batch
  // graph; the target's plan for it drives every GEMM below.
  ws.pair_query.clear();
  ws.placements.clear();
  for (const Request& request : requests) {
    COSTREAM_CHECK(request.candidates != nullptr);
    COSTREAM_CHECK(request.query_slot >= 0 &&
                   request.query_slot < static_cast<int>(num_queries_));
    for (const sim::Placement& placement : *request.candidates) {
      ws.pair_query.push_back(request.query_slot);
      ws.placements.push_back(&placement);
    }
  }
  const int num_pairs = static_cast<int>(ws.placements.size());
  if (num_pairs == 0) return;
  core::BuildBatchGraph(op_graph_, ws.placements, num_hw_, mode_, ws.graph,
                        ws.host_hw);
  planner_->BuildForwardPlan(ws.graph, ws.plan);
  const core::ForwardPlan& plan = ws.plan;

  std::vector<double> flat_costs(num_pairs, 0.0);
  const int members = static_cast<int>(weights_->members.size());
  const int n = num_ops_;
  const int h = hidden_;
  const int op_rows = num_pairs * n;
  for (int m = 0; m < members; ++m) {
    const QuantizedModel& model = weights_->members[m];

    // Seed the state rows from the cached encodings: operators per query
    // slot, hosts per hardware node.
    ws.states.ResizeUninit(static_cast<int>(ws.graph.nodes.size()), h);
    for (int p = 0; p < num_pairs; ++p) {
      std::copy_n(op_enc_[m][ws.pair_query[p]].data(),
                  static_cast<size_t>(n) * h, ws.states.row(p * n));
    }
    for (size_t i = 0; i < ws.host_hw.size(); ++i) {
      CopyRow(hw_enc_[m].row(ws.host_hw[i]),
              ws.states.row(op_rows + static_cast<int>(i)), h);
    }

    // Each slice builds its (message | own) rows straight from the stage's
    // input states and runs as one GEMM; every slice reads the stage input
    // before any result is scattered back, as on the tape.
    for (const core::ForwardPlan::Stage& stage : plan.stages) {
      if (ws.slice_out.size() < stage.slices.size()) {
        ws.slice_out.resize(stage.slices.size());
      }
      for (int iter = 0; iter < stage.repeat; ++iter) {
        for (size_t s = 0; s < stage.slices.size(); ++s) {
          const core::ForwardPlan::UpdateSlice& slice = stage.slices[s];
          const int rows = static_cast<int>(slice.targets.size());
          ws.cat.ResizeUninit(rows, 2 * h);
          for (int j = 0; j < rows; ++j) {
            const int i = slice.pos.empty() ? j : slice.pos[j];
            float* dst = ws.cat.row(j);
            SumSegment(ws.states, stage.offsets, stage.children, i, dst);
            CopyRow(ws.states.row(stage.rows[i]), dst + h, h);
          }
          model.updates[slice.kind].Apply(ws.cat, ws.slice_out[s],
                                          ws.scratch);
        }
        for (size_t s = 0; s < stage.slices.size(); ++s) {
          const std::vector<int>& targets = stage.slices[s].targets;
          for (size_t j = 0; j < targets.size(); ++j) {
            CopyRow(ws.slice_out[s].row(static_cast<int>(j)),
                    ws.states.row(targets[j]), h);
          }
        }
      }
    }

    // Readout: one segment sum per copy, one readout GEMM for the batch.
    ws.cat.ResizeUninit(num_pairs, h);
    for (int p = 0; p < num_pairs; ++p) {
      SumSegment(ws.states, plan.readout_offsets, plan.readout_children, p,
                 ws.cat.row(p));
    }
    // The states are dead once summed, so their buffer takes the output.
    model.readout.Apply(ws.cat, ws.states, ws.scratch);
    for (int p = 0; p < num_pairs; ++p) {
      const double log_value =
          std::clamp(static_cast<double>(ws.states.row(p)[0]), -10.0, 30.0);
      flat_costs[p] += std::max(std::expm1(log_value), 0.0);
    }
  }

  int next = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    const int count = static_cast<int>(requests[r].candidates->size());
    costs[r].assign(count, 0.0);
    for (int c = 0; c < count; ++c) {
      costs[r][c] = flat_costs[next++] / members;
    }
  }
}

}  // namespace costream::placement
