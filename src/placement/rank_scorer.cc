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
                                 const QuantizedEnsemble* weights)
    : weights_(weights),
      num_ops_(query.num_operators()),
      num_hw_(cluster.num_nodes()) {
  COSTREAM_CHECK(target != nullptr && weights != nullptr);
  COSTREAM_CHECK(CanRank(*target));
  COSTREAM_CHECK(!weights->members.empty() &&
                 static_cast<int>(weights->members.size()) <= target->size());
  const core::CostModelConfig& config = target->member(0).config();
  hidden_ = config.hidden_dim;
  mode_ = config.featurization;
  const core::JointGraph graph = core::BuildOperatorGraph(query);
  target->member(0).BuildForwardPlan(graph, plan_);
  EncodeHosts(cluster);
  EncodeQueryFeatures(graph);
}

int QuantizedRanker::AddQuery(const dsps::QueryGraph& query) {
  COSTREAM_CHECK(query.num_operators() == num_ops_);
  EncodeQueryFeatures(core::BuildOperatorGraph(query));
  return static_cast<int>(num_queries_) - 1;
}

// Hardware-node encodings, shared by every query of the batch.
void QuantizedRanker::EncodeHosts(const sim::Cluster& cluster) {
  const int members = static_cast<int>(weights_->members.size());
  hw_enc_.resize(members);
  if (num_hw_ > 0) {
    const int host_kind = static_cast<int>(core::NodeKind::kHost);
    nn::FloatMatrix feats;
    std::vector<double> host_feats = core::HostNodeFeatures(cluster, 0, mode_);
    const int dim = static_cast<int>(host_feats.size());
    feats.ResizeUninit(num_hw_, dim);
    for (int hw = 0; hw < num_hw_; ++hw) {
      host_feats = core::HostNodeFeatures(cluster, hw, mode_);
      float* row = feats.row(hw);
      for (int c = 0; c < dim; ++c) row[c] = static_cast<float>(host_feats[c]);
    }
    for (int m = 0; m < members; ++m) {
      weights_->members[m].encoders[host_kind].Apply(feats, hw_enc_[m],
                                                     scratch_);
    }
  }
}

void QuantizedRanker::EncodeQueryFeatures(const core::JointGraph& graph) {
  const int n = num_ops_;
  COSTREAM_CHECK(static_cast<int>(graph.nodes.size()) == n);
  for (int k = 0; k < core::kNumNodeKinds; ++k) {
    for (int v : plan_.encode_rows[k]) {
      // Same-structure contract: AddQuery callers group by a structure hash
      // over kinds and edges, so a mismatch here is an engine bug.
      COSTREAM_CHECK(static_cast<int>(graph.nodes[v].kind) == k);
    }
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
      const std::vector<int>& ops = plan_.encode_rows[k];
      if (ops.empty()) continue;
      const int dim = static_cast<int>(graph.nodes[ops[0]].features.size());
      feats.ResizeUninit(static_cast<int>(ops.size()), dim);
      for (size_t i = 0; i < ops.size(); ++i) {
        const std::vector<double>& f = graph.nodes[ops[i]].features;
        float* row = feats.row(static_cast<int>(i));
        for (int c = 0; c < dim; ++c) row[c] = static_cast<float>(f[c]);
      }
      weights_->members[m].encoders[k].Apply(feats, enc, scratch_);
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

  // Flatten every request's candidates into one (query, placement) pair
  // list; all stage GEMMs below run over the rows of every pair at once.
  pair_query_.clear();
  pair_placement_.clear();
  for (const Request& request : requests) {
    COSTREAM_CHECK(request.candidates != nullptr);
    COSTREAM_CHECK(request.query_slot >= 0 &&
                   request.query_slot < static_cast<int>(num_queries_));
    for (const sim::Placement& placement : *request.candidates) {
      pair_query_.push_back(request.query_slot);
      pair_placement_.push_back(&placement);
    }
  }
  const int num_pairs = static_cast<int>(pair_query_.size());
  if (num_pairs == 0) {
    for (size_t r = 0; r < requests.size(); ++r) {
      costs[r].assign(requests[r].candidates->size(), 0.0);
    }
    return;
  }
  const int n = num_ops_;
  const int h = hidden_;
  const int cat_cols = 2 * h;

  // Host rows of the whole batch: pair p's distinct hardware nodes in
  // first-use order (the same order Bind/BuildJointGraph assigns), stacked
  // pair-major so every pair's stage-1 rows land in one GEMM.
  op_host_row_.resize(static_cast<size_t>(num_pairs) * n);
  host_hw_.clear();
  host_off_.assign(num_pairs + 1, 0);
  for (int p = 0; p < num_pairs; ++p) {
    const sim::Placement& placement = *pair_placement_[p];
    COSTREAM_CHECK(static_cast<int>(placement.size()) == n);
    host_off_[p] = static_cast<int>(host_hw_.size());
    hw_row_.assign(num_hw_, -1);
    for (int op = 0; op < n; ++op) {
      const int hw = placement[op];
      COSTREAM_DCHECK(hw >= 0 && hw < num_hw_);
      if (hw_row_[hw] < 0) {
        hw_row_[hw] = static_cast<int>(host_hw_.size());
        host_hw_.push_back(hw);
      }
      op_host_row_[static_cast<size_t>(p) * n + op] = hw_row_[hw];
    }
  }
  host_off_[num_pairs] = static_cast<int>(host_hw_.size());
  const int host_rows = static_cast<int>(host_hw_.size());

  std::vector<double> flat_costs(num_pairs, 0.0);
  const int members = static_cast<int>(weights_->members.size());
  for (int m = 0; m < members; ++m) {
    const QuantizedModel& model = weights_->members[m];
    const std::vector<nn::FloatMatrix>& enc = op_enc_[m];

    // States start as the shared encoder outputs, replicated per pair.
    op_states_.ResizeUninit(num_pairs * n, h);
    for (int p = 0; p < num_pairs; ++p) {
      std::copy_n(enc[pair_query_[p]].data(), static_cast<size_t>(n) * h,
                  op_states_.row(p * n));
    }

    // Stage 1 (OPS -> HW): per host row, sum the encoder states of the
    // operators placed there (ascending op order, like the edge list).
    msg_.ResizeZero(host_rows, h);
    for (int p = 0; p < num_pairs; ++p) {
      const nn::FloatMatrix& query_enc = enc[pair_query_[p]];
      for (int op = 0; op < n; ++op) {
        AddRow(query_enc.row(op),
               msg_.row(op_host_row_[static_cast<size_t>(p) * n + op]), h);
      }
    }
    cat_.ResizeUninit(host_rows, cat_cols);
    for (int r = 0; r < host_rows; ++r) {
      float* row = cat_.row(r);
      CopyRow(msg_.row(r), row, h);
      CopyRow(hw_enc_[m].row(host_hw_[r]), row + h, h);
    }
    const int host_kind = static_cast<int>(core::NodeKind::kHost);
    model.updates[host_kind].Apply(cat_, host_states_, scratch_);

    // Stage 2 (HW -> OPS): one GEMM per kind over every pair's rows; the
    // own state is still the shared encoder output.
    for (int k = 0; k < core::kNumNodeKinds; ++k) {
      const std::vector<int>& ops = plan_.encode_rows[k];
      if (ops.empty()) continue;
      const int rows = num_pairs * static_cast<int>(ops.size());
      cat_.ResizeUninit(rows, cat_cols);
      int row = 0;
      for (int p = 0; p < num_pairs; ++p) {
        const nn::FloatMatrix& query_enc = enc[pair_query_[p]];
        for (int op : ops) {
          float* dst = cat_.row(row++);
          CopyRow(host_states_.row(
                      op_host_row_[static_cast<size_t>(p) * n + op]),
                  dst, h);
          CopyRow(query_enc.row(op), dst + h, h);
        }
      }
      model.updates[k].Apply(cat_, out_, scratch_);
      row = 0;
      for (int p = 0; p < num_pairs; ++p) {
        for (int op : ops) {
          CopyRow(out_.row(row++), op_states_.row(p * n + op), h);
        }
      }
    }

    // Stage 3 (SOURCES -> OPS): the plan's stages, wave by wave; each slice
    // is one kind of a wave and runs as one GEMM over all pairs. A wave's
    // inputs sit in strictly earlier waves, so reading op_states_ while
    // scattering into the wave is safe.
    for (const core::ForwardPlan::Stage& stage : plan_.stages) {
      for (const core::ForwardPlan::UpdateSlice& slice : stage.slices) {
        const std::vector<int>& ops = slice.targets;
        const int rows = num_pairs * static_cast<int>(ops.size());
        cat_.ResizeUninit(rows, cat_cols);
        int row = 0;
        for (int p = 0; p < num_pairs; ++p) {
          const int base = p * n;
          for (size_t j = 0; j < ops.size(); ++j) {
            // The op's position in the wave indexes its in-edge segment.
            const int i =
                slice.pos.empty() ? static_cast<int>(j) : slice.pos[j];
            float* dst = cat_.row(row++);
            for (int c = 0; c < h; ++c) dst[c] = 0.0f;
            for (int e = stage.offsets[i]; e < stage.offsets[i + 1]; ++e) {
              AddRow(op_states_.row(base + stage.children[e]), dst, h);
            }
            CopyRow(op_states_.row(base + ops[j]), dst + h, h);
          }
        }
        model.updates[slice.kind].Apply(cat_, out_, scratch_);
        row = 0;
        for (int p = 0; p < num_pairs; ++p) {
          for (int v : ops) {
            CopyRow(out_.row(row++), op_states_.row(p * n + v), h);
          }
        }
      }
    }

    // Readout: sum every node state per pair (operators then hosts, the
    // joint graph's node order), one readout GEMM for the whole batch.
    totals_.ResizeZero(num_pairs, h);
    for (int p = 0; p < num_pairs; ++p) {
      float* total = totals_.row(p);
      for (int v = 0; v < n; ++v) AddRow(op_states_.row(p * n + v), total, h);
      for (int r = host_off_[p]; r < host_off_[p + 1]; ++r) {
        AddRow(host_states_.row(r), total, h);
      }
    }
    model.readout.Apply(totals_, readout_out_, scratch_);
    for (int p = 0; p < num_pairs; ++p) {
      const double log_value = std::clamp(
          static_cast<double>(readout_out_.row(p)[0]), -10.0, 30.0);
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
