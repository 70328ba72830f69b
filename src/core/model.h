#ifndef COSTREAM_CORE_MODEL_H_
#define COSTREAM_CORE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "nn/layers.h"

namespace costream::core {

// Message-passing scheme. kStaged is the paper's novel scheme (Section
// III-B): OPS->HW, HW->OPS, SOURCES->OPS in that order; kTraditional is the
// ablation baseline of Exp 7b where all nodes are updated simultaneously
// from their neighbours for a fixed number of iterations.
enum class MessagePassingMode {
  kStaged,
  kTraditional,
};

// Output head: regression models predict log1p(cost) and are trained with
// MSE in log space (exactly the paper's MSLE loss); classification models
// predict a logit trained with binary cross entropy.
enum class HeadKind {
  kRegression,
  kClassification,
};

struct CostModelConfig {
  int hidden_dim = 32;
  FeaturizationMode featurization = FeaturizationMode::kFull;
  MessagePassingMode message_passing = MessagePassingMode::kStaged;
  HeadKind head = HeadKind::kRegression;
  // Neighbourhood iterations of the traditional scheme.
  int traditional_iterations = 3;
  // Initialization seed (ensemble members differ only in this; paper
  // Section IV-A).
  uint64_t seed = 1;
};

// A reusable execution plan for the forward pass: every index vector the
// batched scheduler needs — per-kind encoder rows, per-stage segment-sum
// indices, per-kind update slices and the per-copy readout segments —
// derived once from a graph's structure. The plan depends on node kinds and
// edges but never on feature values, so hot loops (the placement scorer)
// rebuild it once per candidate instead of once per ensemble-member forward,
// and the quantized ranker walks the same plan over a batch graph.
struct ForwardPlan {
  // One per-kind batch of an update stage: `pos` are the rows of the
  // concatenated (message | own) matrix fed to this kind's update MLP (empty
  // when the whole batch is a single kind) and `targets` the node rows that
  // receive the result.
  struct UpdateSlice {
    int kind = 0;
    std::vector<int> pos;
    std::vector<int> targets;
  };
  // One message-passing step. Every message is a segment sum over a CSR
  // list of source rows per own row (stage 2's segments hold one child, the
  // operator's host); `rows` are the own-state rows, which is also the
  // update domain.
  struct Stage {
    std::vector<int> offsets, children;  // CSR of message sources per own row
    std::vector<int> rows;
    std::vector<UpdateSlice> slices;
    int repeat = 1;  // > 1 only for the traditional scheme's iterations
  };
  std::vector<std::vector<int>> encode_rows;  // node rows per NodeKind
  std::vector<Stage> stages;
  // Readout CSR, one segment per graph copy: its operator rows ascending,
  // then its host rows.
  std::vector<int> readout_offsets, readout_children;
  bool ready = false;

  // Builder scratch, kept here so per-candidate rebuilds reuse capacity.
  std::vector<int> adjacency_offsets, adjacency_children;
  std::vector<std::vector<int>> wave_scratch;
  std::vector<int> level_scratch;
  std::vector<int> cursor_scratch;
};

// One COSTREAM GNN instance predicting a single cost metric for a joint
// operator-resource graph (Algorithm 1):
//
//   1. node-type specific MLP encoders embed the transferable features into
//      hidden states,
//   2. hidden states are refined along the staged message-passing orders,
//      each update feeding concat(sum of incoming states, own state) into a
//      node-type specific update MLP,
//   3. a final readout sums all hidden states and an output MLP produces the
//      cost prediction (one per copy of a batch graph).
class CostModel {
 public:
  explicit CostModel(const CostModelConfig& config);

  CostModel(const CostModel&) = delete;
  CostModel& operator=(const CostModel&) = delete;

  // Derives the execution plan for `graph` in place, reusing the plan's
  // capacity. Must be re-run whenever the graph's structure (kinds or edges)
  // changes; pure feature rewrites keep a plan valid.
  void BuildForwardPlan(const JointGraph& graph, ForwardPlan& plan) const;

  // Builds the forward computation on `tape`; returns one output row per
  // graph copy (log-cost for regression heads, logit for classification
  // heads), a 1 x 1 scalar for every single graph. Node states live as rows
  // of one N x hidden matrix; every stage is a segment-sum/gather/concat
  // followed by per-kind update MLPs and a row scatter, and the readout is a
  // per-copy segment sum, all scheduled by `plan` (built by BuildForwardPlan
  // for this graph's structure; null rebuilds a thread-local plan). When
  // `encoded` is non-null it must hold this model's encoder output for every
  // node of `graph` (row v = encoder_kind(features(v))); the forward then
  // starts message passing from it instead of re-encoding. Because every
  // encode op treats rows independently, a cached encoding is bitwise
  // identical to the in-forward one, so this changes no prediction bits.
  nn::Var Forward(nn::Tape& tape, const JointGraph& graph,
                  const ForwardPlan* plan = nullptr,
                  const nn::Matrix* encoded = nullptr) const;

  // Encodes a batch of same-kind feature vectors: `out` becomes an
  // N x hidden matrix whose row i is encoder_kind(*features[i]). The
  // placement scorer uses this to precompute candidate-invariant node
  // encodings (operator features and per-hardware-node host features never
  // change across placement candidates).
  void EncodeFeatures(NodeKind kind,
                      const std::vector<const std::vector<double>*>& features,
                      nn::Tape& tape, nn::Matrix& out) const;

  // The head's prediction: for regression, the cost in the metric's original
  // unit (expm1 of the clamped output, floored at zero); for classification,
  // the probability of the positive class. A non-null `tape` is Reset() and
  // reused, so steady-state prediction in inner loops allocates nothing;
  // `plan` and `encoded` are passed through to Forward.
  double Predict(const JointGraph& graph, nn::Tape* tape = nullptr,
                 const ForwardPlan* plan = nullptr,
                 const nn::Matrix* encoded = nullptr) const;

  const CostModelConfig& config() const { return config_; }
  const std::vector<nn::Parameter*>& parameters() { return params_; }

  // Read-only access to the MLPs; the quantized ranking tier
  // (placement::QuantizedRanker) snapshots them into bf16/int8 copies.
  const nn::Mlp& encoder_mlp(NodeKind kind) const {
    return encoders_[static_cast<int>(kind)];
  }
  const nn::Mlp& update_mlp(NodeKind kind) const {
    return updates_[static_cast<int>(kind)];
  }
  const nn::Mlp& readout_mlp() const { return readout_[0]; }

  // Layer-boundary dims of every MLP (per NodeKind for the encoders and
  // update nets), consumed by the verify library's symbolic shape propagator.
  std::vector<std::vector<int>> EncoderDims() const;
  std::vector<std::vector<int>> UpdateDims() const;
  std::vector<int> ReadoutDims() const;

  // Checkpointing (used to restore the best validation epoch).
  std::vector<nn::Matrix> SnapshotParameters() const;
  void RestoreParameters(const std::vector<nn::Matrix>& snapshot);

  // Model persistence; Load returns false on shape/config mismatch.
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);

 private:
  CostModelConfig config_;
  std::vector<nn::Mlp> encoders_;  // one per NodeKind
  std::vector<nn::Mlp> updates_;   // one per NodeKind, (2H -> H)
  std::vector<nn::Mlp> readout_;   // single output MLP (H -> H -> 1)
  std::vector<nn::Parameter*> params_;

  nn::Var EncodeBatched(nn::Tape& tape, const JointGraph& graph,
                        const ForwardPlan& plan) const;
};

}  // namespace costream::core

#endif  // COSTREAM_CORE_MODEL_H_
