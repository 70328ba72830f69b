#ifndef COSTREAM_PLACEMENT_RANK_SCORER_H_
#define COSTREAM_PLACEMENT_RANK_SCORER_H_

// Quantized fast-ranking tier of the placement fast path. A QuantizedRanker
// binds a whole batch of placement candidates into one batch graph
// (core::BuildBatchGraph), derives its ForwardPlan with the target model's
// own BuildForwardPlan and walks that plan in float with bf16/int8 weight
// copies. It holds no schedule of its own: every (member, stage, node-kind)
// slice of the plan becomes ONE GEMM over the rows of ALL candidates —
// across every request of the batch, not just one — so K candidates from M
// same-structure requests cost roughly one candidate's worth of kernel
// launches. The ranker only orders candidates — the service re-scores the
// top-k through the full-precision PlacementScorer before deciding — so its
// output never appears in a decision score. Ranking is single-threaded and
// uses fixed accumulation orders: the same batch always ranks identically,
// regardless of the service's num_threads.

#include <vector>

#include "core/ensemble.h"
#include "core/featurizer.h"
#include "nn/quantized.h"

namespace costream::placement {

// One ensemble's low-precision weight copies; pooled by the scoring engine
// so concurrent requests against the same ensemble share a single snapshot.
struct QuantizedModel {
  std::vector<nn::QuantizedMlp> encoders;  // one per NodeKind
  std::vector<nn::QuantizedMlp> updates;   // one per NodeKind
  nn::QuantizedMlp readout;
};

struct QuantizedEnsemble {
  // Snapshots the first `max_members` members (<= 0: all). A truncated
  // snapshot ranks by a sub-ensemble mean — cheaper, still deterministic;
  // fidelity is the caller's to gate (the service re-scores top-k in full).
  QuantizedEnsemble(const core::Ensemble& ensemble, nn::QuantKind kind,
                    int max_members = 0);

  nn::QuantKind kind;
  std::vector<QuantizedModel> members;
};

// RankBatch's reusable buffers: the batch graph, its forward plan and the
// float state rows. A caller that builds one ranker per batch (the scoring
// engine) hands each the same workspace, so steady-state ranking reuses
// every capacity.
struct RankWorkspace {
  core::JointGraph graph;
  core::ForwardPlan plan;
  std::vector<int> host_hw;  // host node i -> hardware node
  std::vector<const sim::Placement*> placements;  // one per batch copy
  std::vector<int> pair_query;                    // batch copy -> query slot
  nn::FloatMatrix states;
  nn::FloatMatrix cat;
  std::vector<nn::FloatMatrix> slice_out;
  nn::FloatMatrix scratch;
};

class QuantizedRanker {
 public:
  // The ranking tier covers exactly the configuration the placement
  // service runs: staged message passing, a regression head, and a joint
  // graph with host nodes. Anything else falls back to full scoring.
  static bool CanRank(const core::Ensemble& ensemble);

  // `weights` must be a snapshot of `target` and outlive the ranker, as must
  // `workspace` when non-null (null: the ranker uses its own). The
  // constructor registers `query` as query slot 0.
  QuantizedRanker(const dsps::QueryGraph& query, const sim::Cluster& cluster,
                  const core::Ensemble* target,
                  const QuantizedEnsemble* weights,
                  RankWorkspace* workspace = nullptr);

  // Registers another query with the SAME operator structure (kinds and
  // dataflow edges; feature values may differ) and returns its query slot.
  // This is what lets one drain batch share GEMMs across requests: every
  // same-structure tenant adds its encodings here and all their candidates
  // ride the same stage matrices.
  int AddQuery(const dsps::QueryGraph& query);

  // One request of a ranking batch: which registered query its candidates
  // belong to, and the candidates themselves.
  struct Request {
    int query_slot = 0;
    const std::vector<sim::Placement>* candidates = nullptr;
  };

  // Approximate target-metric predictions (ensemble mean of
  // expm1(clamp(out)) like the full path) for every request's candidates;
  // costs[r][c] is request r's candidate c. All requests' rows share each
  // stage GEMM. Not thread-safe: the ranker writes its workspace.
  void RankBatch(const std::vector<Request>& requests,
                 std::vector<std::vector<double>>& costs);

 private:
  void EncodeHosts(const sim::Cluster& cluster);
  void EncodeQueryFeatures(const core::JointGraph& graph);

  const core::CostModel* planner_;  // the target's member 0
  const QuantizedEnsemble* weights_;
  int num_ops_ = 0;
  int num_hw_ = 0;
  int hidden_ = 0;
  size_t num_queries_ = 0;
  core::FeaturizationMode mode_ = core::FeaturizationMode::kFull;

  // The operator structure shared by every registered query; each batch
  // copy repeats it.
  core::JointGraph op_graph_;

  // Candidate-invariant encodings: operators per (member, query slot)
  // (N x h) and hardware nodes per member (H x h).
  std::vector<std::vector<nn::FloatMatrix>> op_enc_;  // [member][query]
  std::vector<nn::FloatMatrix> hw_enc_;               // [member]

  RankWorkspace own_workspace_;
  RankWorkspace* ws_;
};

}  // namespace costream::placement

#endif  // COSTREAM_PLACEMENT_RANK_SCORER_H_
