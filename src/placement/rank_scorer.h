#ifndef COSTREAM_PLACEMENT_RANK_SCORER_H_
#define COSTREAM_PLACEMENT_RANK_SCORER_H_

// Quantized fast-ranking tier of the placement fast path. A QuantizedRanker
// executes the cost model's ForwardPlan stage-3 schedule in float with
// bf16/int8 weight copies and scores a whole batch of placement candidates
// at once: every (member, stage, node-kind) pair becomes ONE GEMM over the
// rows of ALL candidates — across every request of the batch, not just one
// — so K candidates from M same-structure requests cost roughly one
// candidate's worth of kernel launches. The ranker only orders candidates —
// the service re-scores the top-k through the full-precision PlacementScorer
// before deciding — so its output never appears in a decision score.
// Ranking is single-threaded and uses fixed accumulation orders: the same
// batch always ranks identically, regardless of the service's num_threads.

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

class QuantizedRanker {
 public:
  // The ranking tier covers exactly the configuration the placement
  // service runs: staged message passing, a regression head, and a joint
  // graph with host nodes. Anything else falls back to full scoring.
  static bool CanRank(const core::Ensemble& ensemble);

  // `weights` must be a snapshot of `target` and outlive the ranker. The
  // constructor registers `query` as query slot 0.
  QuantizedRanker(const dsps::QueryGraph& query, const sim::Cluster& cluster,
                  const core::Ensemble* target,
                  const QuantizedEnsemble* weights);

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
  // stage GEMM. Not thread-safe: the ranker owns its scratch buffers.
  void RankBatch(const std::vector<Request>& requests,
                 std::vector<std::vector<double>>& costs);

  int num_operators() const { return num_ops_; }
  int num_queries() const { return static_cast<int>(num_queries_); }

 private:
  void EncodeHosts(const sim::Cluster& cluster);
  void EncodeQueryFeatures(const core::JointGraph& graph);

  const QuantizedEnsemble* weights_;
  int num_ops_ = 0;
  int num_hw_ = 0;
  int hidden_ = 0;
  size_t num_queries_ = 0;
  core::FeaturizationMode mode_ = core::FeaturizationMode::kFull;

  // The target's forward plan for the operator graph, shared by every
  // registered query. Without host nodes its stages are exactly stage 3's
  // dataflow waves: each slice is one (wave, kind) GEMM batch and the CSR
  // children are the in-edges; encode_rows gives stage 2's kind batches.
  core::ForwardPlan plan_;

  // Candidate-invariant encodings: operators per (member, query slot)
  // (N x h) and hardware nodes per member (H x h).
  std::vector<std::vector<nn::FloatMatrix>> op_enc_;  // [member][query]
  std::vector<nn::FloatMatrix> hw_enc_;               // [member]

  // Per-call scratch (sized by the flattened candidate batch).
  std::vector<int> pair_query_;   // flat pair -> query slot
  std::vector<const sim::Placement*> pair_placement_;
  std::vector<int> op_host_row_;  // (pair * N + op) -> global host row
  std::vector<int> host_hw_;      // global host row -> hardware node id
  std::vector<int> host_off_;     // pair -> first global host row
  std::vector<int> hw_row_;       // per-pair hw -> row map scratch
  nn::FloatMatrix op_states_;
  nn::FloatMatrix host_states_;
  nn::FloatMatrix msg_;
  nn::FloatMatrix cat_;
  nn::FloatMatrix out_;
  nn::FloatMatrix totals_;
  nn::FloatMatrix readout_out_;
  nn::FloatMatrix scratch_;
};

}  // namespace costream::placement

#endif  // COSTREAM_PLACEMENT_RANK_SCORER_H_
