#ifndef COSTREAM_PLACEMENT_SCORER_H_
#define COSTREAM_PLACEMENT_SCORER_H_

#include <vector>

#include "core/ensemble.h"
#include "core/featurizer.h"

namespace costream::placement {

// Scores placement candidates for one (query, cluster) pair without
// rebuilding the joint graph per candidate. Everything that does not depend
// on the placement — operator features, dataflow edges, topological order,
// and the host feature vectors of every hardware node — is featurized once
// at construction; per candidate only the host tail of a cached working
// graph is rewritten (a few index writes and 4-double feature copies instead
// of a full BuildJointGraph). The rewritten graphs are element-for-element
// identical to freshly built ones, so predictions are bitwise unchanged.
//
// The scorer itself is immutable after construction and safe to share across
// threads; all mutable state lives in per-caller Workspaces. Enumeration
// loops hand each worker thread its own Workspace (see
// ThreadPool::ParallelForIndexed) so steady-state scoring performs no
// allocations at all: graphs, scratch tapes and prediction slots are reused
// across candidates.
class PlacementScorer {
 public:
  // Per-caller mutable state: one working joint graph per distinct
  // featurization mode plus the ensembles' prediction scratches. Obtain via
  // MakeWorkspace(); never share one Workspace between concurrent callers.
  struct Workspace {
    std::vector<core::JointGraph> graphs;
    // One forward plan per slot, rebuilt by Bind once per candidate and
    // shared by every member forward of that candidate.
    std::vector<core::ForwardPlan> plans;
    // Per slot, the hardware node of each bound host node (host i is node
    // num_operators + i), plus NumberHosts scratch.
    std::vector<std::vector<int>> host_hw;
    std::vector<int> hw_host_scratch;
    std::vector<int> op_host_scratch;
    core::Ensemble::PredictionScratch target_scratch;
    core::Ensemble::PredictionScratch success_scratch;
    core::Ensemble::PredictionScratch backpressure_scratch;
    // Candidate-invariant encoder outputs, one cache per distinct scored
    // ensemble (parallel to the scorer's enc_owners_). Operator and
    // host-feature encodings depend only on the query, the cluster, and the
    // member weights — never on the placement — so they are encoded once
    // per workspace and only re-assembled (a few row copies) per candidate.
    struct EncodeCache {
      bool ops_ready = false;
      bool hosts_ready = false;
      std::vector<nn::Matrix> op_enc;     // per member: num_operators x h
      std::vector<nn::Matrix> hw_enc;     // per member: num_hw_nodes x h
      std::vector<nn::Matrix> assembled;  // per member: num_nodes x h
    };
    std::vector<EncodeCache> enc_caches;
    nn::Tape enc_tape;    // scratch tape for EncodeFeatures
    nn::Matrix enc_tmp;   // scratch batch for one (kind, member) encode
  };

  struct CandidateScore {
    double cost = 0.0;
    bool feasible = true;
  };

  // `target` must be a regression ensemble; `success` / `backpressure` may
  // be null to skip that filter. All ensembles must outlive the scorer.
  PlacementScorer(const dsps::QueryGraph& query, const sim::Cluster& cluster,
                  const core::Ensemble* target, const core::Ensemble* success,
                  const core::Ensemble* backpressure);

  Workspace MakeWorkspace() const;

  // Re-targets a workspace built by any scorer with the same ensemble set to
  // THIS scorer's (query, cluster): working graphs are rewritten from the
  // new prototypes in place and encoder caches invalidated, but every
  // capacity — graph node storage, forward-plan index vectors, tapes,
  // encoder matrices — survives. The scoring engine pools workspaces per
  // query structure across requests so repeat tenants never re-allocate.
  // Falls back to a fresh MakeWorkspace() on a shape mismatch.
  void ResetWorkspace(Workspace& ws) const;

  // Target-metric prediction for `placement`.
  double PredictTarget(Workspace& ws, const sim::Placement& placement) const;

  // Target prediction plus the success/backpressure sanity filter (majority
  // votes; the backpressure ensemble is only evaluated for candidates the
  // success ensemble accepted, preserving the original short-circuit).
  CandidateScore Score(Workspace& ws, const sim::Placement& placement) const;

  // Overwrites the parallelism feature of operator `op` in every cached
  // graph of `ws`, exactly as if the query had been re-featurized with
  // `degree` instances of that operator. The parallelism tuner probes moves
  // through this instead of copying the whole QueryGraph.
  void SetParallelism(Workspace& ws, int op, int degree) const;

 private:
  // Slots are deduplicated on (featurization, message passing scheme): two
  // ensembles agreeing on both share one working graph and one forward plan.
  struct ModeCache {
    core::FeaturizationMode mode = core::FeaturizationMode::kFull;
    core::MessagePassingMode message_passing = core::MessagePassingMode::kStaged;
    int traditional_iterations = 0;
    // Any ensemble of this slot; builds the slot's ForwardPlan.
    const core::Ensemble* planner = nullptr;
    // Operator prefix shared by every candidate under this mode.
    core::JointGraph prototype;
    // Host node features per hardware node (empty for kOperatorsOnly).
    std::vector<std::vector<double>> host_features;
  };

  // Rewrites the host tail of the slot's working graph for `placement`.
  void Bind(Workspace& ws, int slot, const sim::Placement& placement) const;

  // A scored ensemble together with its slot; each owns one
  // Workspace::EncodeCache (deduplicated on the ensemble pointer).
  struct EncOwner {
    const core::Ensemble* ensemble = nullptr;
    int slot = -1;
  };

  // Returns the per-member encodings of enc_owners_[enc_idx] assembled for
  // the slot's current binding, filling the workspace cache lazily. Must
  // run after Bind() for the owning slot.
  const std::vector<nn::Matrix>* AssembleEncodings(Workspace& ws,
                                                   int enc_idx) const;

  const core::Ensemble* target_;
  const core::Ensemble* success_;
  const core::Ensemble* backpressure_;
  int num_operators_ = 0;
  int num_hw_nodes_ = 0;
  std::vector<ModeCache> modes_;  // deduplicated across the ensembles
  int target_slot_ = -1;
  int success_slot_ = -1;
  int backpressure_slot_ = -1;
  std::vector<EncOwner> enc_owners_;  // deduplicated on ensemble pointer
  int target_enc_ = -1;
  int success_enc_ = -1;
  int backpressure_enc_ = -1;
};

}  // namespace costream::placement

#endif  // COSTREAM_PLACEMENT_SCORER_H_
