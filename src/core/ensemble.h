#ifndef COSTREAM_CORE_ENSEMBLE_H_
#define COSTREAM_CORE_ENSEMBLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/trainer.h"

namespace costream::core {

// An ensemble of independently initialized COSTREAM models for one metric
// (paper Section IV-A): members differ only in their random initialization
// seed. At inference time regression members are averaged and classification
// members take a majority vote (Section V).
class Ensemble {
 public:
  // Creates `size` untrained members; member i uses seed base.seed + i.
  Ensemble(const CostModelConfig& base, int size);

  // Trains every member on the same data (sample order still differs via
  // the training seed offset). `config.num_threads` workers train members
  // concurrently, one model per worker with seeds unchanged; member training
  // is deterministic, so results are identical for every thread count. When
  // only one member exists the threads instead parallelize that member's
  // mini-batch gradients.
  std::vector<TrainResult> Train(const std::vector<TrainSample>& train,
                                 const std::vector<TrainSample>& val,
                                 const TrainConfig& config);

  // Evaluates members on a persistent worker pool (<= 0: all hardware
  // threads; 1 disposes the pool and restores serial prediction).
  // Per-member outputs are reduced in member order, so predictions are
  // bitwise-identical to the serial path.
  void set_num_threads(int num_threads);

  // Reusable prediction state for hot scoring loops: one tape per member
  // (reset and refilled each call) plus the per-member output slots, so
  // steady-state prediction performs no allocations. A scratch belongs to
  // one caller at a time — concurrent predictions need separate scratches.
  struct PredictionScratch {
    std::vector<nn::Tape> tapes;
    std::vector<double> outputs;
  };

  // Mean of the members' CostModel::Predict outputs: costs for regression
  // heads, probabilities for classification heads.
  //
  // The optional arguments serve hot loops and change no bits. `scratch`
  // is reused instead of a call-local one. `plan` must have been built (by
  // any member — all members share one architecture) for the current
  // structure of `graph`; the placement scorer builds it once per candidate
  // so the members' forwards skip the per-call plan derivation. `encoded`,
  // when non-null, holds one precomputed node-encoding matrix per member
  // (see CostModel::Forward); forwards then skip the encoder stage as well.
  double Predict(const JointGraph& graph, PredictionScratch* scratch = nullptr,
                 const ForwardPlan* plan = nullptr,
                 const std::vector<nn::Matrix>* encoded = nullptr) const;
  // Majority vote of a classification ensemble: true when more than half of
  // the members' probabilities are >= 0.5. Optional arguments as in Predict.
  bool PredictBinary(const JointGraph& graph,
                     PredictionScratch* scratch = nullptr,
                     const ForwardPlan* plan = nullptr,
                     const std::vector<nn::Matrix>* encoded = nullptr) const;

  // Persists / restores all members. Paths are derived from `prefix` as
  // "<prefix>.member<i>.bin". Load returns false on any architecture or I/O
  // mismatch.
  bool Save(const std::string& prefix) const;
  bool Load(const std::string& prefix);

  int size() const { return static_cast<int>(members_.size()); }
  CostModel& member(int i) { return *members_[i]; }
  const CostModel& member(int i) const { return *members_[i]; }
  HeadKind head() const { return members_.front()->config().head; }
  FeaturizationMode featurization() const {
    return members_.front()->config().featurization;
  }

 private:
  // Runs fn(i) for every member, on the prediction pool when enabled.
  void ForEachMember(const std::function<void(int)>& fn) const;
  // Sizes `scratch` for this ensemble (no-op once warmed up) and fills its
  // output slots with every member's prediction, in member order.
  void PredictMembers(const JointGraph& graph, PredictionScratch& scratch,
                      const ForwardPlan* plan,
                      const std::vector<nn::Matrix>* encoded) const;

  std::vector<std::unique_ptr<CostModel>> members_;
  std::unique_ptr<common::ThreadPool> pool_;  // null: serial prediction
};

}  // namespace costream::core

#endif  // COSTREAM_CORE_ENSEMBLE_H_
