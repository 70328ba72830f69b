#include "core/ensemble.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace costream::core {

Ensemble::Ensemble(const CostModelConfig& base, int size) {
  COSTREAM_CHECK(size >= 1);
  members_.reserve(size);
  for (int i = 0; i < size; ++i) {
    CostModelConfig config = base;
    config.seed = base.seed + static_cast<uint64_t>(i);
    members_.push_back(std::make_unique<CostModel>(config));
  }
}

void Ensemble::set_num_threads(int num_threads) {
  const int threads =
      std::min(common::ResolveNumThreads(num_threads), size());
  pool_ = threads > 1 ? std::make_unique<common::ThreadPool>(threads)
                      : nullptr;
}

void Ensemble::ForEachMember(const std::function<void(int)>& fn) const {
  if (pool_ != nullptr) {
    pool_->ParallelFor(size(), fn);
  } else {
    for (int i = 0; i < size(); ++i) fn(i);
  }
}

std::vector<TrainResult> Ensemble::Train(const std::vector<TrainSample>& train,
                                         const std::vector<TrainSample>& val,
                                         const TrainConfig& config) {
  const int threads = common::ResolveNumThreads(config.num_threads);
  std::vector<TrainResult> results(members_.size());
  // One model per worker; each member's inner gradient loop then runs
  // serially so the machine is not oversubscribed. A single-member ensemble
  // instead hands the threads to the member's data-parallel batches.
  const bool across_members = threads > 1 && size() > 1;
  common::ThreadPool pool(across_members ? std::min(threads, size()) : 1);
  pool.ParallelFor(size(), [&](int i) {
    TrainConfig member_config = config;
    member_config.seed = config.seed + static_cast<uint64_t>(i) * 1000003ull;
    member_config.num_threads = across_members ? 1 : config.num_threads;
    results[i] = TrainModel(*members_[i], train, val, member_config);
  });
  return results;
}

void Ensemble::PredictMembers(const JointGraph& graph,
                              PredictionScratch& scratch,
                              const ForwardPlan* plan,
                              const std::vector<nn::Matrix>* encoded) const {
  if (scratch.tapes.size() != members_.size()) {
    scratch.tapes = std::vector<nn::Tape>(members_.size());
  }
  scratch.outputs.resize(members_.size());
  ForEachMember([&](int i) {
    scratch.outputs[i] =
        members_[i]->Predict(graph, &scratch.tapes[i], plan,
                             encoded != nullptr ? &(*encoded)[i] : nullptr);
  });
}

double Ensemble::Predict(const JointGraph& graph, PredictionScratch* scratch,
                         const ForwardPlan* plan,
                         const std::vector<nn::Matrix>* encoded) const {
  PredictionScratch local;
  PredictionScratch& s = scratch != nullptr ? *scratch : local;
  PredictMembers(graph, s, plan, encoded);
  double total = 0.0;
  for (double p : s.outputs) total += p;
  return total / members_.size();
}

bool Ensemble::PredictBinary(const JointGraph& graph,
                             PredictionScratch* scratch,
                             const ForwardPlan* plan,
                             const std::vector<nn::Matrix>* encoded) const {
  PredictionScratch local;
  PredictionScratch& s = scratch != nullptr ? *scratch : local;
  PredictMembers(graph, s, plan, encoded);
  int votes = 0;
  for (double p : s.outputs) votes += p >= 0.5 ? 1 : 0;
  return votes * 2 > size();
}

bool Ensemble::Save(const std::string& prefix) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i]->Save(prefix + ".member" + std::to_string(i) + ".bin")) {
      return false;
    }
  }
  return true;
}

bool Ensemble::Load(const std::string& prefix) {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i]->Load(prefix + ".member" + std::to_string(i) + ".bin")) {
      return false;
    }
  }
  return true;
}

}  // namespace costream::core
