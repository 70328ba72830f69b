#include "placement/scorer.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "verify/interval_analysis.h"
#include "verify/plan_rules.h"
#include "verify/verify.h"

namespace costream::placement {

namespace {

obs::Counter& PlanRebuildCounter() {
  static obs::Counter& c = obs::GetCounter("placement.scorer.plan_rebuilds");
  return c;
}

}  // namespace

PlacementScorer::PlacementScorer(const dsps::QueryGraph& query,
                                 const sim::Cluster& cluster,
                                 const core::Ensemble* target,
                                 const core::Ensemble* success,
                                 const core::Ensemble* backpressure)
    : target_(target),
      success_(success),
      backpressure_(backpressure),
      num_operators_(query.num_operators()),
      num_hw_nodes_(cluster.num_nodes()) {
  COSTREAM_CHECK(target_ != nullptr);

  if (verify::VerificationEnabled()) {
    // Verified once at construction, never per candidate: query and cluster
    // structure are candidate-invariant, and a forward-plan shape proof on
    // one canonical placement covers every candidate because Bind() derives
    // each candidate's plan with the same builder from the same prototype.
    verify::VerifyReport report;
    verify::VerifyQueryGraph(query, &report);
    verify::VerifyCluster(cluster, &report);
    if (report.ok()) {
      // Query-only interval pass (DF001/DF004): placement-dependent DF rules
      // are per-candidate and belong to the service's pruning pre-pass.
      verify::AnalyzeQueryIntervals(query, verify::IntervalOptions{}, &report);
    }
    if (report.ok()) {
      const core::CostModel& member = target_->member(0);
      const sim::Placement canonical(query.num_operators(), 0);
      const core::JointGraph canonical_graph = core::BuildJointGraph(
          query, cluster, canonical, member.config().featurization);
      core::ForwardPlan canonical_plan;
      member.BuildForwardPlan(canonical_graph, canonical_plan);
      report.PushLocationPrefix("canonical.");
      verify::VerifyForwardPlan(canonical_graph, canonical_plan,
                                verify::DimsFromModel(member), &report);
      report.PopLocationPrefix();
    }
    verify::CheckOrDie(report, "PlacementScorer");
  }

  const core::JointGraph prototype = core::BuildOperatorGraph(query);

  const auto slot_for = [&](const core::Ensemble* ensemble) {
    const core::CostModelConfig& config = ensemble->member(0).config();
    for (size_t i = 0; i < modes_.size(); ++i) {
      ModeCache& existing = modes_[i];
      if (existing.mode == config.featurization &&
          existing.message_passing == config.message_passing &&
          existing.traditional_iterations == config.traditional_iterations) {
        return static_cast<int>(i);
      }
    }
    ModeCache cache;
    cache.mode = config.featurization;
    cache.message_passing = config.message_passing;
    cache.traditional_iterations = config.traditional_iterations;
    cache.planner = ensemble;
    cache.prototype = prototype;
    if (cache.mode != core::FeaturizationMode::kOperatorsOnly) {
      cache.host_features.reserve(cluster.num_nodes());
      for (int hw = 0; hw < cluster.num_nodes(); ++hw) {
        cache.host_features.push_back(
            core::HostNodeFeatures(cluster, hw, cache.mode));
      }
    }
    modes_.push_back(std::move(cache));
    return static_cast<int>(modes_.size()) - 1;
  };
  target_slot_ = slot_for(target_);
  if (success_ != nullptr) success_slot_ = slot_for(success_);
  if (backpressure_ != nullptr) {
    backpressure_slot_ = slot_for(backpressure_);
  }

  const auto enc_for = [&](const core::Ensemble* ensemble, int slot) {
    for (size_t i = 0; i < enc_owners_.size(); ++i) {
      if (enc_owners_[i].ensemble == ensemble) return static_cast<int>(i);
    }
    EncOwner owner;
    owner.ensemble = ensemble;
    owner.slot = slot;
    enc_owners_.push_back(owner);
    return static_cast<int>(enc_owners_.size()) - 1;
  };
  target_enc_ = enc_for(target_, target_slot_);
  if (success_ != nullptr) success_enc_ = enc_for(success_, success_slot_);
  if (backpressure_ != nullptr) {
    backpressure_enc_ = enc_for(backpressure_, backpressure_slot_);
  }
}

PlacementScorer::Workspace PlacementScorer::MakeWorkspace() const {
  Workspace ws;
  ws.graphs.reserve(modes_.size());
  ws.plans.resize(modes_.size());
  ws.host_hw.resize(modes_.size());
  ws.enc_caches.resize(enc_owners_.size());
  for (const ModeCache& cache : modes_) {
    core::JointGraph graph = cache.prototype;
    graph.nodes.reserve(num_operators_ + num_hw_nodes_);
    ws.graphs.push_back(std::move(graph));
  }
  return ws;
}

void PlacementScorer::ResetWorkspace(Workspace& ws) const {
  if (ws.graphs.size() != modes_.size() ||
      ws.enc_caches.size() != enc_owners_.size()) {
    ws = MakeWorkspace();
    return;
  }
  for (size_t i = 0; i < modes_.size(); ++i) {
    const core::JointGraph& proto = modes_[i].prototype;
    core::JointGraph& g = ws.graphs[i];
    g.nodes.resize(proto.nodes.size());
    for (size_t v = 0; v < proto.nodes.size(); ++v) {
      g.nodes[v].kind = proto.nodes[v].kind;
      g.nodes[v].features.assign(proto.nodes[v].features.begin(),
                                 proto.nodes[v].features.end());
    }
    g.dataflow_edges.assign(proto.dataflow_edges.begin(),
                            proto.dataflow_edges.end());
    g.placement_edges.clear();
    g.topo_order.assign(proto.topo_order.begin(), proto.topo_order.end());
    g.num_operator_nodes = proto.num_operator_nodes;
    g.num_host_nodes = 0;
    // The structure may match the previous tenant's, but features moved:
    // conservatively rebuild the plan on the next Bind.
    ws.plans[i].ready = false;
  }
  for (Workspace::EncodeCache& cache : ws.enc_caches) {
    cache.ops_ready = false;
    cache.hosts_ready = false;
  }
}

void PlacementScorer::Bind(Workspace& ws, int slot,
                           const sim::Placement& placement) const {
  const ModeCache& cache = modes_[slot];
  if (cache.mode == core::FeaturizationMode::kOperatorsOnly) {
    // No host tail: the graph (and thus the plan) is placement-independent.
    if (!ws.plans[slot].ready) {
      PlanRebuildCounter().Increment();
      cache.planner->member(0).BuildForwardPlan(ws.graphs[slot],
                                                ws.plans[slot]);
    }
    return;
  }
  COSTREAM_DCHECK(static_cast<int>(placement.size()) == num_operators_);

  core::JointGraph& g = ws.graphs[slot];
  std::vector<int>& host_hw = ws.host_hw[slot];
  host_hw.clear();
  ws.op_host_scratch.clear();
  core::NumberHosts(placement, num_hw_nodes_, ws.hw_host_scratch,
                    ws.op_host_scratch, host_hw);
  g.placement_edges.clear();
  for (int op = 0; op < num_operators_; ++op) {
    g.placement_edges.emplace_back(op,
                                   num_operators_ + ws.op_host_scratch[op]);
  }

  // Resize the host tail — node slots are only constructed or destroyed when
  // the distinct-host count changes — and overwrite the surviving nodes'
  // features in place (vector::assign reuses their capacity).
  const int num_hosts = static_cast<int>(host_hw.size());
  g.nodes.resize(num_operators_ + num_hosts);
  g.num_host_nodes = num_hosts;
  for (int i = 0; i < num_hosts; ++i) {
    core::JointNode& jn = g.nodes[num_operators_ + i];
    jn.kind = core::NodeKind::kHost;
    const std::vector<double>& features = cache.host_features[host_hw[i]];
    jn.features.assign(features.begin(), features.end());
  }

  // Re-derive the forward plan once for this candidate; every ensemble
  // member forward of this slot then runs plan-free of derivation.
  PlanRebuildCounter().Increment();
  cache.planner->member(0).BuildForwardPlan(g, ws.plans[slot]);
}

const std::vector<nn::Matrix>* PlacementScorer::AssembleEncodings(
    Workspace& ws, int enc_idx) const {
  const EncOwner& owner = enc_owners_[enc_idx];
  Workspace::EncodeCache& cache = ws.enc_caches[enc_idx];
  const ModeCache& mode = modes_[owner.slot];
  const core::Ensemble& ensemble = *owner.ensemble;
  const int members = ensemble.size();
  const int h = ensemble.member(0).config().hidden_dim;

  static obs::Counter& metric_hits =
      obs::GetCounter("placement.scorer.encode_cache_hits");
  static obs::Counter& metric_misses =
      obs::GetCounter("placement.scorer.encode_cache_misses");
  if (cache.ops_ready) {
    metric_hits.Increment();
  } else {
    metric_misses.Increment();
  }

  if (!cache.ops_ready) {
    // Encode every operator once, batched by kind (each kind has its own
    // encoder MLP and feature width). Features come from the workspace's
    // working graph, whose operator prefix reflects SetParallelism rewrites.
    const core::JointGraph& g = ws.graphs[owner.slot];
    cache.op_enc.resize(members);
    for (nn::Matrix& m : cache.op_enc) m.ResizeUninit(num_operators_, h);
    std::vector<int> rows;
    std::vector<const std::vector<double>*> feats;
    for (int k = 0; k < core::kNumNodeKinds; ++k) {
      rows.clear();
      feats.clear();
      for (int op = 0; op < num_operators_; ++op) {
        if (static_cast<int>(g.nodes[op].kind) != k) continue;
        rows.push_back(op);
        feats.push_back(&g.nodes[op].features);
      }
      if (rows.empty()) continue;
      for (int m = 0; m < members; ++m) {
        ensemble.member(m).EncodeFeatures(static_cast<core::NodeKind>(k),
                                          feats, ws.enc_tape, ws.enc_tmp);
        for (size_t i = 0; i < rows.size(); ++i) {
          std::copy_n(ws.enc_tmp.row(static_cast<int>(i)), h,
                      cache.op_enc[m].row(rows[i]));
        }
      }
    }
    cache.ops_ready = true;
  }

  if (!cache.hosts_ready && !mode.host_features.empty()) {
    cache.hw_enc.resize(members);
    std::vector<const std::vector<double>*> feats;
    feats.reserve(mode.host_features.size());
    for (const std::vector<double>& f : mode.host_features) {
      feats.push_back(&f);
    }
    for (int m = 0; m < members; ++m) {
      ensemble.member(m).EncodeFeatures(core::NodeKind::kHost, feats,
                                        ws.enc_tape, cache.hw_enc[m]);
    }
    cache.hosts_ready = true;
  }

  // Operator-only graphs have no host tail: the per-member operator
  // encodings already are the full node encodings.
  if (mode.mode == core::FeaturizationMode::kOperatorsOnly) {
    return &cache.op_enc;
  }

  // Assemble for the slot's current binding: the operator block is shared by
  // every candidate; only the host-tail rows are placement-specific.
  const int num_nodes =
      static_cast<int>(ws.graphs[owner.slot].nodes.size());
  const std::vector<int>& host_hw = ws.host_hw[owner.slot];
  cache.assembled.resize(members);
  for (int m = 0; m < members; ++m) {
    nn::Matrix& out = cache.assembled[m];
    out.ResizeUninit(num_nodes, h);
    std::copy_n(cache.op_enc[m].data(),
                static_cast<size_t>(num_operators_) * h, out.data());
    for (size_t i = 0; i < host_hw.size(); ++i) {
      std::copy_n(cache.hw_enc[m].row(host_hw[i]), h,
                  out.row(num_operators_ + static_cast<int>(i)));
    }
  }
  return &cache.assembled;
}

double PlacementScorer::PredictTarget(Workspace& ws,
                                      const sim::Placement& placement) const {
  Bind(ws, target_slot_, placement);
  return target_->Predict(ws.graphs[target_slot_], &ws.target_scratch,
                          &ws.plans[target_slot_],
                          AssembleEncodings(ws, target_enc_));
}

PlacementScorer::CandidateScore PlacementScorer::Score(
    Workspace& ws, const sim::Placement& placement) const {
  static obs::Counter& metric_candidates =
      obs::GetCounter("placement.scorer.candidates");
  metric_candidates.Increment();
  // Each distinct mode is bound once; slots are deduplicated, so ensembles
  // sharing a featurization mode share the working graph.
  for (int slot = 0; slot < static_cast<int>(modes_.size()); ++slot) {
    Bind(ws, slot, placement);
  }
  CandidateScore out;
  out.cost = target_->Predict(ws.graphs[target_slot_], &ws.target_scratch,
                              &ws.plans[target_slot_],
                              AssembleEncodings(ws, target_enc_));
  bool feasible = true;
  if (success_ != nullptr) {
    feasible = success_->PredictBinary(
        ws.graphs[success_slot_], &ws.success_scratch,
        &ws.plans[success_slot_], AssembleEncodings(ws, success_enc_));
  }
  if (feasible && backpressure_ != nullptr) {
    feasible = !backpressure_->PredictBinary(
        ws.graphs[backpressure_slot_], &ws.backpressure_scratch,
        &ws.plans[backpressure_slot_],
        AssembleEncodings(ws, backpressure_enc_));
  }
  out.feasible = feasible;
  return out;
}

void PlacementScorer::SetParallelism(Workspace& ws, int op, int degree) const {
  for (core::JointGraph& g : ws.graphs) {
    core::SetParallelismFeature(g, op, degree);
  }
  // Operator features changed: cached operator encodings are stale (host
  // encodings stay valid — hardware features are untouched).
  for (Workspace::EncodeCache& cache : ws.enc_caches) {
    cache.ops_ready = false;
  }
}

}  // namespace costream::placement
