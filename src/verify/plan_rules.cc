#include "verify/plan_rules.h"

#include <string>
#include <vector>

namespace costream::verify {

namespace {

// Local kind names: costream_verify must not link costream_core (core links
// verify), so it cannot use core::ToString(NodeKind) from featurizer.cc.
const char* KindName(int k) {
  switch (static_cast<core::NodeKind>(k)) {
    case core::NodeKind::kSource: return "source";
    case core::NodeKind::kFilter: return "filter";
    case core::NodeKind::kWindow: return "window";
    case core::NodeKind::kAggregate: return "aggregate";
    case core::NodeKind::kJoin: return "join";
    case core::NodeKind::kSink: return "sink";
    case core::NodeKind::kHost: return "host";
  }
  return "?";
}

std::string JointNodeLoc(int i) {
  return "joint.node[" + std::to_string(i) + "]";
}

std::string StageLoc(int i) { return "stage[" + std::to_string(i) + "]"; }

// Appends the symbolic GEMM chain of one Mlp::Apply call: dims are the layer
// boundaries ({in, h, out}), so layer j is a (dims[j] x dims[j+1]) Linear.
// The bias add and the fused relu never change shapes, so one kLinear op per
// layer models the whole fused tape node.
int LowerMlp(ShapeProgram& program, int input, const std::vector<int>& dims,
             const std::string& label) {
  int cur = input;
  for (size_t j = 0; j + 1 < dims.size(); ++j) {
    ShapeOp op;
    op.kind = ShapeOp::Kind::kLinear;
    op.a = cur;
    op.rows = dims[j];
    op.cols = dims[j + 1];
    op.label = label + ".layer[" + std::to_string(j) + "]";
    program.ops.push_back(std::move(op));
    cur = static_cast<int>(program.ops.size()) - 1;
  }
  return cur;
}

// FP002: the per-kind encoder batches must partition the node set (every node
// encoded exactly once, under its own kind's encoder) and every update slice
// must name a real kind — the structural facts the lowering indexes through.
bool CheckPlanPartition(const core::JointGraph& graph,
                        const core::ForwardPlan& plan, VerifyReport* report) {
  const int num_nodes = static_cast<int>(graph.nodes.size());
  if (static_cast<int>(plan.encode_rows.size()) != core::kNumNodeKinds) {
    report->Add(kRulePlanEncodePartition, Severity::kError, "plan",
                "plan has " + std::to_string(plan.encode_rows.size()) +
                    " encoder batches, want one per node kind (" +
                    std::to_string(core::kNumNodeKinds) + ")");
    return false;
  }
  bool ok = true;
  std::vector<int> seen(num_nodes, 0);
  for (int k = 0; k < core::kNumNodeKinds; ++k) {
    for (int row : plan.encode_rows[k]) {
      if (row < 0 || row >= num_nodes) {
        report->Add(kRulePlanEncodePartition, Severity::kError,
                    "plan.encode[" + std::to_string(k) + "]",
                    "encoder row " + std::to_string(row) +
                        " out of range for " + std::to_string(num_nodes) +
                        " nodes");
        ok = false;
        continue;
      }
      ++seen[row];
      if (static_cast<int>(graph.nodes[row].kind) != k) {
        report->Add(kRulePlanEncodePartition, Severity::kError,
                    "plan.encode[" + std::to_string(k) + "]",
                    "node " + std::to_string(row) + " has kind " +
                        KindName(static_cast<int>(graph.nodes[row].kind)) +
                        " but is batched under encoder " +
                        KindName(k));
        ok = false;
      }
    }
  }
  for (int v = 0; v < num_nodes; ++v) {
    if (seen[v] != 1) {
      report->Add(kRulePlanEncodePartition, Severity::kError, JointNodeLoc(v),
                  "node is encoded " + std::to_string(seen[v]) +
                      " times, want exactly once");
      ok = false;
    }
  }
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    for (const core::ForwardPlan::UpdateSlice& slice : plan.stages[s].slices) {
      if (slice.kind < 0 || slice.kind >= core::kNumNodeKinds) {
        report->Add(kRulePlanEncodePartition, Severity::kError,
                    StageLoc(static_cast<int>(s)),
                    "update slice names node kind " +
                        std::to_string(slice.kind) + ", want [0, " +
                        std::to_string(core::kNumNodeKinds) + ")");
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace

void VerifyJointGraph(const core::JointGraph& graph, const ModelLayerDims* dims,
                      VerifyReport* report) {
  const int num_nodes = static_cast<int>(graph.nodes.size());
  const int num_ops = graph.num_operator_nodes;
  if (num_ops < 0 || graph.num_host_nodes < 0 ||
      num_ops + graph.num_host_nodes != num_nodes) {
    report->Add(kRuleJointNodeCounts, Severity::kError, "joint",
                "node counts disagree: " + std::to_string(num_ops) +
                    " operator + " + std::to_string(graph.num_host_nodes) +
                    " host nodes, " + std::to_string(num_nodes) + " total");
    return;  // the remaining rules index by these counts
  }
  bool edges_ok = true;
  for (const auto& [from, to] : graph.dataflow_edges) {
    if (from < 0 || from >= num_ops || to < 0 || to >= num_ops || from == to) {
      report->Add(kRuleJointDataflowEdge, Severity::kError, "joint",
                  "dataflow edge " + std::to_string(from) + " -> " +
                      std::to_string(to) + " outside the " +
                      std::to_string(num_ops) + " operator nodes");
      edges_ok = false;
    }
  }
  bool placement_ok = true;
  for (const auto& [op, host] : graph.placement_edges) {
    if (op < 0 || op >= num_ops || host < num_ops || host >= num_nodes) {
      report->Add(kRuleJointPlacementEdge, Severity::kError, "joint",
                  "placement edge " + std::to_string(op) + " -> " +
                      std::to_string(host) +
                      ": operator side must be in [0, " +
                      std::to_string(num_ops) + "), host side in [" +
                      std::to_string(num_ops) + ", " +
                      std::to_string(num_nodes) + ")");
      placement_ok = false;
    }
  }
  // JG004: topo_order must be a permutation of the operator nodes that
  // respects every dataflow edge.
  std::vector<int> pos(num_ops, -1);
  bool topo_ok =
      static_cast<int>(graph.topo_order.size()) == num_ops;
  for (size_t i = 0; topo_ok && i < graph.topo_order.size(); ++i) {
    const int v = graph.topo_order[i];
    if (v < 0 || v >= num_ops || pos[v] != -1) {
      topo_ok = false;
      break;
    }
    pos[v] = static_cast<int>(i);
  }
  if (!topo_ok) {
    report->Add(kRuleJointTopoOrder, Severity::kError, "joint",
                "topo_order is not a permutation of the " +
                    std::to_string(num_ops) + " operator nodes");
  } else if (edges_ok) {
    for (const auto& [from, to] : graph.dataflow_edges) {
      if (pos[from] >= pos[to]) {
        report->Add(kRuleJointTopoOrder, Severity::kError, "joint",
                    "topo_order places operator " + std::to_string(to) +
                        " before its upstream " + std::to_string(from));
        break;
      }
    }
  }
  if (dims != nullptr &&
      static_cast<int>(dims->encoder_dims.size()) == core::kNumNodeKinds) {
    for (int v = 0; v < num_nodes; ++v) {
      const core::JointNode& node = graph.nodes[v];
      const int k = static_cast<int>(node.kind);
      if (k < 0 || k >= core::kNumNodeKinds) {
        report->Add(kRuleJointFeatureDim, Severity::kError, JointNodeLoc(v),
                    "node kind " + std::to_string(k) + " is not a NodeKind");
        continue;
      }
      const int want = dims->encoder_dims[k].empty()
                           ? 0
                           : dims->encoder_dims[k].front();
      if (static_cast<int>(node.features.size()) != want) {
        report->Add(kRuleJointFeatureDim, Severity::kError, JointNodeLoc(v),
                    std::string(KindName(static_cast<int>(node.kind))) + " node carries " +
                        std::to_string(node.features.size()) +
                        " features, its encoder expects " +
                        std::to_string(want));
      }
    }
  }
  // JG006: with a host tail present, every operator must be placed on
  // exactly one host (placement edges are the w_i -> n_j mapping).
  if (graph.num_host_nodes > 0 && placement_ok) {
    std::vector<int> placed(num_ops, 0);
    for (const auto& [op, host] : graph.placement_edges) {
      (void)host;
      ++placed[op];
    }
    for (int op = 0; op < num_ops; ++op) {
      if (placed[op] != 1) {
        report->Add(kRuleJointHostCoverage, Severity::kError, JointNodeLoc(op),
                    "operator node has " + std::to_string(placed[op]) +
                        " placement edges, want exactly one");
      }
    }
  }
}

ShapeProgram BuildPlanProgram(const core::JointGraph& graph,
                              const core::ForwardPlan& plan,
                              const ModelLayerDims& dims) {
  ShapeProgram program;
  const int num_nodes = static_cast<int>(graph.nodes.size());
  const auto push = [&program](ShapeOp op) {
    program.ops.push_back(std::move(op));
    return static_cast<int>(program.ops.size()) - 1;
  };

  // EncodeBatched: a zero (N x h) state matrix, then per kind a feature
  // batch through the kind's encoder, scattered onto the state rows.
  ShapeOp state;
  state.kind = ShapeOp::Kind::kInput;
  state.rows = num_nodes;
  state.cols = dims.hidden_dim;
  state.label = "encode.state";
  int S = push(std::move(state));
  for (int k = 0; k < core::kNumNodeKinds; ++k) {
    const std::vector<int>& rows = plan.encode_rows[k];
    if (rows.empty()) continue;
    const std::string kind_label =
        std::string("encode[") + KindName(k) +
        "]";
    // The feature batch is as wide as the nodes' actual feature vectors (the
    // runtime copies them row by row), so a graph/model width disagreement
    // surfaces as a TP001 GEMM mismatch on the encoder's first layer, in
    // addition to the JG005 per-node finding.
    ShapeOp x;
    x.kind = ShapeOp::Kind::kInput;
    x.rows = static_cast<int>(rows.size());
    x.cols = static_cast<int>(graph.nodes[rows.front()].features.size());
    x.label = kind_label + ".features";
    int hk = LowerMlp(program, push(std::move(x)), dims.encoder_dims[k],
                      kind_label);
    ShapeOp scatter;
    scatter.kind = ShapeOp::Kind::kRowScatter;
    scatter.a = S;
    scatter.b = hk;
    scatter.indices = rows;
    scatter.label = kind_label + ".scatter";
    S = push(std::move(scatter));
  }

  // Message-passing stages. Shapes and index vectors are identical across a
  // stage's repeat iterations, so one symbolic iteration per stage suffices.
  for (size_t si = 0; si < plan.stages.size(); ++si) {
    const core::ForwardPlan::Stage& stage = plan.stages[si];
    const std::string loc = StageLoc(static_cast<int>(si));
    ShapeOp msg;
    msg.kind = ShapeOp::Kind::kSegmentSum;
    msg.a = S;
    msg.offsets = stage.offsets;
    msg.children = stage.children;
    msg.label = loc + ".msg";
    const int msg_id = push(std::move(msg));
    ShapeOp own;
    own.kind = ShapeOp::Kind::kRowGather;
    own.a = S;
    own.indices = stage.rows;
    own.label = loc + ".own";
    const int own_id = push(std::move(own));
    ShapeOp cat;
    cat.kind = ShapeOp::Kind::kConcatCols;
    cat.a = msg_id;
    cat.b = own_id;
    cat.label = loc + ".concat";
    const int cat_id = push(std::move(cat));
    for (const core::ForwardPlan::UpdateSlice& slice : stage.slices) {
      const std::string slice_label =
          loc + ".update[" +
          KindName(slice.kind) + "]";
      int ck = cat_id;
      if (!slice.pos.empty()) {
        ShapeOp gather;
        gather.kind = ShapeOp::Kind::kRowGather;
        gather.a = cat_id;
        gather.indices = slice.pos;
        gather.label = slice_label + ".gather";
        ck = push(std::move(gather));
      }
      const int uk =
          LowerMlp(program, ck, dims.update_dims[slice.kind], slice_label);
      ShapeOp scatter;
      scatter.kind = ShapeOp::Kind::kRowScatter;
      scatter.a = S;
      scatter.b = uk;
      scatter.indices = slice.targets;
      scatter.label = slice_label + ".scatter";
      S = push(std::move(scatter));
    }
  }

  // Readout: sum each copy's node states, output MLP, one scalar per copy.
  ShapeOp totals;
  totals.kind = ShapeOp::Kind::kSegmentSum;
  totals.a = S;
  totals.offsets = plan.readout_offsets;
  totals.children = plan.readout_children;
  totals.label = "readout.sum";
  program.result =
      LowerMlp(program, push(std::move(totals)), dims.readout_dims, "readout");
  program.result_rows = graph.copies;
  return program;
}

void VerifyForwardPlan(const core::JointGraph& graph,
                       const core::ForwardPlan& plan,
                       const ModelLayerDims& dims, VerifyReport* report) {
  const int errors_before = report->num_errors();
  VerifyJointGraph(graph, &dims, report);
  if (!plan.ready) {
    report->Add(kRulePlanNotReady, Severity::kError, "plan",
                "forward plan was never built for this graph",
                "call CostModel::BuildForwardPlan before Forward");
    return;
  }
  if (graph.nodes.empty()) {
    // Forward CHECKs non-emptiness itself; an empty graph has no shapes to
    // propagate and JG001/QG001 already describe the defect.
    return;
  }
  if (!CheckPlanPartition(graph, plan, report)) return;
  // The lowering indexes through the structures the rules above validated;
  // only run it on structurally sound inputs.
  if (report->num_errors() != errors_before) return;
  InferShapes(BuildPlanProgram(graph, plan, dims), report);
}

}  // namespace costream::verify
