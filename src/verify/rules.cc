#include "verify/rules.h"

namespace costream::verify {

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> catalog = {
      {kRuleGraphEmpty, Severity::kError, "query graph has no operators"},
      {kRuleGraphDanglingEdge, Severity::kError,
       "dataflow edge references a missing operator or loops on itself"},
      {kRuleGraphCycle, Severity::kError, "query graph contains a cycle"},
      {kRuleGraphSinkCount, Severity::kError,
       "query must have exactly one sink"},
      {kRuleGraphUnreachable, Severity::kError,
       "operator unreachable from the sources or cannot reach the sink"},
      {kRuleGraphArity, Severity::kError,
       "operator fan-in/fan-out violates its type (source 0-in, unary 1-in, "
       "join 2-in, sink 0-out)"},
      {kRuleGraphWindowSpec, Severity::kError,
       "window spec invalid (size/slide must be positive, slide <= size for "
       "sliding windows)"},
      {kRuleGraphSelectivity, Severity::kError,
       "selectivity outside [0, 1]"},
      {kRuleGraphTupleWidth, Severity::kError,
       "tuple width or data-type fractions out of range"},
      {kRuleGraphSourceSpec, Severity::kError,
       "source spec invalid (rate must be positive, data types non-empty, "
       "type fractions in [0, 1])"},
      {kRuleGraphWindowFeed, Severity::kError,
       "windowed aggregate/join input is not a window operator"},
      {kRuleGraphParallelism, Severity::kError,
       "operator parallelism must be >= 1"},
      {kRulePlacementArity, Severity::kError,
       "placement must map every operator exactly once"},
      {kRulePlacementUnknownNode, Severity::kError,
       "placement references a hardware node that does not exist"},
      {kRuleClusterEmpty, Severity::kError, "cluster has no hardware nodes"},
      {kRuleClusterBadNode, Severity::kError,
       "hardware node features out of range (cpu/ram/bandwidth must be "
       "positive, latency non-negative)"},
      {kRulePlacementRamFeasibility, Severity::kWarning,
       "estimated window state exceeds the node's RAM"},
      {kRulePlacementCpuFeasibility, Severity::kWarning,
       "operator instances heavily oversubscribe the node's cores"},
      {kRulePlacementNetFeasibility, Severity::kWarning,
       "estimated cross-node traffic exceeds the node's bandwidth"},
      {kRuleClusterLinkMatrix, Severity::kError,
       "per-link matrices malformed (both n*n matrices required; off-"
       "diagonal bandwidth positive, latency non-negative)"},
      {kRulePlacementLinkFeasibility, Severity::kWarning,
       "estimated cross-node traffic exceeds an individual link's bandwidth"},
      {kRuleJointNodeCounts, Severity::kError,
       "joint-graph node counts are inconsistent"},
      {kRuleJointDataflowEdge, Severity::kError,
       "joint-graph dataflow edge references a non-operator node"},
      {kRuleJointPlacementEdge, Severity::kError,
       "joint-graph placement edge endpoints out of range"},
      {kRuleJointTopoOrder, Severity::kError,
       "joint-graph topological order is not a valid order of the operators"},
      {kRuleJointFeatureDim, Severity::kError,
       "node feature vector length differs from its encoder's input width"},
      {kRuleJointHostCoverage, Severity::kError,
       "operator is placed on no host (or more than one) in the joint graph"},
      {kRulePlanNotReady, Severity::kError,
       "forward plan was not built for this graph"},
      {kRulePlanEncodePartition, Severity::kError,
       "plan encode rows are not a partition of the graph's nodes"},
      {kRuleTapeGemmMismatch, Severity::kError,
       "GEMM operand dimensions disagree"},
      {kRuleTapeConcatMismatch, Severity::kError,
       "column concatenation row counts disagree"},
      {kRuleTapeGatherRange, Severity::kError,
       "row-gather index out of range"},
      {kRuleTapeScatterRange, Severity::kError,
       "row-scatter indices out of range, duplicated, or shape-mismatched"},
      {kRuleTapeSegmentMalformed, Severity::kError,
       "segment-sum offsets/children malformed"},
      {kRuleTapeAddRowMismatch, Severity::kError,
       "row-broadcast add shapes disagree"},
      {kRuleTapeResultNotScalar, Severity::kError,
       "forward result is not one scalar per graph copy"},
      {kRuleTapeBadOperand, Severity::kError,
       "tape op references an undefined operand"},
      {kRuleModelLoadFailed, Severity::kError,
       "model file does not deserialize into the expected architecture"},
      {kRuleModelNonFinite, Severity::kError,
       "model parameter contains NaN or infinity"},
      {kRuleTraceParseFailed, Severity::kError,
       "trace file is malformed past the last readable record"},
      {kRuleTraceIndexOrder, Severity::kError,
       "block index record ranges are not monotone and contiguous from 0"},
      {kRuleTraceIndexBounds, Severity::kError,
       "block index entry points outside the file's block region or "
       "advertises an absurd uncompressed size"},
      {kRuleTraceIndexCount, Severity::kError,
       "block index record total disagrees with the header record count"},
      {kRuleTraceIndexUnreadable, Severity::kError,
       "compressed trace's block index is missing, truncated, or fails its "
       "checksum"},
      {kRuleIntervalDiverged, Severity::kError,
       "interval propagation diverged (cyclic dataflow or unbounded "
       "rate/state quantities)"},
      {kRuleIntervalNodeInfeasible, Severity::kWarning,
       "proven per-node demand lower bound exceeds the node's capacity "
       "(crash or guaranteed backpressure)"},
      {kRuleIntervalLinkChoked, Severity::kWarning,
       "proven per-link traffic lower bound exceeds the link's bandwidth"},
      {kRuleIntervalSourceSpec, Severity::kError,
       "source spec seeds no sound rate interval (non-finite rate, width or "
       "type fractions)"},
      {kRuleIntervalDelayBound, Severity::kWarning,
       "proven minimum sink delay exceeds the run duration (no window can "
       "close in time)"},
  };
  return catalog;
}

std::string_view RuleFamily(std::string_view id) {
  const std::string_view prefix = id.substr(0, 2);
  if (prefix == "QG") return "query-graph";
  if (prefix == "PL") return "placement";
  if (prefix == "JG") return "joint-graph";
  if (prefix == "FP") return "forward-plan";
  if (prefix == "TP") return "tape-shape";
  if (prefix == "MF") return "model-file";
  if (prefix == "TR") return "trace-file";
  if (prefix == "DF") return "interval-dataflow";
  return "unknown";
}

bool IsKnownRule(std::string_view id) {
  for (const RuleInfo& rule : RuleCatalog()) {
    if (rule.id == id) return true;
  }
  return false;
}

}  // namespace costream::verify
