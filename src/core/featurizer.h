#ifndef COSTREAM_CORE_FEATURIZER_H_
#define COSTREAM_CORE_FEATURIZER_H_

#include <utility>
#include <vector>

#include "dsps/query_graph.h"
#include "sim/hardware.h"

namespace costream::core {

// Node kinds of the joint operator-resource graph (paper Figure 3 step 3:
// operators, data sources/sinks and hardware instances in one graph, each
// with a node-type specific encoder).
enum class NodeKind {
  kSource,
  kFilter,
  kWindow,
  kAggregate,
  kJoin,
  kSink,
  kHost,
};
inline constexpr int kNumNodeKinds = 7;

const char* ToString(NodeKind kind);

// Feature vector dimensionality per node kind (fixed by the transferable
// feature set of Table I).
int FeatureDim(NodeKind kind);

// Which parts of the joint graph are featurized; used by the ablation study
// of Exp 7a (Figure 12).
enum class FeaturizationMode {
  // Only the operator graph: no host nodes, no placement information.
  kOperatorsOnly,
  // Host nodes and placement edges exist (co-location is visible), but the
  // hardware features themselves are blanked out.
  kPlacementOnly,
  // The full scheme: placement edges plus hardware features.
  kFull,
};

// One node of the joint graph.
struct JointNode {
  NodeKind kind = NodeKind::kSource;
  std::vector<double> features;
};

// The joint operator-resource graph handed to the GNN. Operator nodes keep
// the ids of the underlying QueryGraph; host nodes are appended after them
// (one per hardware node that hosts at least one operator, in first-use
// order, see NumberHosts).
//
// A batch graph (BuildBatchGraph) holds `copies` disjoint copies of one
// operator structure, each with its own placement: every copy's operator
// nodes first, copy by copy, then every copy's host nodes, copy by copy.
// Every other graph holds one copy.
struct JointGraph {
  std::vector<JointNode> nodes;
  // Logical data flow between operator nodes (from -> to).
  std::vector<std::pair<int, int>> dataflow_edges;
  // Operator node -> host node (the placement mapping w_i -> n_j).
  std::vector<std::pair<int, int>> placement_edges;
  // Operator nodes in topological data-flow order (sources first).
  std::vector<int> topo_order;
  int num_operator_nodes = 0;  // over all copies
  int num_host_nodes = 0;      // over all copies
  int copies = 1;
};

// Normalizes raw feature values onto roughly [0, 1] using log scales anchored
// at the training grid bounds of Table II. Values outside the training range
// land outside [0, 1], which is what lets the model extrapolate (Exp 4).
double NormalizeEventRate(double rate);
double NormalizeCpu(double cpu_pct);
double NormalizeRam(double ram_mb);
double NormalizeBandwidth(double mbits);
double NormalizeNetworkLatency(double ms);
double NormalizeCountWindow(double tuples);
double NormalizeTimeWindow(double seconds);
double NormalizeTupleWidth(double width);
// Selectivities span many orders of magnitude (joins go down to 1e-4); the
// log transform lets the GNN compose selectivity products along the data
// flow as sums of hidden-state contributions.
double NormalizeSelectivity(double selectivity);
// Degree of parallelism (extension): log2 scale, 0 for one instance.
double NormalizeParallelism(int parallelism);

// Builds the joint graph for a placed query. The same query/cluster pair
// yields different graphs for different placements, which is exactly the
// signal the model uses to rank placement candidates.
JointGraph BuildJointGraph(const dsps::QueryGraph& query,
                           const sim::Cluster& cluster,
                           const sim::Placement& placement,
                           FeaturizationMode mode = FeaturizationMode::kFull);

// First-use host numbering, the one order in which joint graphs list their
// host nodes: walks `placement` in operator order and numbers each hardware
// node at its first use, continuing from host_hw.size(). Appends operator
// op's host number to `op_host` and each newly numbered hardware node to
// `host_hw`. `hw_host` is scratch, resized to `num_hw_nodes`.
void NumberHosts(const sim::Placement& placement, int num_hw_nodes,
                 std::vector<int>& hw_host, std::vector<int>& op_host,
                 std::vector<int>& host_hw);

// Rewrites `batch` in place as the batch graph of `placements` over the
// operator structure `op_graph`: one copy per placement, laid out as
// JointGraph describes, with every edge list and the topological order
// offset per copy. Nodes carry kinds only. `host_hw` receives each host
// node's hardware node (host i is node num_operator_nodes + i); under
// kOperatorsOnly there are no hosts.
void BuildBatchGraph(const JointGraph& op_graph,
                     const std::vector<const sim::Placement*>& placements,
                     int num_hw_nodes, FeaturizationMode mode,
                     JointGraph& batch, std::vector<int>& host_hw);

// The placement-independent prefix of the joint graph: operator nodes,
// dataflow edges and topological order, with no host tail. Placement scoring
// builds this once per query and only rewrites the host tail per candidate
// (see placement::PlacementScorer); BuildJointGraph composes the same parts,
// so the cached graphs are identical to freshly built ones.
JointGraph BuildOperatorGraph(const dsps::QueryGraph& query);

// The feature vector of a host node under `mode` (kPlacementOnly blanks the
// hardware features; must not be called for kOperatorsOnly). The cluster
// overload additionally derives the node's geo/WAN link features (mean
// outgoing link bandwidth and latency from the cluster's link matrix); the
// per-node overload uses the legacy fallback where every outgoing link runs
// at the NIC profile, so both agree on matrix-free clusters.
std::vector<double> HostNodeFeatures(const sim::HardwareNode& hw,
                                     FeaturizationMode mode);
std::vector<double> HostNodeFeatures(const sim::Cluster& cluster, int node,
                                     FeaturizationMode mode);

// Overwrites the parallelism feature (the trailing entry of every operator
// feature vector) of operator node `op` in place. Equivalent to rebuilding
// the graph from a query whose operator has `parallelism` instances.
void SetParallelismFeature(JointGraph& graph, int op, int parallelism);

}  // namespace costream::core

#endif  // COSTREAM_CORE_FEATURIZER_H_
