#include "core/featurizer.h"

#include <cmath>

#include "common/check.h"

namespace costream::core {

namespace {

using dsps::DataType;
using dsps::OperatorDescriptor;
using dsps::OperatorType;

// Log-scale min-max normalization anchored at [lo, hi].
double LogNorm(double value, double lo, double hi) {
  const double v = std::max(value, 1e-9);
  return (std::log(v) - std::log(lo)) / (std::log(hi) - std::log(lo));
}

void OneHot(std::vector<double>& out, int index, int size) {
  for (int i = 0; i < size; ++i) out.push_back(i == index ? 1.0 : 0.0);
}

int DataTypeIndex(DataType t) { return static_cast<int>(t); }

}  // namespace

const char* ToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource:
      return "source";
    case NodeKind::kFilter:
      return "filter";
    case NodeKind::kWindow:
      return "window";
    case NodeKind::kAggregate:
      return "aggregate";
    case NodeKind::kJoin:
      return "join";
    case NodeKind::kSink:
      return "sink";
    case NodeKind::kHost:
      return "host";
  }
  return "?";
}

int FeatureDim(NodeKind kind) {
  // Every operator kind carries a trailing parallelism feature (degree-of-
  // parallelism extension; 0 for the default of one instance).
  switch (kind) {
    case NodeKind::kSource:
      return 6;  // rate, width, frac int/double/string, parallelism
    case NodeKind::kFilter:
      return 14;  // function (7), literal type (3), sel (raw+log), width, par
    case NodeKind::kWindow:
      return 9;  // type (2), policy (2), count/time size, slide, width, par
    case NodeKind::kAggregate:
      return 16;  // func (4), group-by (4), agg type (3), sel x2, widths, par
    case NodeKind::kJoin:
      return 8;  // key type (3), selectivity (raw+log), widths, parallelism
    case NodeKind::kSink:
      return 2;  // width, parallelism
    case NodeKind::kHost:
      return 6;  // cpu, ram, bandwidth, latency, link bandwidth, link latency
  }
  return 0;
}

// Training grid bounds of Table II used as normalization anchors.
double NormalizeEventRate(double rate) { return LogNorm(rate, 20.0, 25600.0); }
double NormalizeCpu(double cpu_pct) { return LogNorm(cpu_pct, 50.0, 800.0); }
double NormalizeRam(double ram_mb) { return LogNorm(ram_mb, 1000.0, 32000.0); }
double NormalizeBandwidth(double mbits) {
  return LogNorm(mbits, 25.0, 10000.0);
}
double NormalizeNetworkLatency(double ms) { return LogNorm(ms, 1.0, 160.0); }
double NormalizeCountWindow(double tuples) {
  return LogNorm(tuples, 5.0, 640.0);
}
double NormalizeTimeWindow(double seconds) {
  return LogNorm(seconds, 0.25, 16.0);
}
double NormalizeTupleWidth(double width) { return width / 10.0; }
double NormalizeSelectivity(double selectivity) {
  return LogNorm(std::max(selectivity, 1e-6), 1e-4, 1.0);
}
double NormalizeParallelism(int parallelism) {
  return std::log2(static_cast<double>(std::max(parallelism, 1))) / 3.0;
}

namespace {

NodeKind KindOf(OperatorType type) {
  switch (type) {
    case OperatorType::kSource:
      return NodeKind::kSource;
    case OperatorType::kFilter:
      return NodeKind::kFilter;
    case OperatorType::kWindow:
      return NodeKind::kWindow;
    case OperatorType::kAggregate:
      return NodeKind::kAggregate;
    case OperatorType::kJoin:
      return NodeKind::kJoin;
    case OperatorType::kSink:
      return NodeKind::kSink;
  }
  return NodeKind::kSink;
}

std::vector<double> OperatorFeatures(const OperatorDescriptor& op) {
  std::vector<double> f;
  switch (op.type) {
    case OperatorType::kSource:
      f.push_back(NormalizeEventRate(op.input_event_rate));
      f.push_back(NormalizeTupleWidth(op.tuple_width_out));
      f.push_back(op.frac_int);
      f.push_back(op.frac_double);
      f.push_back(op.frac_string);
      break;
    case OperatorType::kFilter:
      OneHot(f, static_cast<int>(op.filter_function), 7);
      OneHot(f, DataTypeIndex(op.literal_data_type), 3);
      f.push_back(op.selectivity);
      f.push_back(NormalizeSelectivity(op.selectivity));
      f.push_back(NormalizeTupleWidth(op.tuple_width_in));
      break;
    case OperatorType::kWindow: {
      OneHot(f, static_cast<int>(op.window.type), 2);
      OneHot(f, static_cast<int>(op.window.policy), 2);
      const bool count = op.window.policy == dsps::WindowPolicy::kCountBased;
      f.push_back(count ? NormalizeCountWindow(op.window.size) : 0.0);
      f.push_back(count ? 0.0 : NormalizeTimeWindow(op.window.size));
      f.push_back(op.window.EffectiveSlide() / std::max(op.window.size, 1e-9));
      f.push_back(NormalizeTupleWidth(op.tuple_width_in));
      break;
    }
    case OperatorType::kAggregate:
      OneHot(f, static_cast<int>(op.aggregate_function), 4);
      OneHot(f, static_cast<int>(op.group_by_type), 4);
      OneHot(f, DataTypeIndex(op.aggregate_data_type), 3);
      f.push_back(op.selectivity);
      f.push_back(NormalizeSelectivity(op.selectivity));
      f.push_back(NormalizeTupleWidth(op.tuple_width_in));
      f.push_back(NormalizeTupleWidth(op.tuple_width_out));
      break;
    case OperatorType::kJoin:
      OneHot(f, DataTypeIndex(op.join_key_type), 3);
      f.push_back(op.selectivity);
      f.push_back(NormalizeSelectivity(op.selectivity));
      f.push_back(NormalizeTupleWidth(op.tuple_width_in));
      f.push_back(NormalizeTupleWidth(op.tuple_width_out));
      break;
    case OperatorType::kSink:
      f.push_back(NormalizeTupleWidth(op.tuple_width_in));
      break;
  }
  f.push_back(NormalizeParallelism(op.parallelism));
  return f;
}

}  // namespace

namespace {

// Mean outgoing link profile of `node`: the WAN features of a geo-distributed
// cluster. For legacy clusters (or single-node ones) the link accessors fall
// back to the per-node NIC, so these degenerate to the node's own
// bandwidth/latency and the encoding stays deterministic across formats.
void MeanOutgoingLink(const sim::Cluster& cluster, int node, double* bw,
                      double* lat) {
  const int n = cluster.num_nodes();
  if (n <= 1) {
    *bw = cluster.nodes[node].bandwidth_mbits;
    *lat = cluster.nodes[node].latency_ms;
    return;
  }
  double bw_sum = 0.0;
  double lat_sum = 0.0;
  for (int to = 0; to < n; ++to) {
    if (to == node) continue;
    bw_sum += cluster.LinkBandwidthMbits(node, to);
    lat_sum += cluster.LinkLatencyMs(node, to);
  }
  *bw = bw_sum / (n - 1);
  *lat = lat_sum / (n - 1);
}

std::vector<double> HostFeatureVector(const sim::HardwareNode& hw,
                                      double link_bw, double link_lat,
                                      FeaturizationMode mode) {
  COSTREAM_CHECK(mode != FeaturizationMode::kOperatorsOnly);
  if (mode == FeaturizationMode::kPlacementOnly) {
    // The host node exists (placement/co-location is visible) but carries no
    // hardware information (Exp 7a, middle scheme of Figure 12).
    return {0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  }
  return {NormalizeCpu(hw.cpu_pct),
          NormalizeRam(hw.ram_mb),
          NormalizeBandwidth(hw.bandwidth_mbits),
          NormalizeNetworkLatency(hw.latency_ms),
          NormalizeBandwidth(link_bw),
          NormalizeNetworkLatency(link_lat)};
}

}  // namespace

std::vector<double> HostNodeFeatures(const sim::HardwareNode& hw,
                                     FeaturizationMode mode) {
  // Per-node fallback: every outgoing link runs at the NIC profile.
  return HostFeatureVector(hw, hw.bandwidth_mbits, hw.latency_ms, mode);
}

std::vector<double> HostNodeFeatures(const sim::Cluster& cluster, int node,
                                     FeaturizationMode mode) {
  double link_bw = 0.0;
  double link_lat = 0.0;
  MeanOutgoingLink(cluster, node, &link_bw, &link_lat);
  return HostFeatureVector(cluster.nodes[node], link_bw, link_lat, mode);
}

JointGraph BuildOperatorGraph(const dsps::QueryGraph& query) {
  JointGraph graph;
  graph.num_operator_nodes = query.num_operators();
  graph.nodes.reserve(query.num_operators());
  for (int i = 0; i < query.num_operators(); ++i) {
    JointNode node;
    node.kind = KindOf(query.op(i).type);
    node.features = OperatorFeatures(query.op(i));
    COSTREAM_CHECK(static_cast<int>(node.features.size()) ==
                   FeatureDim(node.kind));
    graph.nodes.push_back(std::move(node));
  }
  graph.dataflow_edges = query.edges();
  graph.topo_order = query.TopologicalOrder();
  return graph;
}

void SetParallelismFeature(JointGraph& graph, int op, int parallelism) {
  COSTREAM_CHECK(op >= 0 && op < graph.num_operator_nodes);
  graph.nodes[op].features.back() = NormalizeParallelism(parallelism);
}

void NumberHosts(const sim::Placement& placement, int num_hw_nodes,
                 std::vector<int>& hw_host, std::vector<int>& op_host,
                 std::vector<int>& host_hw) {
  hw_host.assign(num_hw_nodes, -1);
  for (const int hw : placement) {
    COSTREAM_DCHECK(hw >= 0 && hw < num_hw_nodes);
    if (hw_host[hw] < 0) {
      hw_host[hw] = static_cast<int>(host_hw.size());
      host_hw.push_back(hw);
    }
    op_host.push_back(hw_host[hw]);
  }
}

JointGraph BuildJointGraph(const dsps::QueryGraph& query,
                           const sim::Cluster& cluster,
                           const sim::Placement& placement,
                           FeaturizationMode mode) {
  COSTREAM_CHECK_MSG(
      sim::ValidatePlacement(query, cluster, placement).empty(),
      "invalid placement");
  JointGraph op_graph = BuildOperatorGraph(query);
  JointGraph graph;
  std::vector<int> host_hw;
  BuildBatchGraph(op_graph, {&placement}, cluster.num_nodes(), mode, graph,
                  host_hw);
  for (int v = 0; v < graph.num_operator_nodes; ++v) {
    graph.nodes[v].features = std::move(op_graph.nodes[v].features);
  }
  for (size_t i = 0; i < host_hw.size(); ++i) {
    graph.nodes[graph.num_operator_nodes + i].features =
        HostNodeFeatures(cluster, host_hw[i], mode);
  }
  return graph;
}

void BuildBatchGraph(const JointGraph& op_graph,
                     const std::vector<const sim::Placement*>& placements,
                     int num_hw_nodes, FeaturizationMode mode,
                     JointGraph& batch, std::vector<int>& host_hw) {
  COSTREAM_CHECK(op_graph.copies == 1 && op_graph.num_host_nodes == 0);
  const int n = op_graph.num_operator_nodes;
  const int copies = static_cast<int>(placements.size());
  const int num_ops = copies * n;

  host_hw.clear();
  std::vector<int> hw_host, op_host;
  if (mode != FeaturizationMode::kOperatorsOnly) {
    op_host.reserve(num_ops);
    for (const sim::Placement* placement : placements) {
      COSTREAM_CHECK(static_cast<int>(placement->size()) == n);
      NumberHosts(*placement, num_hw_nodes, hw_host, op_host, host_hw);
    }
  }

  batch.copies = copies;
  batch.num_operator_nodes = num_ops;
  batch.num_host_nodes = static_cast<int>(host_hw.size());
  batch.nodes.resize(num_ops + host_hw.size());
  for (int v = 0; v < static_cast<int>(batch.nodes.size()); ++v) {
    JointNode& node = batch.nodes[v];
    node.kind = v < num_ops ? op_graph.nodes[v % n].kind : NodeKind::kHost;
    node.features.clear();
  }
  batch.dataflow_edges.clear();
  batch.topo_order.clear();
  for (int c = 0; c < copies; ++c) {
    const int base = c * n;
    for (const auto& [from, to] : op_graph.dataflow_edges) {
      batch.dataflow_edges.emplace_back(base + from, base + to);
    }
    for (const int v : op_graph.topo_order) batch.topo_order.push_back(base + v);
  }
  // Host numbers run across copies, so copy c's hosts follow copy c-1's.
  batch.placement_edges.clear();
  for (int op = 0; op < static_cast<int>(op_host.size()); ++op) {
    batch.placement_edges.emplace_back(op, num_ops + op_host[op]);
  }
}

}  // namespace costream::core
