#include "sim/fluid_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "nn/random.h"
#include "obs/metrics.h"
#include "sim/cost_model.h"
#include "sim/flow_math.h"
#include "verify/interval_analysis.h"
#include "verify/verify.h"

namespace costream::sim {

namespace {

using dsps::OperatorDescriptor;
using dsps::OperatorType;
using dsps::QueryGraph;

// Utilization above which queueing delays are capped (fluid M/M/1 waiting
// time would diverge at 1.0).
constexpr double kQueueCap = 0.97;

using Flows = std::vector<Flow<double>>;

Flows ComputeFlows(const QueryGraph& query, const std::vector<int>& topo,
                   double scale) {
  Flows flows(query.num_operators());
  for (int id : topo) {
    const OperatorDescriptor& op = query.op(id);
    const std::vector<int> upstream = query.Upstream(id);
    COSTREAM_CHECK(op.type != OperatorType::kAggregate ||
                   upstream.size() == 1);
    COSTREAM_CHECK(op.type != OperatorType::kJoin || upstream.size() == 2);
    FlowStep(op, upstream, flows, scale, op.selectivity, flows[id]);
  }
  return flows;
}

struct NodeEval {
  std::vector<NodeStats> stats;
  // Per directed link (flattened row-major), only filled when the cluster
  // carries a link matrix; empty for legacy per-node clusters.
  std::vector<double> link_utilization;
  double max_utilization = 0.0;
};

NodeEval EvaluateNodes(const QueryGraph& query, const Cluster& cluster,
                       const Placement& placement, const Flows& flows,
                       const BackgroundLoad& background) {
  NodeEval eval;
  std::vector<NodeLoad<double>> loads(cluster.num_nodes());
  const bool has_links = cluster.has_link_matrix();
  AccumulateNodeLoads(query, placement, flows, &background, loads,
                      has_links ? &eval.link_utilization : nullptr);
  eval.stats.resize(cluster.num_nodes());
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    NodeLoad<double>& load = loads[n];
    const HardwareNode& hw = cluster.nodes[n];
    UtilizeNode(hw, load);
    NodeStats& s = eval.stats[n];
    s.cpu_utilization = load.cpu_utilization;
    s.net_utilization = load.net_utilization;
    s.memory_mb = load.memory_mb;
    s.gc_factor = load.gc_factor;
    s.crashed = s.memory_mb > CrashMemoryMb(hw.ram_mb);
    eval.max_utilization = std::max(
        eval.max_utilization, std::max(s.cpu_utilization, s.net_utilization));
  }
  // Per-link constraint: a WAN link saturates independently of the sender's
  // NIC, and every flow routed over it is throttled together.
  if (has_links) {
    UtilizeLinks(cluster, eval.link_utilization);
    for (double util : eval.link_utilization) {
      eval.max_utilization = std::max(eval.max_utilization, util);
    }
  }
  // Per-operator constraint: one operator instance runs single-threaded, so
  // an operator can use at most min(parallelism, node cores) cores even on
  // otherwise idle machines (Storm-executor semantics; the parallelism
  // extension raises this cap).
  for (int id = 0; id < query.num_operators(); ++id) {
    const int n = placement[id];
    const HardwareNode& hw = cluster.nodes[n];
    const double op_cores =
        EffectiveOpCores(query.op(id).parallelism, hw.cpu_pct);
    const double op_util =
        flows[id].cpu_load_us * eval.stats[n].gc_factor / 1e6 / op_cores;
    eval.max_utilization = std::max(eval.max_utilization, op_util);
  }
  return eval;
}

double QueueMultiplier(double utilization) {
  return 1.0 / (1.0 - std::min(utilization, kQueueCap));
}

// The part of an evaluation both entry points need: the nominal flows and
// node evaluation, and the sustained source scale.
struct ScaledFlows {
  std::vector<int> topo;
  Flows nominal_flows;
  NodeEval nominal_eval;
  bool backpressure = false;
  double scale = 1.0;
};

// Checks the inputs (and runs the verifier when verification is on), then
// evaluates the nominal rates and, under backpressure, bisects for the
// sustainable source scale (the largest fraction of the nominal rates whose
// bottleneck utilization is <= 1).
ScaledFlows EvaluateScale(const QueryGraph& query, const Cluster& cluster,
                          const Placement& placement,
                          const BackgroundLoad& background) {
  COSTREAM_CHECK_MSG(query.Validate().empty(), query.Validate().c_str());
  COSTREAM_CHECK_MSG(ValidatePlacement(query, cluster, placement).empty(),
                     "invalid placement");
  COSTREAM_CHECK_MSG(ValidateLinkMatrix(cluster).empty(),
                     ValidateLinkMatrix(cluster).c_str());
  COSTREAM_CHECK(background.empty() ||
                 static_cast<int>(background.cpu_load_us.size()) ==
                     cluster.num_nodes());
  if (verify::VerificationEnabled()) {
    verify::VerifyReport vreport;
    verify::VerifyPlacedQuery(query, cluster, placement, &vreport);
    verify::CheckOrDie(vreport, "EvaluateFluid");
  }
  static obs::Counter& metric_evals = obs::GetCounter("sim.fluid.evaluations");
  static obs::Counter& metric_bisect_iters =
      obs::GetCounter("sim.fluid.bisection_iterations");
  static obs::Counter& metric_backpressure =
      obs::GetCounter("sim.fluid.backpressure");
  metric_evals.Increment();

  ScaledFlows out;
  out.topo = query.TopologicalOrder();
  // Utilization at the nominal rates decides backpressure.
  out.nominal_flows = ComputeFlows(query, out.topo, 1.0);
  out.nominal_eval = EvaluateNodes(query, cluster, placement,
                                   out.nominal_flows, background);
  out.backpressure = out.nominal_eval.max_utilization > 1.0;
  if (out.backpressure) {
    metric_backpressure.Increment();
    double lo = 0.0;
    double hi = 1.0;
    for (int iter = 0; iter < 40; ++iter) {
      metric_bisect_iters.Increment();
      const double mid = 0.5 * (lo + hi);
      const Flows flows = ComputeFlows(query, out.topo, std::max(mid, 1e-9));
      const NodeEval eval =
          EvaluateNodes(query, cluster, placement, flows, background);
      if (eval.max_utilization > 1.0) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    out.scale = std::max(lo, 1e-9);
  }
  return out;
}

// Runs the runtime oracle when verification is on: the nominal (scale = 1)
// per-node and per-link utilizations, plus the noiseless processing latency
// when one was computed (negative: none), must lie inside the intervals
// proven by the DF dataflow analysis. Both run the same flow math
// (flow_math.h), so a violation means the interval arithmetic over it is
// unsound — abort loudly rather than silently produce labels the verifier
// can't vouch for.
void CheckOracle(const QueryGraph& query, const Cluster& cluster,
                 const Placement& placement, const BackgroundLoad& background,
                 const NodeEval& nominal_eval, double processing_latency_ms,
                 double duration_s) {
  if (!verify::VerificationEnabled()) return;
  static obs::Counter& metric_oracle_checks =
      obs::GetCounter("verify.oracle.checks");
  static obs::Counter& metric_oracle_violations =
      obs::GetCounter("verify.oracle.violations");
  verify::FluidOracleInput oracle;
  oracle.node_cpu_utilization.reserve(nominal_eval.stats.size());
  oracle.node_net_utilization.reserve(nominal_eval.stats.size());
  for (const NodeStats& s : nominal_eval.stats) {
    oracle.node_cpu_utilization.push_back(s.cpu_utilization);
    oracle.node_net_utilization.push_back(s.net_utilization);
  }
  oracle.link_utilization = nominal_eval.link_utilization;
  oracle.processing_latency_ms = processing_latency_ms;
  oracle.duration_s = duration_s;
  metric_oracle_checks.Increment();
  const std::string violation = verify::CheckFluidOracle(
      query, cluster, placement, &background, oracle);
  if (!violation.empty()) {
    metric_oracle_violations.Increment();
    std::fprintf(stderr, "[costream] fluid oracle violation: %s\n",
                 violation.c_str());
    std::abort();
  }
}

}  // namespace

FluidReport EvaluateFluid(const QueryGraph& query, const Cluster& cluster,
                          const Placement& placement,
                          const FluidConfig& config) {
  static obs::Counter& metric_crashes = obs::GetCounter("sim.fluid.crashes");
  const ScaledFlows scaled =
      EvaluateScale(query, cluster, placement, config.background);
  const std::vector<int>& topo = scaled.topo;
  const bool backpressure = scaled.backpressure;
  const double scale = scaled.scale;

  FluidReport report;
  report.bottleneck_utilization = scaled.nominal_eval.max_utilization;
  report.source_scale = scale;

  // Without backpressure the sustained rates are the nominal ones.
  const Flows flows = backpressure ? ComputeFlows(query, topo, scale)
                                   : scaled.nominal_flows;
  const NodeEval eval =
      backpressure ? EvaluateNodes(query, cluster, placement, flows,
                                   config.background)
                   : scaled.nominal_eval;
  report.node_stats = eval.stats;
  report.link_utilization = eval.link_utilization;
  report.op_cpu_load_us.reserve(query.num_operators());
  report.op_state_mb.reserve(query.num_operators());
  for (int id = 0; id < query.num_operators(); ++id) {
    report.op_cpu_load_us.push_back(flows[id].cpu_load_us);
    report.op_state_mb.push_back(flows[id].state_mb);
  }

  // Backpressure rate R (Definition 4): surplus arrivals queuing up.
  if (backpressure) {
    for (int src : query.Sources()) {
      report.backpressure_rate +=
          query.op(src).input_event_rate * (1.0 - scale);
    }
    // Queued-up tuples occupy worker buffers on the nodes hosting the
    // sources; sustained backpressure can therefore exhaust memory and
    // crash the query (paper Section I: full internal queues lead to delays
    // "and even query crashes"). The backlog accrues over the run, bounded
    // by the consumer's in-flight window. Sources sharing a node pool their
    // backlog, so accumulate per node before re-evaluating.
    std::vector<double> backlog_mb(cluster.num_nodes(), 0.0);
    for (int src : query.Sources()) {
      const double surplus_rate =
          query.op(src).input_event_rate * (1.0 - scale);
      const double backlog_tuples =
          std::min(surplus_rate * config.duration_s, 2e6);
      backlog_mb[placement[src]] +=
          backlog_tuples * flows[src].out_bytes * 0.25 / (1024.0 * 1024.0);
    }
    // Re-evaluate each affected node once. One pass reaches the exact fixed
    // point: the backlog size depends only on the bisected source scale and
    // the run duration, never on gc_factor, so the chain backlog -> memory ->
    // GC slowdown -> cpu_utilization has no cycle. The cpu load itself is
    // unchanged, so utilization scales by the gc_factor ratio.
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      if (backlog_mb[n] <= 0.0) continue;
      NodeStats& s = report.node_stats[n];
      const double old_gc = s.gc_factor;
      s.memory_mb += backlog_mb[n];
      const double ram = cluster.nodes[n].ram_mb;
      s.gc_factor = GcSlowdown(s.memory_mb, ram);
      s.crashed = s.crashed || s.memory_mb > CrashMemoryMb(ram);
      s.cpu_utilization *= s.gc_factor / std::max(old_gc, 1e-12);
    }
  }

  // Latency DP along the data flow (Definition 2: time from the oldest
  // contributing input tuple's ingestion to the output's arrival at the
  // sink).
  // Reads report.node_stats (not eval.stats) so service times on nodes that
  // absorbed backpressure backlog see the raised GC slowdown.
  std::vector<double> latency_ms(query.num_operators(), 0.0);
  for (int id : topo) {
    const int node = placement[id];
    const NodeStats& ns = report.node_stats[node];
    const HardwareNode& hw = cluster.nodes[node];
    double arrival = 0.0;
    for (int up : query.Upstream(id)) {
      double edge_ms = 0.0;
      const int up_node = placement[up];
      if (up_node != node) {
        const NodeStats& up_stats = report.node_stats[up_node];
        const HardwareNode& up_hw = cluster.nodes[up_node];
        if (cluster.has_link_matrix()) {
          // Per-link WAN model: the edge pays the link's own latency and is
          // queued behind every co-routed flow sharing this link.
          const double link_util =
              report.link_utilization[up_node * cluster.num_nodes() + node];
          const double transfer_ms =
              flows[up].out_bytes * 8.0 /
              std::max(cluster.LinkBandwidthMbits(up_node, node) * 1e6, 1.0) *
              1000.0;
          edge_ms = cluster.LinkLatencyMs(up_node, node) +
                    transfer_ms * QueueMultiplier(link_util);
        } else {
          const double transfer_ms =
              flows[up].out_bytes * 8.0 /
              std::max(up_hw.bandwidth_mbits * 1e6, 1.0) * 1000.0;
          edge_ms = up_hw.latency_ms +
                    transfer_ms * QueueMultiplier(up_stats.net_utilization);
        }
      }
      arrival = std::max(arrival, latency_ms[up] + edge_ms);
    }
    // A single tuple is processed by one instance, which runs on one core.
    const double instance_cores = std::min(hw.cpu_pct / 100.0, 1.0);
    const double service_ms = flows[id].service_us * ns.gc_factor /
                              std::max(instance_cores, 1e-3) / 1000.0 *
                              QueueMultiplier(ns.cpu_utilization);
    // Windowed results wait for the window to fill / slide: the oldest
    // contributing tuple resides for up to a full window.
    const double window_wait_ms =
        (flows[id].window_duration_s + flows[id].slide_duration_s) * 0.5 *
        1000.0;
    latency_ms[id] = arrival + service_ms + window_wait_ms;
  }

  CostMetrics& m = report.noiseless_metrics;
  const int sink = query.Sink();
  m.throughput = flows[sink].out_rate;
  m.processing_latency_ms = latency_ms[sink];
  m.backpressure = backpressure;
  double broker_wait_ms = kBrokerBaseLatencyMs;
  if (backpressure) {
    // Queues in the broker grow linearly over the run; the mean waiting time
    // over the execution is about half of the accumulated lag.
    broker_wait_ms += (1.0 - scale) * config.duration_s * 0.5 * 1000.0;
  }
  m.e2e_latency_ms = m.processing_latency_ms + broker_wait_ms;

  bool crashed = false;
  for (const NodeStats& s : report.node_stats) crashed = crashed || s.crashed;
  if (crashed) metric_crashes.Increment();
  const double expected_outputs = m.throughput * config.duration_s;
  m.success = !crashed && expected_outputs >= 1.0 &&
              m.processing_latency_ms <= config.duration_s * 1000.0;
  if (crashed) {
    m.throughput = 0.0;
    m.e2e_latency_ms = config.duration_s * 1000.0;
  }

  report.metrics = m;
  // Crashed queries carry exact capped labels (zero throughput, latency
  // pinned to the run duration); noising them would contradict the caps.
  if (config.noise_sigma > 0.0 && !crashed) {
    nn::Rng rng(config.noise_seed);
    CostMetrics& noisy = report.metrics;
    noisy.throughput *= rng.LogNormalFactor(config.noise_sigma);
    noisy.processing_latency_ms *= rng.LogNormalFactor(config.noise_sigma);
    noisy.e2e_latency_ms *= rng.LogNormalFactor(config.noise_sigma);
    // The success bit was decided against the noiseless metrics; recompute it
    // so success == 1 still implies the reported latency is under the run cap
    // after noise.
    noisy.success = noisy.throughput * config.duration_s >= 1.0 &&
                    noisy.processing_latency_ms <= config.duration_s * 1000.0;
  }

  CheckOracle(query, cluster, placement, config.background,
              scaled.nominal_eval,
              report.noiseless_metrics.processing_latency_ms,
              config.duration_s);
  return report;
}

BackgroundLoad ComputeBackgroundLoad(const QueryGraph& query,
                                     const Cluster& cluster,
                                     const Placement& placement) {
  // Only the sustained scale is needed: no latency DP, metrics or report.
  const BackgroundLoad idle;
  const ScaledFlows scaled = EvaluateScale(query, cluster, placement, idle);
  // No latency was computed, so the oracle has no latency bound to check.
  CheckOracle(query, cluster, placement, idle, scaled.nominal_eval, -1.0,
              FluidConfig().duration_s);
  const Flows flows = scaled.backpressure
                          ? ComputeFlows(query, scaled.topo, scaled.scale)
                          : scaled.nominal_flows;
  std::vector<NodeLoad<double>> loads(cluster.num_nodes());
  // Each query runs its own worker process on every node it touches, so the
  // loads include the worker base memory.
  AccumulateNodeLoads(query, placement, flows, nullptr, loads, nullptr);
  BackgroundLoad load;
  load.cpu_load_us.reserve(loads.size());
  load.out_bytes_per_s.reserve(loads.size());
  load.memory_mb.reserve(loads.size());
  for (const NodeLoad<double>& s : loads) {
    load.cpu_load_us.push_back(s.cpu_load_us);
    load.out_bytes_per_s.push_back(s.egress_bytes_per_s);
    load.memory_mb.push_back(s.memory_mb);
  }
  return load;
}

void AccumulateBackgroundLoad(const BackgroundLoad& extra, int nodes,
                              BackgroundLoad* base) {
  COSTREAM_CHECK(base != nullptr);
  if (base->empty()) {
    base->cpu_load_us.assign(nodes, 0.0);
    base->out_bytes_per_s.assign(nodes, 0.0);
    base->memory_mb.assign(nodes, 0.0);
  }
  COSTREAM_CHECK(static_cast<int>(base->cpu_load_us.size()) == nodes);
  COSTREAM_CHECK(extra.cpu_load_us.size() == base->cpu_load_us.size());
  for (int n = 0; n < nodes; ++n) {
    base->cpu_load_us[n] += extra.cpu_load_us[n];
    base->out_bytes_per_s[n] += extra.out_bytes_per_s[n];
    base->memory_mb[n] += extra.memory_mb[n];
  }
}

NodeCapacity CapacityOf(const HardwareNode& node) {
  NodeCapacity cap;
  // The capacities UtilizeNode (flow_math.h) divides by: cpu_utilization =
  // cpu_load_us / 1e6 / cores, net_utilization = out_bytes * 8 /
  // (bandwidth_mbits * 1e6).
  cap.cpu_us_per_s = std::max(node.cpu_pct / 100.0, 1e-3) * 1e6;
  cap.net_bytes_per_s = std::max(node.bandwidth_mbits * 1e6, 1.0) / 8.0;
  cap.ram_mb = node.ram_mb;
  return cap;
}

Cluster DerateCluster(const Cluster& cluster, const BackgroundLoad& background) {
  if (background.empty()) return cluster;
  COSTREAM_CHECK(static_cast<int>(background.cpu_load_us.size()) ==
                 cluster.num_nodes());
  Cluster derated = cluster;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    HardwareNode& hw = derated.nodes[n];
    const NodeCapacity cap = CapacityOf(hw);
    const double cpu_util = background.cpu_load_us[n] / cap.cpu_us_per_s;
    hw.cpu_pct = std::max(hw.cpu_pct * (1.0 - cpu_util), 10.0);
    const double net_util = background.out_bytes_per_s[n] / cap.net_bytes_per_s;
    hw.bandwidth_mbits = std::max(hw.bandwidth_mbits * (1.0 - net_util), 1.0);
    hw.ram_mb = std::max(hw.ram_mb - background.memory_mb[n], 128.0);
  }
  return derated;
}

}  // namespace costream::sim
