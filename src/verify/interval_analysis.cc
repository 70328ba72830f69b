#include "verify/interval_analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "sim/cost_model.h"

namespace costream::verify {

namespace {

using dsps::OperatorDescriptor;
using dsps::OperatorType;
using dsps::QueryGraph;

constexpr double kInf = std::numeric_limits<double>::infinity();

using FlowField = Interval sim::Flow<Interval>::*;

// The service-time bound feeds only the fluid latency DP: the analysis
// carries a sound bound for it (joined and widened like the rest), but the
// fixpoint test and the divergence check look at the proven quantities only.
bool Proven(FlowField field) {
  return field != &sim::Flow<Interval>::service_us;
}

std::string OpLoc(int id) { return "op[" + std::to_string(id) + "]"; }

bool FiniteInterval(const Interval& v) {
  return std::isfinite(v.lo) && std::isfinite(v.hi) && v.valid();
}

bool OpFinite(const OpIntervals& f) {
  for (FlowField field : sim::kFlowFields<Interval>) {
    if (Proven(field) && !FiniteInterval(f.*field)) return false;
  }
  return std::isfinite(f.min_delay_ms);
}

// Selectivity interval under the configured uncertainty. At zero uncertainty
// this is exactly the declared selectivity (QG008 keeps it inside [0, 1], so
// the clamp is the identity).
Interval SelInterval(double selectivity, const IntervalOptions& options) {
  const double u = options.selectivity_uncertainty;
  return {std::clamp(selectivity - u, 0.0, 1.0),
          std::clamp(selectivity + u, 0.0, 1.0)};
}

// One operator's transfer function: the shared flow step over the seeded
// source-rate band and selectivity interval, plus the window residence
// delay.
OpIntervals Transfer(const QueryGraph& query, int id,
                     const std::vector<OpIntervals>& flows,
                     const IntervalOptions& options) {
  const OperatorDescriptor& op = query.op(id);
  const std::vector<int> upstream = query.Upstream(id);
  const double u = options.rate_uncertainty;
  OpIntervals f;
  sim::FlowStep(op, upstream, flows, Interval{1.0 - u, 1.0 + u},
                SelInterval(op.selectivity, options), f);
  for (int up : upstream) {
    f.min_delay_ms = std::max(f.min_delay_ms, flows[up].min_delay_ms);
  }
  // Windowed results wait for the window to fill/slide (as in the fluid
  // latency DP); the lower bound is sound at any source scale because
  // throttling only lengthens count-based windows.
  f.min_delay_ms +=
      (f.window_duration_s.lo + f.slide_duration_s.lo) * 0.5 * 1000.0;
  return f;
}

bool SameOp(const OpIntervals& a, const OpIntervals& b) {
  for (FlowField field : sim::kFlowFields<Interval>) {
    if (Proven(field) &&
        ((a.*field).lo != (b.*field).lo || (a.*field).hi != (b.*field).hi)) {
      return false;
    }
  }
  return a.min_delay_ms == b.min_delay_ms;
}

OpIntervals JoinOps(const OpIntervals& a, const OpIntervals& b) {
  OpIntervals j = b;
  for (FlowField field : sim::kFlowFields<Interval>) {
    j.*field = IntervalJoin(a.*field, b.*field);
  }
  j.min_delay_ms = std::min(a.min_delay_ms, b.min_delay_ms);
  return j;
}

void WidenOp(OpIntervals* f) {
  for (FlowField field : sim::kFlowFields<Interval>) (f->*field).hi = kInf;
  // The delay lower bound stays a lower bound (0 is always sound).
  f->min_delay_ms = 0.0;
}

// Checks one source spec before seeding: the interval domain refuses
// non-finite rates, widths or type fractions — no sound interval exists for
// them (DF004).
bool SourceSpecConsistent(const OperatorDescriptor& op,
                          const IntervalOptions& options) {
  if (!std::isfinite(op.input_event_rate) || op.input_event_rate < 0.0) {
    return false;
  }
  if (!std::isfinite(op.tuple_width_out) || op.tuple_width_out < 0.0) {
    return false;
  }
  const double bytes = dsps::TupleBytes(op.tuple_width_out, op.frac_int,
                                        op.frac_double, op.frac_string);
  if (!std::isfinite(bytes) || bytes < 0.0) return false;
  if (!std::isfinite(options.rate_uncertainty) ||
      options.rate_uncertainty < 0.0) {
    return false;
  }
  return true;
}

}  // namespace

bool Interval::Contains(double v, double rel_tol) const {
  const double slack_lo = rel_tol * std::max(1.0, std::abs(lo));
  if (v < lo - slack_lo) return false;
  if (hi == kInf) return true;
  const double slack_hi = rel_tol * std::max(1.0, std::abs(hi));
  return v <= hi + slack_hi;
}

Interval IntervalJoin(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

QueryIntervalSummary AnalyzeQueryIntervals(const QueryGraph& query,
                                           const IntervalOptions& options,
                                           VerifyReport* report) {
  const int n = query.num_operators();
  QueryIntervalSummary summary;
  summary.ops.resize(n);

  for (int id = 0; id < n; ++id) {
    const OperatorDescriptor& op = query.op(id);
    if (op.type == OperatorType::kSource &&
        !SourceSpecConsistent(op, options)) {
      summary.inconsistent_source = true;
      if (report != nullptr) {
        report->Add(kRuleIntervalSourceSpec, Severity::kError, OpLoc(id),
                    "source spec seeds no sound rate interval (rate " +
                        std::to_string(op.input_event_rate) + ", width " +
                        std::to_string(op.tuple_width_out) + ")",
                    "source rate, tuple width and type fractions must be "
                    "finite and non-negative");
      }
    }
  }

  std::vector<int> topo;
  if (query.TryTopologicalOrder(&topo)) {
    // Acyclic (the only structurally valid shape): one exact pass suffices.
    for (int id : topo) {
      summary.ops[id] = Transfer(query, id, summary.ops, options);
    }
  } else {
    // Cyclic joint graphs are QG003 errors, but the analysis must still
    // terminate soundly on them: iterate to a bounded fixpoint under the
    // lattice join, then widen whatever keeps growing to +infinity.
    const int rounds = std::max(options.max_iterations, 1);
    bool stable = false;
    for (int round = 0; round < rounds && !stable; ++round) {
      stable = true;
      for (int id = 0; id < n; ++id) {
        const OpIntervals next =
            JoinOps(summary.ops[id], Transfer(query, id, summary.ops, options));
        if (!SameOp(next, summary.ops[id])) stable = false;
        summary.ops[id] = next;
      }
    }
    if (!stable) {
      summary.diverged = true;
      for (int id = 0; id < n; ++id) WidenOp(&summary.ops[id]);
    }
  }

  // Divergence also covers overflow to infinity / NaN in acyclic graphs.
  for (int id = 0; id < n && !summary.diverged; ++id) {
    if (!OpFinite(summary.ops[id])) summary.diverged = true;
  }
  if (summary.diverged && report != nullptr) {
    report->Add(kRuleIntervalDiverged, Severity::kError, "graph",
                "interval propagation diverged: some rate/state bound is "
                "unbounded (cyclic dataflow or overflowing quantities)",
                "break dataflow cycles and keep rates/windows finite");
  }

  int sink = -1;
  for (int id = 0; id < n; ++id) {
    if (query.op(id).type == OperatorType::kSink) sink = id;
  }
  if (sink >= 0) {
    summary.min_sink_delay_ms = summary.ops[sink].min_delay_ms;
    if (report != nullptr && options.duration_s > 0.0 &&
        summary.min_sink_delay_ms > options.duration_s * 1000.0) {
      report->Add(
          kRuleIntervalDelayBound, Severity::kWarning, OpLoc(sink),
          "proven minimum sink delay " +
              std::to_string(summary.min_sink_delay_ms / 1000.0) +
              "s exceeds the " + std::to_string(options.duration_s) +
              "s run: no window can close in time, the query cannot succeed",
          "shrink the window size/slide or extend the run duration");
    }
  }
  return summary;
}

PlacementIntervalSummary AnalyzePlacementIntervals(
    const QueryGraph& query, const sim::Cluster& cluster,
    const sim::Placement& placement, const QueryIntervalSummary& intervals,
    const sim::BackgroundLoad* background, VerifyReport* report) {
  PlacementIntervalSummary summary;
  const int nodes = cluster.num_nodes();
  const int n = query.num_operators();
  if (nodes == 0 || static_cast<int>(placement.size()) != n ||
      static_cast<int>(intervals.ops.size()) != n) {
    return summary;
  }
  for (int id = 0; id < n; ++id) {
    if (placement[id] < 0 || placement[id] >= nodes) return summary;
  }
  summary.nodes.resize(nodes);

  const bool has_links =
      cluster.has_link_matrix() && sim::ValidateLinkMatrix(cluster).empty();
  const bool loaded = background != nullptr &&
                      static_cast<int>(background->cpu_load_us.size()) == nodes;
  sim::AccumulateNodeLoads(query, placement, intervals.ops,
                           loaded ? background : nullptr, summary.nodes,
                           has_links ? &summary.link_utilization : nullptr);
  for (int node = 0; node < nodes; ++node) {
    NodeIntervals& s = summary.nodes[node];
    const sim::HardwareNode& hw = cluster.nodes[node];
    sim::UtilizeNode(hw, s);
    s.proven_crash = s.memory_mb.lo > sim::CrashMemoryMb(hw.ram_mb);
    s.proven_overload =
        s.cpu_utilization.lo > 1.0 || s.net_utilization.lo > 1.0;
    summary.proven_crash = summary.proven_crash || s.proven_crash;
    if (report != nullptr && (s.proven_crash || s.proven_overload)) {
      std::string what;
      if (s.proven_crash) {
        what = "proven memory demand " + std::to_string(s.memory_mb.lo) +
               "MB exceeds the " +
               std::to_string(sim::CrashMemoryMb(hw.ram_mb)) +
               "MB crash threshold";
      } else if (s.cpu_utilization.lo > 1.0) {
        what = "proven CPU demand is " + std::to_string(s.cpu_utilization.lo) +
               "x the node's capacity";
      } else {
        what = "proven egress is " + std::to_string(s.net_utilization.lo) +
               "x the node's bandwidth";
      }
      report->Add(kRuleIntervalNodeInfeasible, Severity::kWarning,
                  "node[" + std::to_string(node) + "]",
                  "node proven infeasible: " + what,
                  "spread operators across nodes or use larger hardware "
                  "(expect backpressure or a crash label)");
    }
  }
  if (has_links) {
    sim::UtilizeLinks(cluster, summary.link_utilization);
    for (int from = 0; from < nodes; ++from) {
      for (int to = 0; to < nodes; ++to) {
        const Interval& util = summary.link_utilization[from * nodes + to];
        if (report != nullptr && util.lo > 1.0) {
          report->Add(kRuleIntervalLinkChoked, Severity::kWarning,
                      "link[" + std::to_string(from) + "->" +
                          std::to_string(to) + "]",
                      "link proven choked: traffic lower bound is " +
                          std::to_string(util.lo) + "x the link bandwidth",
                      "co-locate the endpoints or route over a "
                      "better-provisioned link (expect backpressure)");
        }
      }
    }
  }
  return summary;
}

void VerifyIntervals(const QueryGraph& query, const sim::Cluster& cluster,
                     const sim::Placement& placement,
                     const IntervalOptions& options, VerifyReport* report) {
  const QueryIntervalSummary intervals =
      AnalyzeQueryIntervals(query, options, report);
  AnalyzePlacementIntervals(query, cluster, placement, intervals, nullptr,
                            report);
}

std::string CheckFluidOracle(const QueryGraph& query,
                             const sim::Cluster& cluster,
                             const sim::Placement& placement,
                             const sim::BackgroundLoad* background,
                             const FluidOracleInput& input) {
  constexpr double kRelTol = 1e-6;
  IntervalOptions options;
  options.duration_s = input.duration_s;
  const QueryIntervalSummary intervals =
      AnalyzeQueryIntervals(query, options, nullptr);
  // No sound intervals exist for inconsistent sources; nothing to check
  // (the DF004 error already rejects the artifact at the entry points).
  if (intervals.inconsistent_source) return "";
  const PlacementIntervalSummary proven = AnalyzePlacementIntervals(
      query, cluster, placement, intervals, background, nullptr);
  const int nodes = cluster.num_nodes();
  if (static_cast<int>(proven.nodes.size()) != nodes) return "";

  auto violation = [](const std::string& what, int index, double value,
                      const Interval& bound) {
    return what + "[" + std::to_string(index) + "] = " +
           std::to_string(value) + " outside proven interval [" +
           std::to_string(bound.lo) + ", " + std::to_string(bound.hi) + "]";
  };
  if (static_cast<int>(input.node_cpu_utilization.size()) == nodes &&
      static_cast<int>(input.node_net_utilization.size()) == nodes) {
    for (int node = 0; node < nodes; ++node) {
      const NodeIntervals& s = proven.nodes[node];
      if (!s.cpu_utilization.Contains(input.node_cpu_utilization[node],
                                      kRelTol)) {
        return violation("node cpu_utilization", node,
                         input.node_cpu_utilization[node], s.cpu_utilization);
      }
      if (!s.net_utilization.Contains(input.node_net_utilization[node],
                                      kRelTol)) {
        return violation("node net_utilization", node,
                         input.node_net_utilization[node], s.net_utilization);
      }
    }
  }
  if (!input.link_utilization.empty() &&
      input.link_utilization.size() == proven.link_utilization.size()) {
    for (size_t l = 0; l < input.link_utilization.size(); ++l) {
      if (!proven.link_utilization[l].Contains(input.link_utilization[l],
                                               kRelTol)) {
        return violation("link_utilization", static_cast<int>(l),
                         input.link_utilization[l],
                         proven.link_utilization[l]);
      }
    }
  }
  if (input.processing_latency_ms >= 0.0) {
    const double floor =
        intervals.min_sink_delay_ms * (1.0 - kRelTol) - kRelTol;
    if (input.processing_latency_ms < floor) {
      return "processing_latency_ms = " +
             std::to_string(input.processing_latency_ms) +
             " below the proven window-delay lower bound " +
             std::to_string(intervals.min_sink_delay_ms);
    }
  }
  return "";
}

}  // namespace costream::verify
