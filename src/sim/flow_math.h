#ifndef COSTREAM_SIM_FLOW_MATH_H_
#define COSTREAM_SIM_FLOW_MATH_H_

#include <algorithm>
#include <vector>

#include "dsps/query_graph.h"
#include "sim/cost_model.h"
#include "sim/fluid_engine.h"
#include "sim/hardware.h"

namespace costream::sim {

// Steady-state flow math, written once over its scalar type T. The fluid
// engine instantiates it at `double`; the DF interval analysis instantiates
// it at `verify::Interval`, whose operators evaluate each formula over
// bounds. Every formula is nondecreasing in its flow inputs except the
// divisions, which the interval `/` handles by pairing opposite endpoints,
// so the interval instance is sound and its point case is the fluid value
// bit for bit. Beyond + * /, the math uses only Max, Min, Clamp, IfPositive,
// Map (apply a nondecreasing scalar function) and GcSlowdown. The `double`
// overloads follow (GcSlowdown's is in cost_model.h); the Interval ones are
// declared with that type and found by argument-dependent lookup.

inline constexpr double kEpsRate = 1e-9;
inline constexpr double kMaxDuration = 1e12;

inline double Max(double a, double b) { return std::max(a, b); }
inline double Min(double a, double b) { return std::min(a, b); }
inline double Clamp(double v, double lo, double hi) {
  return std::clamp(v, lo, hi);
}
// `x` where `condition` is positive, zero elsewhere.
inline double IfPositive(double condition, double x) {
  return condition > 0.0 ? x : 0.0;
}
template <typename F>
double Map(F f, double x) {
  return f(x);
}

// Steady-state flow through one operator.
template <typename T>
struct Flow {
  T in_rate{};            // tuples/s entering the operator
  T out_rate{};           // tuples/s leaving the operator
  T window_tuples{};      // window nodes; zero elsewhere
  T window_duration_s{};
  T slide_duration_s{};
  T groups{};             // aggregate operators
  T state_mb{};           // operator state held in memory
  T cpu_load_us{};        // reference-core microseconds per second
  T service_us{};         // mean per-tuple service time (reference core)
  double in_bytes = 0.0;  // bytes per tuple are point values
  double out_bytes = 0.0;
};

// Every T-valued field of Flow<T>, for code that treats them alike.
template <typename T>
inline constexpr T Flow<T>::*kFlowFields[] = {
    &Flow<T>::in_rate,          &Flow<T>::out_rate,
    &Flow<T>::window_tuples,    &Flow<T>::window_duration_s,
    &Flow<T>::slide_duration_s, &Flow<T>::groups,
    &Flow<T>::state_mb,         &Flow<T>::cpu_load_us,
    &Flow<T>::service_us};

// Computes operator `op`'s flow into `f` from its inputs' flows. `upstream`
// is query.Upstream(op's id) and `flows` is indexed by operator id (its
// elements derive from Flow<T>). Sources emit their event rate times
// `scale`; filters, aggregates and joins use `selectivity`. An aggregate
// reads its window only when it has exactly one input and a join reads
// inputs 0 and 1 where present; any other arity reads as zero flow.
template <typename T, typename Flows>
void FlowStep(const dsps::OperatorDescriptor& op,
              const std::vector<int>& upstream, const Flows& flows,
              const T& scale, const T& selectivity, Flow<T>& f) {
  f = Flow<T>{};
  f.in_bytes = dsps::TupleBytes(op.tuple_width_in, op.frac_int,
                                op.frac_double, op.frac_string);
  f.out_bytes = dsps::TupleBytes(op.tuple_width_out, op.frac_int,
                                 op.frac_double, op.frac_string);
  for (int up : upstream) f.in_rate = f.in_rate + flows[up].out_rate;
  static constexpr Flow<T> kNone{};
  const size_t arity = upstream.size();
  f.service_us = PerTupleCostUs(op);

  switch (op.type) {
    case dsps::OperatorType::kSource:
      f.out_rate = op.input_event_rate * scale;
      f.cpu_load_us = f.out_rate * f.service_us;
      f.in_bytes = f.out_bytes;
      break;
    case dsps::OperatorType::kFilter:
      f.out_rate = f.in_rate * selectivity;
      f.cpu_load_us = f.in_rate * f.service_us;
      break;
    case dsps::OperatorType::kWindow: {
      f.out_rate = f.in_rate;
      const T rate = Max(f.in_rate, kEpsRate);
      if (op.window.policy == dsps::WindowPolicy::kCountBased) {
        // Durations fall as the rate rises: the fastest arrivals fill the
        // window soonest.
        f.window_tuples = op.window.size;
        f.window_duration_s = Min(op.window.size / rate, kMaxDuration);
        f.slide_duration_s =
            Min(op.window.EffectiveSlide() / rate, kMaxDuration);
      } else {
        f.window_duration_s = op.window.size;
        f.window_tuples = rate * op.window.size;
        f.slide_duration_s = op.window.EffectiveSlide();
      }
      f.cpu_load_us = f.in_rate * f.service_us;
      const double bytes = f.in_bytes;
      f.state_mb = Map([bytes](double n) { return WindowStateMb(n, bytes); },
                       f.window_tuples);
      break;
    }
    case dsps::OperatorType::kAggregate: {
      const Flow<T>& w = arity == 1 ? flows[upstream[0]] : kNone;
      f.groups = op.group_by_type != dsps::GroupByType::kNone
                     ? Clamp(selectivity * w.window_tuples, 1.0,
                             Max(w.window_tuples, 1.0))
                     : T(1.0);
      const T slide = Max(w.slide_duration_s, 1e-6);
      f.out_rate = IfPositive(w.window_tuples, f.groups / slide);
      f.cpu_load_us =
          f.in_rate * f.service_us + f.out_rate * PerOutputCostUs(op);
      const double bytes = f.out_bytes;
      f.state_mb = Map([bytes](double g) { return AggregateStateMb(g, bytes); },
                       f.groups);
      break;
    }
    case dsps::OperatorType::kJoin: {
      const Flow<T>& w1 = arity >= 1 ? flows[upstream[0]] : kNone;
      const Flow<T>& w2 = arity >= 2 ? flows[upstream[1]] : kNone;
      // Each arriving tuple of stream 1 probes window 2 and vice versa
      // (Definition 7 gives the match probability).
      f.out_rate = selectivity * (w1.out_rate * w2.window_tuples +
                                  w2.out_rate * w1.window_tuples);
      // The probe cost grows (logarithmically) with the opposite window.
      auto probe_cost = [&op](double window) {
        return PerTupleCostUs(op, window);
      };
      const T probes = w1.out_rate * Map(probe_cost, w2.window_tuples) +
                       w2.out_rate * Map(probe_cost, w1.window_tuples);
      f.cpu_load_us = probes + f.out_rate * PerOutputCostUs(op);
      f.service_us = probes / Max(w1.out_rate + w2.out_rate, kEpsRate);
      // Probe index over both windows.
      const double bytes1 = w1.out_bytes;
      const double bytes2 = w2.out_bytes;
      f.state_mb =
          0.3 *
          (Map([bytes1](double n) { return WindowStateMb(n, bytes1); },
               w1.window_tuples) +
           Map([bytes2](double n) { return WindowStateMb(n, bytes2); },
               w2.window_tuples));
      break;
    }
    case dsps::OperatorType::kSink:
      f.out_rate = f.in_rate;
      f.cpu_load_us = f.in_rate * f.service_us;
      break;
  }
}

// Demand placed on one node, and the utilizations it causes.
template <typename T>
struct NodeLoad {
  T cpu_load_us{};  // reference-core microseconds per second
  T memory_mb{};
  T egress_bytes_per_s{};
  T gc_factor{};
  T cpu_utilization{};
  T net_utilization{};
  bool hosts_op = false;
};

// Adds the placed query's demand into `nodes` (sized to the cluster, zero),
// in one fixed order: `background` (null, empty or sized to the cluster),
// then operators ascending, then edges in insertion order, then the worker
// base memory of every node hosting an operator. When `link_bytes` is
// non-null it is sized num_nodes^2 and receives each directed link's traffic
// (row-major); flows routed over the same node pair sum into one link.
template <typename Flows, typename Node>
void AccumulateNodeLoads(
    const dsps::QueryGraph& query, const Placement& placement,
    const Flows& flows, const BackgroundLoad* background,
    std::vector<Node>& nodes,
    std::vector<decltype(Node::cpu_load_us)>* link_bytes) {
  using T = decltype(Node::cpu_load_us);
  const int num_nodes = static_cast<int>(nodes.size());
  if (background != nullptr && !background->empty()) {
    for (int n = 0; n < num_nodes; ++n) {
      Node& s = nodes[n];
      s.cpu_load_us = s.cpu_load_us + background->cpu_load_us[n];
      s.egress_bytes_per_s =
          s.egress_bytes_per_s + background->out_bytes_per_s[n];
      s.memory_mb = s.memory_mb + background->memory_mb[n];
    }
  }
  for (int id = 0; id < query.num_operators(); ++id) {
    const Flow<T>& f = flows[id];
    Node& s = nodes[placement[id]];
    s.hosts_op = true;
    s.cpu_load_us = s.cpu_load_us + f.cpu_load_us;
    s.memory_mb = s.memory_mb + f.state_mb;
    // In-flight queue buffers (~50ms of arrivals).
    s.memory_mb = s.memory_mb + f.in_rate * f.in_bytes *
                                    kInflightBufferSeconds / (1024.0 * 1024.0);
  }
  if (link_bytes != nullptr) {
    link_bytes->assign(static_cast<size_t>(num_nodes) * num_nodes, T{});
  }
  for (const auto& [from, to] : query.edges()) {
    if (placement[from] == placement[to]) continue;
    const T bytes = flows[from].out_rate * flows[from].out_bytes;
    Node& s = nodes[placement[from]];
    s.egress_bytes_per_s = s.egress_bytes_per_s + bytes;
    if (link_bytes != nullptr) {
      T& link = (*link_bytes)[placement[from] * num_nodes + placement[to]];
      link = link + bytes;
    }
  }
  for (Node& s : nodes) {
    if (s.hosts_op) s.memory_mb = s.memory_mb + kWorkerBaseMemoryMb;
  }
}

// Fills the node's GC factor and CPU and NIC utilizations from its load.
template <typename T>
void UtilizeNode(const HardwareNode& hw, NodeLoad<T>& s) {
  s.gc_factor = GcSlowdown(s.memory_mb, hw.ram_mb);
  const double cores = hw.cpu_pct / 100.0;
  s.cpu_utilization =
      s.cpu_load_us * s.gc_factor / 1e6 / std::max(cores, 1e-3);
  s.net_utilization =
      s.egress_bytes_per_s * 8.0 / std::max(hw.bandwidth_mbits * 1e6, 1.0);
}

// Turns AccumulateNodeLoads' per-link bytes into per-link utilizations, in
// place. The diagonal (same-node handoffs) carries no traffic and stays 0.
template <typename T>
void UtilizeLinks(const Cluster& cluster, std::vector<T>& links) {
  const int n = cluster.num_nodes();
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (from == to) continue;
      T& link = links[from * n + to];
      link = link * 8.0 /
             std::max(cluster.LinkBandwidthMbits(from, to) * 1e6, 1.0);
    }
  }
}

}  // namespace costream::sim

#endif  // COSTREAM_SIM_FLOW_MATH_H_
