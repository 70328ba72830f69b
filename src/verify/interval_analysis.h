#ifndef COSTREAM_VERIFY_INTERVAL_ANALYSIS_H_
#define COSTREAM_VERIFY_INTERVAL_ANALYSIS_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "dsps/query_graph.h"
#include "sim/cost_model.h"
#include "sim/flow_math.h"
#include "sim/fluid_engine.h"
#include "sim/hardware.h"
#include "verify/rules.h"

namespace costream::verify {

// Interval abstract interpretation over streaming-query DAGs (DF rule
// family). The analysis propagates closed [lo, hi] intervals for tuple
// rates, window contents, operator state and CPU load forward through the
// operator graph. It runs the fluid engine's own flow math
// (sim/flow_math.h) instantiated at Interval: every formula is monotone in
// its flow inputs and the divisions pair opposite endpoints, so the bounds
// are sound, and a point interval equals the fluid value bit for bit.
// Combined with a placement and a cluster, the per-operator intervals yield
// *proven* per-node CPU/RAM/network and per-directed-link bandwidth
// intervals: any value the fluid engine can produce at the nominal source
// rates lies inside them. Three consumers:
//
//   * lint rules DF001-DF005 (VerifyPlacedQuery / costream_lint),
//   * a runtime oracle cross-checking every fluid evaluation (CheckFluidOracle,
//     called from EvaluateFluid when verification is enabled),
//   * the placement service's candidate pre-pass, which prunes candidates
//     proven to crash before GEMM scoring (service.scoring.pruned).

// Closed interval over non-negative reals (hi may be +infinity after
// widening). The empty interval is represented by lo > hi and only appears
// transiently for inconsistent inputs (DF004). A double converts to the
// point interval, so the shared flow math can mix intervals and constants.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  constexpr Interval() = default;
  constexpr Interval(double v) : lo(v), hi(v) {}
  constexpr Interval(double lo_in, double hi_in) : lo(lo_in), hi(hi_in) {}

  static Interval Point(double v) { return {v, v}; }
  static Interval Of(double lo, double hi) { return {lo, hi}; }

  bool valid() const { return lo <= hi; }
  bool is_point() const { return lo == hi; }

  // Containment with relative slack. Point intervals equal the fluid values
  // exactly; the slack keeps the oracle a soundness check on the bounds, not
  // an equality check.
  bool Contains(double v, double rel_tol) const;
};

// Sound interval arithmetic over non-negative quantities, endpoint by
// endpoint: the operations the shared flow math (sim/flow_math.h) uses.
inline Interval operator+(const Interval& a, const Interval& b) {
  return {a.lo + b.lo, a.hi + b.hi};
}
// 0 * inf is 0 for these quantities: a zero rate carries no load no matter
// how wide the opposite bound is.
inline Interval operator*(const Interval& a, const Interval& b) {
  auto mul = [](double x, double y) {
    return (x == 0.0 || y == 0.0) ? 0.0 : x * y;
  };
  return {mul(a.lo, b.lo), mul(a.hi, b.hi)};
}
// a / b with b > 0: antitone in b, so the endpoints pair crosswise.
inline Interval operator/(const Interval& a, const Interval& b) {
  return {a.lo / b.hi, a.hi / b.lo};
}
inline Interval Max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}
inline Interval Min(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}
inline Interval Clamp(const Interval& v, const Interval& lo,
                      const Interval& hi) {
  return {std::clamp(v.lo, lo.lo, hi.lo), std::clamp(v.hi, lo.hi, hi.hi)};
}
inline Interval IfPositive(const Interval& condition, const Interval& x) {
  return {condition.lo > 0.0 ? x.lo : 0.0, condition.hi > 0.0 ? x.hi : 0.0};
}
// `f` must be nondecreasing.
template <typename F>
Interval Map(F f, const Interval& x) {
  return {f(x.lo), f(x.hi)};
}
// GC slowdown over a memory interval; an unbounded (or NaN) upper bound
// maps to +infinity.
inline Interval GcSlowdown(const Interval& memory_mb, double ram_mb) {
  return {sim::GcSlowdown(memory_mb.lo, ram_mb),
          std::isfinite(memory_mb.hi)
              ? sim::GcSlowdown(memory_mb.hi, ram_mb)
              : std::numeric_limits<double>::infinity()};
}
// Smallest interval containing both (the lattice join used by widening).
Interval IntervalJoin(const Interval& a, const Interval& b);

struct IntervalOptions {
  // Relative slack applied to every source's declared event rate: the seeded
  // rate interval is [rate*(1-u), rate*(1+u)]. 0 (the default) makes the
  // analysis exact at the nominal rates, which is what the fluid oracle and
  // the pruning pre-pass need.
  double rate_uncertainty = 0.0;
  // Absolute slack applied to every selectivity, clamped to [0, 1].
  double selectivity_uncertainty = 0.0;
  // Run duration against which the DF005 delay bound is checked. Matches
  // FluidConfig::duration_s.
  double duration_s = 240.0;
  // Fixpoint rounds before widening to +infinity on cyclic graphs. Cycles
  // are already QG003 errors; bounded iteration plus widening just keeps the
  // analysis total (it terminates and stays sound on any input).
  int max_iterations = 4;
};

// Per-operator flow intervals at the nominal source rates (scale == 1): the
// shared flow math's Flow<Interval>.
struct OpIntervals : sim::Flow<Interval> {
  // Lower bound on the event-time delay (ms) from the oldest contributing
  // input tuple to this operator's output: the sum of window residence
  // waits along the slowest path. Transfer, queueing and service times are
  // non-negative, so this bounds the fluid latency DP from below at any
  // source scale (count-based windows only fill slower when throttled).
  double min_delay_ms = 0.0;
};

struct QueryIntervalSummary {
  std::vector<OpIntervals> ops;
  // True when widening fired (cyclic graph) or a quantity overflowed to
  // +infinity / NaN: some interval carries no finite upper bound (DF001).
  bool diverged = false;
  // True when a source spec seeded an inconsistent interval (DF004).
  bool inconsistent_source = false;
  // Lower bound on the processing latency at the sink (DF005 checks it
  // against the run duration).
  double min_sink_delay_ms = 0.0;
};

// Propagates intervals through the query graph. `report` may be null; when
// given, DF001 (divergence) and DF004 (inconsistent source spec) errors and
// the DF005 (delay bound exceeds the run duration) warning are appended.
// Never aborts, even on structurally invalid graphs (malformed arity feeds
// zero intervals; cycles widen).
QueryIntervalSummary AnalyzeQueryIntervals(const dsps::QueryGraph& query,
                                           const IntervalOptions& options,
                                           VerifyReport* report);

// Proven per-node demand and utilization: the shared flow math's node
// accumulation at the nominal rates (background included when given).
struct NodeIntervals : sim::NodeLoad<Interval> {
  // memory_mb.lo exceeds CrashMemoryMb(ram): the worker provably crashes.
  bool proven_crash = false;
  // cpu or net utilization lower bound exceeds 1: provable backpressure.
  bool proven_overload = false;
};

struct PlacementIntervalSummary {
  std::vector<NodeIntervals> nodes;
  // Flattened row-major n*n per-directed-link utilization intervals; only
  // populated when the cluster carries a link matrix.
  std::vector<Interval> link_utilization;
  // Any node's proven_crash: the placement cannot run to completion.
  bool proven_crash = false;
};

// Combines per-operator intervals with a placement and cluster into proven
// per-node and per-link demand intervals. `background` may be null (idle
// cluster); `report` may be null; when given, DF002 (proven-infeasible node)
// and DF003 (proven-choked link) warnings are appended. The query/placement
// pair must be structurally valid (placement sized and in range).
PlacementIntervalSummary AnalyzePlacementIntervals(
    const dsps::QueryGraph& query, const sim::Cluster& cluster,
    const sim::Placement& placement, const QueryIntervalSummary& intervals,
    const sim::BackgroundLoad* background, VerifyReport* report);

// Runs both passes with default options and appends every DF diagnostic to
// `report`. Called from VerifyPlacedQuery once the structural rules pass.
void VerifyIntervals(const dsps::QueryGraph& query, const sim::Cluster& cluster,
                     const sim::Placement& placement,
                     const IntervalOptions& options, VerifyReport* report);

// One fluid evaluation's observables at the nominal source rates, for the
// runtime oracle.
struct FluidOracleInput {
  std::vector<double> node_cpu_utilization;  // per node, nominal scale
  std::vector<double> node_net_utilization;
  std::vector<double> link_utilization;      // n*n when a link matrix exists
  // Noiseless end-of-run processing latency; negative skips the check.
  double processing_latency_ms = -1.0;
  double duration_s = 240.0;
};

// Cross-checks a fluid evaluation against the proven intervals: every
// per-node cpu/net utilization and per-link utilization must lie inside its
// interval, and the processing latency must dominate the proven lower bound.
// Returns an empty string when everything is contained, otherwise a
// description of the first violation. Pure (no counters, no abort) so tests
// can probe it with fabricated inputs.
std::string CheckFluidOracle(const dsps::QueryGraph& query,
                             const sim::Cluster& cluster,
                             const sim::Placement& placement,
                             const sim::BackgroundLoad* background,
                             const FluidOracleInput& input);

}  // namespace costream::verify

#endif  // COSTREAM_VERIFY_INTERVAL_ANALYSIS_H_
