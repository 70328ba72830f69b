#ifndef COSTREAM_SIM_COST_MODEL_H_
#define COSTREAM_SIM_COST_MODEL_H_

#include "dsps/operator_descriptor.h"

namespace costream::sim {

// Shared operator cost constants used by both the fluid cost engine and the
// discrete-event simulator, so that the two substrates agree on the ground
// truth per-tuple work and only differ in dynamics (queueing, scheduling,
// actual data). All costs are microseconds of a single reference core
// (cpu_pct == 100).

// CPU cost of comparing / hashing a single value of the given type.
double ValueCostUs(dsps::DataType type);

// CPU cost per *input* tuple of the operator. For joins, `other_window_size`
// is the (expected) number of tuples in the opposite window the input probes
// against; it is ignored for other operator kinds.
double PerTupleCostUs(const dsps::OperatorDescriptor& op,
                      double other_window_size = 0.0);

// CPU cost per *output* tuple (result materialization + forwarding).
double PerOutputCostUs(const dsps::OperatorDescriptor& op);

// Baseline memory footprint (MB) of the DSPS worker runtime on a node that
// hosts at least one operator (JVM + framework overhead in the paper's
// Storm setup).
inline constexpr double kWorkerBaseMemoryMb = 220.0;

// The DSPS worker's JVM heap is a fraction of the node's RAM (the OS, page
// cache and off-heap buffers take the rest); memory pressure is measured
// against this heap, not against raw RAM.
inline constexpr double kHeapFraction = 0.50;

// Heap occupancy ratio above which garbage collection starts degrading
// service times, and the ratio at which the worker crashes (paper: GC
// "might lead to application pauses and even crashes").
inline constexpr double kGcPressureStart = 0.70;
inline constexpr double kCrashHeapRatio = 1.30;

// Memory (MB) at which a worker on a node with `ram_mb` RAM crashes.
inline double CrashMemoryMb(double ram_mb) {
  return kCrashHeapRatio * kHeapFraction * ram_mb;
}

// Multiplier (>= 1) on service times caused by GC pressure at the given
// memory footprint vs. available RAM.
double GcSlowdown(double memory_mb, double ram_mb);

// State memory (MB) held for a window buffer of `window_tuples` tuples of
// `tuple_bytes` bytes each. Includes container overhead.
double WindowStateMb(double window_tuples, double tuple_bytes);

// State memory (MB) of an aggregation operator maintaining `groups` entries.
double AggregateStateMb(double groups, double tuple_bytes);

// Per-tuple broker handoff overhead (ms) when no backpressure occurs
// (producer batching + consumer poll interval).
inline constexpr double kBrokerBaseLatencyMs = 25.0;

// Seconds of arrivals buffered in in-flight queues per operator (the
// in-flight memory term of the shared node accumulation, flow_math.h).
inline constexpr double kInflightBufferSeconds = 0.05;

// Cores an operator with `parallelism` instances can actually use on a node
// offering `cpu_pct` percent of a reference core: capped both by the node
// and by one core per instance (Storm-executor semantics), floored so
// service rates stay positive. This is the single capacity formula shared by
// the fluid engine's per-operator utilization cap and the DES scheduler, so
// the two substrates agree on capacity exactly.
double EffectiveOpCores(int parallelism, double cpu_pct);

// Number of instances the DES per-instance scheduler may run concurrently
// for one operator: whole cores only, at least one (fractional leftovers are
// folded into the instance speed instead of an extra server).
int OperatorInstanceCap(int parallelism, double cpu_pct);

// Service cores of a single instance under per-instance scheduling. The cap
// times this equals EffectiveOpCores, so the aggregate service rate of a
// fully busy operator matches the fluid capacity model.
double InstanceServiceCores(int parallelism, double cpu_pct);

}  // namespace costream::sim

#endif  // COSTREAM_SIM_COST_MODEL_H_
