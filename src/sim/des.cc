#include "sim/des.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "nn/random.h"
#include "verify/verify.h"
#include "obs/metrics.h"
#include "sim/cost_model.h"
#include "sim/data_generator.h"
#include "sim/tuple.h"

namespace costream::sim {

namespace {

using dsps::OperatorDescriptor;
using dsps::OperatorType;
using dsps::QueryGraph;
using dsps::WindowPolicy;
using dsps::WindowType;

struct Event {
  enum class Kind { kProduce, kServiceDone, kNetArrival, kTimer };
  double time = 0.0;
  uint64_t seq = 0;  // tie breaker for determinism
  Kind kind = Kind::kProduce;
  int op = -1;       // kProduce: source op; kNetArrival/kTimer: target op
  int from_op = -1;  // kNetArrival: sender
  int node = -1;     // kServiceDone
  int slot = -1;     // kServiceDone under per-instance scheduling
  Tuple tuple;       // kNetArrival payload
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct Work {
  int op = -1;
  int from_op = -1;
  bool window_close = false;
  Tuple tuple;
  // Node-wide arrival order, assigned on enqueue; per-instance scheduling
  // uses it to pick the oldest startable item across the node's
  // per-operator FIFOs.
  uint64_t seq = 0;
};

// Entry of a window buffer: the tuple plus the time it entered the window.
struct WindowEntry {
  Tuple tuple;
  double insert_time = 0.0;
};

// Runtime state of a windowed aggregation.
struct AggState {
  std::deque<WindowEntry> buffer;
  uint64_t arrivals_since_emit = 0;
  double state_bytes = 0.0;
};

// One side of a windowed join: insertion-ordered entries plus a key index.
struct JoinSide {
  std::deque<WindowEntry> order;
  std::unordered_map<uint64_t, std::vector<Tuple>> by_key;
  uint64_t arrivals = 0;
  double state_bytes = 0.0;
};

struct JoinState {
  JoinSide sides[2];
};

struct NodeRuntime {
  std::deque<Work> queue;
  bool busy = false;
  Work current;
  std::vector<Tuple> pending_outputs;
  double link_free_time = 0.0;
  double queue_bytes = 0.0;
  double state_bytes = 0.0;
  double peak_bytes = 0.0;
  // Per-instance scheduling only: cores currently granted to running
  // instances on this node (bounded by the node's core count).
  double running_cores = 0.0;
  // Per-instance scheduling only: one FIFO per operator hosted on this node
  // (indexed by the operator's local index) so a saturated operator's
  // backlog never has to be rescanned to find a startable item.
  std::vector<std::deque<Work>> op_queues;
  size_t queue_len = 0;
};

// One in-flight operator instance under per-instance scheduling. Outputs are
// buffered here (not on the node) because several instances can be in
// service concurrently.
struct InFlight {
  int op = -1;
  double cores = 0.0;  // granted service cores, returned on completion
  std::vector<Tuple> outputs;
};

class DesEngine {
 public:
  DesEngine(const QueryGraph& query, const Cluster& cluster,
            const Placement& placement, const DesConfig& config)
      : query_(query),
        cluster_(cluster),
        placement_(placement),
        config_(config),
        rng_(config.seed ^ 0xD15Cul) {}

  DesReport Run();

 private:
  void Schedule(Event e) {
    e.seq = next_seq_++;
    events_.push(std::move(e));
  }

  double NodeMemoryMb(int n) const {
    return kWorkerBaseMemoryMb +
           (nodes_[n].queue_bytes + nodes_[n].state_bytes) / (1024.0 * 1024.0);
  }

  void TouchPeak(int n) {
    nodes_[n].peak_bytes = std::max(
        nodes_[n].peak_bytes, nodes_[n].queue_bytes + nodes_[n].state_bytes);
  }

  void Enqueue(int node, Work work, double now);
  void TryStart(int node, double now);
  // Per-instance scheduling: starts every queued work item whose operator
  // has a free instance slot and whose node has core budget left.
  void TryStartInstances(int node, double now);
  void FinishInstance(int node, int slot, double now);
  // Executes the operator logic of `work`, fills `outputs`, and returns the
  // CPU cost in reference-core microseconds.
  double Execute(const Work& work, double now, std::vector<Tuple>& outputs);
  void Route(int op, const Tuple& out, double now);

  double AggEmit(int op, AggState& state, std::vector<Tuple>& outputs);
  void AggEvict(int op, AggState& state, double now);
  void JoinEvict(int op, int side, JoinState& state, double now,
                 bool inserting);

  const QueryGraph& query_;
  const Cluster& cluster_;
  const Placement& placement_;
  const DesConfig& config_;
  nn::Rng rng_;

  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  uint64_t next_seq_ = 0;
  std::vector<NodeRuntime> nodes_;
  // Per directed (from, to) link free times, flattened row-major; only used
  // when the cluster carries a link matrix (legacy clusters keep the
  // per-sender NIC serialization in NodeRuntime::link_free_time).
  std::vector<double> link_free_time_;
  // Per-instance scheduling state (unused in the legacy single-server mode).
  std::vector<InFlight> inflight_;
  std::vector<int> free_slots_;
  std::vector<int> running_instances_;  // per operator
  std::vector<int> local_op_index_;     // op -> index into its node's FIFOs
  std::vector<std::vector<int>> node_ops_;  // node -> hosted operator ids
  uint64_t work_seq_ = 0;
  std::vector<AggState> agg_states_;
  std::vector<JoinState> join_states_;
  DataPlan data_plan_;
  // For joins: the window specs / upstream ids of both sides.
  std::vector<std::array<int, 2>> join_inputs_;

  uint64_t tuple_counter_ = 0;
  uint64_t produced_ = 0;
  uint64_t ingested_ = 0;
  // Tuples whose link transfer completes after the simulation cut-off: the
  // link's queue backlog at end of run (propagation-only flight excluded).
  uint64_t net_stuck_ = 0;
  uint64_t sink_count_ = 0;
  double sink_lp_sum_ = 0.0;
  double sink_le_sum_ = 0.0;
  bool crashed_ = false;
  size_t peak_queue_len_ = 0;
};

// Returns the window spec governing a windowed operator's input `up` (which
// is a window node by construction).
const dsps::WindowSpec& SpecOf(const QueryGraph& query, int window_op) {
  COSTREAM_CHECK(query.op(window_op).type == OperatorType::kWindow);
  return query.op(window_op).window;
}

void DesEngineInitPlanWindows(const QueryGraph& query,
                              std::vector<double>& expected_window) {
  // Expected window sizes for group-domain sizing come from the fluid flows
  // at nominal rate; a rough estimate suffices (it only sizes key domains).
  const std::vector<int> topo = query.TopologicalOrder();
  std::vector<double> rate(query.num_operators(), 0.0);
  std::vector<double> window(query.num_operators(), 0.0);
  for (int id : topo) {
    const OperatorDescriptor& op = query.op(id);
    double in = 0.0;
    for (int up : query.Upstream(id)) in += rate[up];
    switch (op.type) {
      case OperatorType::kSource:
        rate[id] = op.input_event_rate;
        break;
      case OperatorType::kFilter:
        rate[id] = in * op.selectivity;
        break;
      case OperatorType::kWindow:
        rate[id] = in;
        window[id] = op.window.policy == WindowPolicy::kCountBased
                         ? op.window.size
                         : std::max(in, 1e-9) * op.window.size;
        break;
      case OperatorType::kAggregate: {
        const int up = query.Upstream(id)[0];
        expected_window[id] = window[up];
        rate[id] = std::max(in, 1e-9);
        break;
      }
      case OperatorType::kJoin:
      case OperatorType::kSink:
        rate[id] = in;
        break;
    }
  }
}

DesReport DesEngine::Run() {
  COSTREAM_CHECK_MSG(query_.Validate().empty(), query_.Validate().c_str());
  COSTREAM_CHECK_MSG(
      ValidatePlacement(query_, cluster_, placement_).empty(),
      "invalid placement");
  COSTREAM_CHECK_MSG(ValidateLinkMatrix(cluster_).empty(),
                     ValidateLinkMatrix(cluster_).c_str());

  nodes_.resize(cluster_.num_nodes());
  agg_states_.resize(query_.num_operators());
  join_states_.resize(query_.num_operators());
  join_inputs_.resize(query_.num_operators(), {-1, -1});
  if (cluster_.has_link_matrix()) {
    link_free_time_.assign(
        static_cast<size_t>(cluster_.num_nodes()) * cluster_.num_nodes(), 0.0);
  }
  if (config_.per_instance_scheduling) {
    running_instances_.assign(query_.num_operators(), 0);
    local_op_index_.assign(query_.num_operators(), -1);
    node_ops_.assign(cluster_.num_nodes(), {});
    for (int op = 0; op < query_.num_operators(); ++op) {
      const int node = placement_[op];
      local_op_index_[op] = static_cast<int>(node_ops_[node].size());
      node_ops_[node].push_back(op);
    }
    for (int n = 0; n < cluster_.num_nodes(); ++n) {
      nodes_[n].op_queues.resize(node_ops_[n].size());
    }
  }

  std::vector<double> expected_window(query_.num_operators(), 0.0);
  DesEngineInitPlanWindows(query_, expected_window);
  data_plan_ = CompileDataPlan(query_, expected_window, config_.seed);

  // Kick off producers and window timers.
  for (int src : query_.Sources()) {
    Event e;
    e.time = 0.0;
    e.kind = Event::Kind::kProduce;
    e.op = src;
    Schedule(std::move(e));
  }
  for (int id = 0; id < query_.num_operators(); ++id) {
    const OperatorDescriptor& op = query_.op(id);
    if (op.type == OperatorType::kJoin) {
      const std::vector<int> ups = query_.Upstream(id);
      join_inputs_[id] = {ups[0], ups[1]};
    }
    if (op.type == OperatorType::kAggregate) {
      const int window_node = query_.Upstream(id)[0];
      const dsps::WindowSpec& spec = SpecOf(query_, window_node);
      if (spec.policy == WindowPolicy::kTimeBased) {
        Event e;
        e.time = spec.EffectiveSlide();
        e.kind = Event::Kind::kTimer;
        e.op = id;
        Schedule(std::move(e));
      }
    }
    if (op.type == OperatorType::kJoin) {
      const dsps::WindowSpec& spec = SpecOf(query_, query_.Upstream(id)[0]);
      if (spec.policy == WindowPolicy::kTimeBased &&
          spec.type == WindowType::kTumbling) {
        Event e;
        e.time = spec.size;
        e.kind = Event::Kind::kTimer;
        e.op = id;
        Schedule(std::move(e));
      }
    }
  }

  double now = 0.0;
  uint64_t processed = 0;
  while (!events_.empty() && !crashed_) {
    const Event e = events_.top();
    events_.pop();
    if (e.time > config_.duration_s) break;
    if (++processed > config_.max_events) break;
    now = e.time;
    switch (e.kind) {
      case Event::Kind::kProduce: {
        const OperatorDescriptor& src = query_.op(e.op);
        Tuple t;
        t.id = Mix64(++tuple_counter_ ^ (config_.seed << 1));
        t.broker_time = now;
        t.bytes = dsps::TupleBytes(src.tuple_width_out, src.frac_int,
                                   src.frac_double, src.frac_string);
        ++produced_;
        Enqueue(placement_[e.op], Work{e.op, -1, false, t}, now);
        const double mean_gap = 1.0 / src.input_event_rate;
        const double gap = config_.poisson_arrivals
                               ? -std::log(1.0 - rng_.Uniform(0.0, 1.0)) *
                                     mean_gap
                               : mean_gap;
        Event next;
        next.time = now + gap;
        next.kind = Event::Kind::kProduce;
        next.op = e.op;
        Schedule(std::move(next));
        break;
      }
      case Event::Kind::kServiceDone: {
        if (config_.per_instance_scheduling) {
          FinishInstance(e.node, e.slot, now);
          break;
        }
        NodeRuntime& node = nodes_[e.node];
        const int op = node.current.op;
        for (const Tuple& out : node.pending_outputs) Route(op, out, now);
        node.pending_outputs.clear();
        node.busy = false;
        TryStart(e.node, now);
        break;
      }
      case Event::Kind::kNetArrival: {
        Enqueue(placement_[e.op],
                Work{e.op, e.from_op, false, e.tuple}, now);
        break;
      }
      case Event::Kind::kTimer: {
        Enqueue(placement_[e.op], Work{e.op, -1, true, Tuple{}}, now);
        const OperatorDescriptor& op = query_.op(e.op);
        double period = 1.0;
        if (op.type == OperatorType::kAggregate) {
          period = SpecOf(query_, query_.Upstream(e.op)[0]).EffectiveSlide();
        } else if (op.type == OperatorType::kJoin) {
          period = SpecOf(query_, query_.Upstream(e.op)[0]).size;
        }
        Event next;
        next.time = now + std::max(period, 1e-3);
        next.kind = Event::Kind::kTimer;
        next.op = e.op;
        Schedule(std::move(next));
        break;
      }
    }
  }

  const double simulated = std::min(now, config_.duration_s);
  DesReport report;
  report.simulated_s = std::max(simulated, 1e-9);
  report.events_processed = processed;
  report.produced_tuples = produced_;
  report.ingested_tuples = ingested_;
  report.sink_tuples = sink_count_;
  report.crashed = crashed_;
  report.node_peak_memory_mb.resize(cluster_.num_nodes());
  for (int n = 0; n < cluster_.num_nodes(); ++n) {
    report.node_peak_memory_mb[n] =
        kWorkerBaseMemoryMb + nodes_[n].peak_bytes / (1024.0 * 1024.0);
  }

  CostMetrics& m = report.metrics;
  m.throughput = sink_count_ / report.simulated_s;
  if (sink_count_ > 0) {
    m.processing_latency_ms = sink_lp_sum_ / sink_count_ * 1000.0;
    m.e2e_latency_ms = sink_le_sum_ / sink_count_ * 1000.0;
  } else {
    m.processing_latency_ms = report.simulated_s * 1000.0;
    m.e2e_latency_ms = report.simulated_s * 1000.0;
  }
  double lag =
      static_cast<double>(produced_) - static_cast<double>(ingested_);
  report.net_backlog_tuples = net_stuck_;
  if (cluster_.has_link_matrix()) {
    // Under the per-link WAN model an oversubscribed link accumulates an
    // unbounded transfer queue; tuples still queued on a link at cut-off are
    // lag exactly like tuples stuck in a source queue (net_stuck_ is only
    // incremented on the link-matrix path, so legacy per-NIC runs keep their
    // pre-existing backpressure label bitwise).
    lag += static_cast<double>(net_stuck_);
  }
  report.backpressure_rate = std::max(lag, 0.0) / report.simulated_s;
  double produce_rate = 0.0;
  for (int src : query_.Sources()) {
    produce_rate += query_.op(src).input_event_rate;
  }
  m.backpressure = report.backpressure_rate > 0.02 * produce_rate;
  m.success = !crashed_ && sink_count_ > 0;

  static obs::Counter& metric_runs = obs::GetCounter("sim.des.runs");
  static obs::Counter& metric_events = obs::GetCounter("sim.des.events");
  static obs::Counter& metric_crashes = obs::GetCounter("sim.des.crashes");
  static obs::Gauge& metric_queue_peak =
      obs::GetGauge("sim.des.queue_peak_tuples");
  metric_runs.Increment();
  metric_events.Add(processed);
  if (crashed_) metric_crashes.Increment();
  metric_queue_peak.SetMax(static_cast<double>(peak_queue_len_));
  return report;
}

void DesEngine::Enqueue(int node_id, Work work, double now) {
  NodeRuntime& node = nodes_[node_id];
  if (!work.window_close) node.queue_bytes += work.tuple.bytes;
  if (config_.per_instance_scheduling) {
    work.seq = ++work_seq_;
    node.op_queues[local_op_index_[work.op]].push_back(std::move(work));
    ++node.queue_len;
    peak_queue_len_ = std::max(peak_queue_len_, node.queue_len);
  } else {
    node.queue.push_back(std::move(work));
    peak_queue_len_ = std::max(peak_queue_len_, node.queue.size());
  }
  TouchPeak(node_id);
  // Crash on memory exhaustion (GC death spiral in the paper's terms).
  if (NodeMemoryMb(node_id) > CrashMemoryMb(cluster_.nodes[node_id].ram_mb)) {
    crashed_ = true;
  }
  TryStart(node_id, now);
}

void DesEngine::TryStart(int node_id, double now) {
  if (config_.per_instance_scheduling) {
    TryStartInstances(node_id, now);
    return;
  }
  NodeRuntime& node = nodes_[node_id];
  if (node.busy || node.queue.empty()) return;
  node.current = std::move(node.queue.front());
  node.queue.pop_front();
  if (!node.current.window_close) {
    node.queue_bytes -= node.current.tuple.bytes;
  }
  node.busy = true;
  node.pending_outputs.clear();
  // An operator can use at most min(parallelism, node cores) cores (one
  // core per instance), matching the fluid engine's capacity model — the
  // whole cap as one aggregated server in this legacy mode (per-instance
  // scheduling models the cap as concurrent instances instead).
  const double cost_us = Execute(node.current, now, node.pending_outputs);
  const double cores = EffectiveOpCores(
      query_.op(node.current.op).parallelism, cluster_.nodes[node_id].cpu_pct);
  const double gc = GcSlowdown(NodeMemoryMb(node_id),
                               cluster_.nodes[node_id].ram_mb);
  const double service_s = cost_us * gc / cores / 1e6;
  Event done;
  done.time = now + service_s;
  done.kind = Event::Kind::kServiceDone;
  done.node = node_id;
  Schedule(std::move(done));
}

void DesEngine::TryStartInstances(int node_id, double now) {
  NodeRuntime& node = nodes_[node_id];
  const double cpu_pct = cluster_.nodes[node_id].cpu_pct;
  const double node_cores = std::max(cpu_pct / 100.0, 1e-3);
  // Keep starting the oldest startable item across the node's per-operator
  // FIFOs: a blocked operator (instance cap reached, or no core budget for
  // its share) only costs one front peek per pass instead of a scan of its
  // whole backlog, while FIFO order within each operator — and across
  // operators, by arrival seq — is preserved. Deterministic by construction.
  while (true) {
    int best_local = -1;
    uint64_t best_seq = std::numeric_limits<uint64_t>::max();
    for (size_t li = 0; li < node.op_queues.size(); ++li) {
      const std::deque<Work>& q = node.op_queues[li];
      if (q.empty() || q.front().seq >= best_seq) continue;
      const int op_id = node_ops_[node_id][li];
      const int par = query_.op(op_id).parallelism;
      if (running_instances_[op_id] >= OperatorInstanceCap(par, cpu_pct)) {
        continue;
      }
      const double speed = InstanceServiceCores(par, cpu_pct);
      if (node.running_cores + speed > node_cores + 1e-9) continue;
      best_local = static_cast<int>(li);
      best_seq = q.front().seq;
    }
    if (best_local < 0) return;

    std::deque<Work>& q = node.op_queues[best_local];
    Work work = std::move(q.front());
    q.pop_front();
    --node.queue_len;
    if (!work.window_close) node.queue_bytes -= work.tuple.bytes;

    const int op_id = work.op;
    const double speed =
        InstanceServiceCores(query_.op(op_id).parallelism, cpu_pct);
    int slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<int>(inflight_.size());
      inflight_.emplace_back();
    }
    InFlight& fl = inflight_[slot];
    fl.op = op_id;
    fl.cores = speed;
    fl.outputs.clear();
    const double cost_us = Execute(work, now, fl.outputs);
    const double gc = GcSlowdown(NodeMemoryMb(node_id),
                                 cluster_.nodes[node_id].ram_mb);
    const double service_s = cost_us * gc / std::max(speed, 1e-3) / 1e6;
    node.running_cores += speed;
    ++running_instances_[op_id];
    Event done;
    done.time = now + service_s;
    done.kind = Event::Kind::kServiceDone;
    done.node = node_id;
    done.slot = slot;
    Schedule(std::move(done));
  }
}

void DesEngine::FinishInstance(int node_id, int slot, double now) {
  COSTREAM_CHECK(slot >= 0 && slot < static_cast<int>(inflight_.size()));
  // Move the record out before routing: Route can enqueue onto this very
  // node, recurse into TryStartInstances and grow `inflight_`, which would
  // invalidate any reference held across the call.
  InFlight fl = std::move(inflight_[slot]);
  inflight_[slot].op = -1;
  NodeRuntime& node = nodes_[node_id];
  node.running_cores = std::max(node.running_cores - fl.cores, 0.0);
  --running_instances_[fl.op];
  free_slots_.push_back(slot);
  for (const Tuple& out : fl.outputs) Route(fl.op, out, now);
  TryStartInstances(node_id, now);
}

double DesEngine::Execute(const Work& work, double now,
                          std::vector<Tuple>& outputs) {
  const int id = work.op;
  const OperatorDescriptor& op = query_.op(id);
  const int node_id = placement_[id];
  NodeRuntime& node = nodes_[node_id];

  switch (op.type) {
    case OperatorType::kSource: {
      Tuple t = work.tuple;
      t.ingest_time = now;
      ++ingested_;
      outputs.push_back(t);
      return PerTupleCostUs(op);
    }
    case OperatorType::kFilter: {
      const FilterPlan& plan = data_plan_.filters[id];
      if (TupleUniform(work.tuple.id, plan.salt) < plan.pass_probability) {
        outputs.push_back(work.tuple);
      }
      return PerTupleCostUs(op);
    }
    case OperatorType::kWindow: {
      // Pass-through; the windowed consumer maintains the buffer. The
      // bookkeeping cost is still charged here.
      outputs.push_back(work.tuple);
      return PerTupleCostUs(op);
    }
    case OperatorType::kAggregate: {
      AggState& state = agg_states_[id];
      const dsps::WindowSpec& spec = SpecOf(query_, query_.Upstream(id)[0]);
      double cost = 0.0;
      if (work.window_close) {
        cost += AggEmit(id, state, outputs);
        if (spec.type == WindowType::kTumbling) {
          node.state_bytes -= state.state_bytes;
          state.buffer.clear();
          state.state_bytes = 0.0;
        } else {
          AggEvict(id, state, now);
        }
        return cost + 0.5;
      }
      state.buffer.push_back(WindowEntry{work.tuple, now});
      state.state_bytes += work.tuple.bytes;
      node.state_bytes += work.tuple.bytes;
      TouchPeak(node_id);
      cost += PerTupleCostUs(op);
      if (spec.policy == WindowPolicy::kCountBased) {
        ++state.arrivals_since_emit;
        const uint64_t slide = std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(spec.EffectiveSlide())));
        if (state.arrivals_since_emit >= slide) {
          state.arrivals_since_emit = 0;
          cost += AggEmit(id, state, outputs);
          if (spec.type == WindowType::kTumbling) {
            node.state_bytes -= state.state_bytes;
            state.buffer.clear();
            state.state_bytes = 0.0;
          } else {
            // Evict down to the window size.
            while (state.buffer.size() >
                   static_cast<size_t>(std::llround(spec.size))) {
              node.state_bytes -= state.buffer.front().tuple.bytes;
              state.state_bytes -= state.buffer.front().tuple.bytes;
              state.buffer.pop_front();
            }
          }
        }
      }
      return cost;
    }
    case OperatorType::kJoin: {
      if (work.window_close) {
        // Tumbling time window boundary: clear both sides.
        JoinState& state = join_states_[id];
        for (JoinSide& side : state.sides) {
          node.state_bytes -= side.state_bytes;
          side.order.clear();
          side.by_key.clear();
          side.state_bytes = 0.0;
        }
        return 0.5;
      }
      JoinState& state = join_states_[id];
      const int side_idx = work.from_op == join_inputs_[id][0] ? 0 : 1;
      const int other_idx = 1 - side_idx;
      JoinSide& mine = state.sides[side_idx];
      JoinSide& other = state.sides[other_idx];
      // The arriving side evicts to make room; the opposite side only ages
      // out by time (count-based windows shrink on their own arrivals).
      JoinEvict(id, side_idx, state, now, /*inserting=*/true);
      JoinEvict(id, other_idx, state, now, /*inserting=*/false);
      const JoinPlan& plan = data_plan_.joins[id];
      const uint64_t key = TupleKey(work.tuple.id, plan.salt, plan.key_domain);
      double cost = PerTupleCostUs(op, static_cast<double>(other.order.size()));
      auto it = other.by_key.find(key);
      if (it != other.by_key.end()) {
        for (const Tuple& match : it->second) {
          const uint64_t combined = CombineIds(work.tuple.id, match.id);
          if (plan.accept_probability < 1.0 &&
              TupleUniform(combined, plan.salt ^ 0xACCE5Cull) >=
                  plan.accept_probability) {
            continue;
          }
          Tuple out;
          out.id = combined;
          out.broker_time = std::min(work.tuple.broker_time, match.broker_time);
          out.ingest_time = std::min(work.tuple.ingest_time, match.ingest_time);
          out.bytes = dsps::TupleBytes(op.tuple_width_out, op.frac_int,
                                       op.frac_double, op.frac_string);
          outputs.push_back(out);
          cost += PerOutputCostUs(op);
        }
      }
      mine.order.push_back(WindowEntry{work.tuple, now});
      mine.by_key[key].push_back(work.tuple);
      mine.state_bytes += work.tuple.bytes;
      ++mine.arrivals;
      node.state_bytes += work.tuple.bytes;
      TouchPeak(node_id);
      return cost;
    }
    case OperatorType::kSink: {
      ++sink_count_;
      sink_lp_sum_ += now - work.tuple.ingest_time;
      sink_le_sum_ += now - work.tuple.broker_time;
      return PerTupleCostUs(op);
    }
  }
  return 1.0;
}

double DesEngine::AggEmit(int id, AggState& state,
                          std::vector<Tuple>& outputs) {
  const OperatorDescriptor& op = query_.op(id);
  const AggregatePlan& plan = data_plan_.aggregates[id];
  if (state.buffer.empty()) return 0.2;
  double cost = 0.05 * static_cast<double>(state.buffer.size());  // scan
  if (!plan.grouped) {
    Tuple out;
    out.id = Mix64(state.buffer.front().tuple.id ^ 0xA66ull);
    out.broker_time = state.buffer.front().tuple.broker_time;
    out.ingest_time = state.buffer.front().tuple.ingest_time;
    out.bytes = dsps::TupleBytes(op.tuple_width_out, op.frac_int,
                                 op.frac_double, op.frac_string);
    outputs.push_back(out);
    return cost + PerOutputCostUs(op);
  }
  // One output per distinct group; the output's provenance is the oldest
  // contributing tuple of its group.
  std::unordered_map<uint64_t, std::pair<double, double>> oldest;  // grp -> (broker, ingest)
  for (const WindowEntry& e : state.buffer) {
    const uint64_t g = TupleKey(e.tuple.id, plan.salt, plan.group_domain);
    auto [it, inserted] = oldest.try_emplace(
        g, std::make_pair(e.tuple.broker_time, e.tuple.ingest_time));
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.tuple.broker_time);
      it->second.second = std::min(it->second.second, e.tuple.ingest_time);
    }
  }
  for (const auto& [g, times] : oldest) {
    Tuple out;
    out.id = Mix64(g ^ state.buffer.back().tuple.id);
    out.broker_time = times.first;
    out.ingest_time = times.second;
    out.bytes = dsps::TupleBytes(op.tuple_width_out, op.frac_int,
                                 op.frac_double, op.frac_string);
    outputs.push_back(out);
    cost += PerOutputCostUs(op);
  }
  return cost;
}

void DesEngine::AggEvict(int id, AggState& state, double now) {
  const dsps::WindowSpec& spec = SpecOf(query_, query_.Upstream(id)[0]);
  if (spec.policy != WindowPolicy::kTimeBased) return;
  NodeRuntime& node = nodes_[placement_[id]];
  while (!state.buffer.empty() &&
         state.buffer.front().insert_time < now - spec.size) {
    node.state_bytes -= state.buffer.front().tuple.bytes;
    state.state_bytes -= state.buffer.front().tuple.bytes;
    state.buffer.pop_front();
  }
}

void DesEngine::JoinEvict(int id, int side_idx, JoinState& state, double now,
                          bool inserting) {
  // Each join input is fed by a window node; its spec governs eviction.
  const dsps::WindowSpec& spec =
      SpecOf(query_, join_inputs_[id][side_idx]);
  JoinSide& side = state.sides[side_idx];
  NodeRuntime& node = nodes_[placement_[id]];
  const DataPlan& plan = data_plan_;
  auto erase_front = [&]() {
    const WindowEntry& front = side.order.front();
    const uint64_t key = TupleKey(front.tuple.id, plan.joins[id].salt,
                                  plan.joins[id].key_domain);
    auto it = side.by_key.find(key);
    if (it != side.by_key.end()) {
      std::vector<Tuple>& bucket = it->second;
      for (size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].id == front.tuple.id) {
          bucket[i] = bucket.back();
          bucket.pop_back();
          break;
        }
      }
      if (bucket.empty()) side.by_key.erase(it);
    }
    node.state_bytes -= front.tuple.bytes;
    side.state_bytes -= front.tuple.bytes;
    side.order.pop_front();
  };
  if (spec.policy == WindowPolicy::kCountBased) {
    if (!inserting) return;
    const size_t cap = static_cast<size_t>(std::max(1.0, spec.size));
    while (side.order.size() >= cap) erase_front();
  } else if (spec.type == WindowType::kSliding) {
    while (!side.order.empty() &&
           side.order.front().insert_time < now - spec.size) {
      erase_front();
    }
  }
  // Tumbling time windows are cleared by the timer event instead.
}

void DesEngine::Route(int op, const Tuple& out, double now) {
  const int from_node = placement_[op];
  for (int down : query_.Downstream(op)) {
    const int to_node = placement_[down];
    if (to_node == from_node) {
      Enqueue(to_node, Work{down, op, false, out}, now);
      continue;
    }
    NodeRuntime& sender = nodes_[from_node];
    const HardwareNode& hw = cluster_.nodes[from_node];
    double arrival;
    if (cluster_.has_link_matrix()) {
      // Per-link WAN model: each directed (from, to) pair is its own queue,
      // shared by every co-routed flow, with the link's own bandwidth and
      // propagation delay.
      double& free_time =
          link_free_time_[from_node * cluster_.num_nodes() + to_node];
      const double transfer_s =
          out.bytes * 8.0 /
          std::max(cluster_.LinkBandwidthMbits(from_node, to_node) * 1e6, 1.0);
      free_time = std::max(now, free_time) + transfer_s;
      if (free_time > config_.duration_s) ++net_stuck_;
      arrival =
          free_time + cluster_.LinkLatencyMs(from_node, to_node) / 1000.0;
    } else {
      // Legacy per-node model: one serialized NIC per sender.
      const double transfer_s =
          out.bytes * 8.0 / std::max(hw.bandwidth_mbits * 1e6, 1.0);
      const double start = std::max(now, sender.link_free_time);
      sender.link_free_time = start + transfer_s;
      arrival = sender.link_free_time + hw.latency_ms / 1000.0;
    }
    Event e;
    e.time = arrival;
    e.kind = Event::Kind::kNetArrival;
    e.op = down;
    e.from_op = op;
    e.tuple = out;
    Schedule(std::move(e));
  }
}

}  // namespace

DesReport RunDes(const QueryGraph& query, const Cluster& cluster,
                 const Placement& placement, const DesConfig& config) {
  if (verify::VerificationEnabled()) {
    verify::VerifyReport vreport;
    verify::VerifyPlacedQuery(query, cluster, placement, &vreport);
    verify::CheckOrDie(vreport, "RunDes");
  }
  DesEngine engine(query, cluster, placement, config);
  return engine.Run();
}

}  // namespace costream::sim
