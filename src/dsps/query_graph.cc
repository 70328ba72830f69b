#include "dsps/query_graph.h"

#include <cmath>
#include <queue>
#include <sstream>

#include "common/check.h"

namespace costream::dsps {

int QueryGraph::AddOperator(const OperatorDescriptor& op) {
  ops_.push_back(op);
  return static_cast<int>(ops_.size()) - 1;
}

void QueryGraph::AddEdge(int from, int to) {
  COSTREAM_CHECK(from >= 0 && from < num_operators());
  COSTREAM_CHECK(to >= 0 && to < num_operators());
  COSTREAM_CHECK(from != to);
  edges_.emplace_back(from, to);
}

std::vector<int> QueryGraph::Upstream(int id) const {
  std::vector<int> result;
  for (const auto& [from, to] : edges_) {
    if (to == id) result.push_back(from);
  }
  return result;
}

std::vector<int> QueryGraph::Downstream(int id) const {
  std::vector<int> result;
  for (const auto& [from, to] : edges_) {
    if (from == id) result.push_back(to);
  }
  return result;
}

std::vector<int> QueryGraph::Sources() const {
  std::vector<int> result;
  for (int i = 0; i < num_operators(); ++i) {
    if (ops_[i].type == OperatorType::kSource) result.push_back(i);
  }
  return result;
}

int QueryGraph::Sink() const {
  int sink = -1;
  for (int i = 0; i < num_operators(); ++i) {
    if (ops_[i].type == OperatorType::kSink) {
      COSTREAM_CHECK_MSG(sink == -1, "query has multiple sinks");
      sink = i;
    }
  }
  COSTREAM_CHECK_MSG(sink != -1, "query has no sink");
  return sink;
}

std::vector<int> QueryGraph::TopologicalOrder() const {
  std::vector<int> order;
  COSTREAM_CHECK_MSG(TryTopologicalOrder(&order),
                     "query graph contains a cycle");
  return order;
}

bool QueryGraph::TryTopologicalOrder(std::vector<int>* order) const {
  std::vector<int> in_degree(num_operators(), 0);
  for (const auto& [from, to] : edges_) {
    (void)from;
    ++in_degree[to];
  }
  std::queue<int> ready;
  for (int i = 0; i < num_operators(); ++i) {
    if (in_degree[i] == 0) ready.push(i);
  }
  order->clear();
  order->reserve(num_operators());
  while (!ready.empty()) {
    const int id = ready.front();
    ready.pop();
    order->push_back(id);
    for (const auto& [from, to] : edges_) {
      if (from != id) continue;
      if (--in_degree[to] == 0) ready.push(to);
    }
  }
  return static_cast<int>(order->size()) == num_operators();
}

int QueryGraph::CountType(OperatorType type) const {
  int count = 0;
  for (const OperatorDescriptor& op : ops_) {
    if (op.type == type) ++count;
  }
  return count;
}

std::string QueryGraph::Validate() const {
  if (ops_.empty()) return "empty query";
  int sinks = 0;
  for (int i = 0; i < num_operators(); ++i) {
    const OperatorDescriptor& op = ops_[i];
    const int fan_in = static_cast<int>(Upstream(i).size());
    const int fan_out = static_cast<int>(Downstream(i).size());
    switch (op.type) {
      case OperatorType::kSource:
        if (fan_in != 0) return "source with inputs";
        if (fan_out < 1) return "source without consumers";
        if (!(op.input_event_rate > 0.0 &&
              std::isfinite(op.input_event_rate))) {
          return "source rate not finite and positive";
        }
        if (op.tuple_data_types.empty()) return "source without data types";
        break;
      case OperatorType::kFilter:
      case OperatorType::kWindow:
      case OperatorType::kAggregate:
        if (fan_in != 1) return "unary operator without exactly one input";
        if (fan_out < 1) return "operator without consumers";
        break;
      case OperatorType::kJoin:
        if (fan_in != 2) return "join without exactly two inputs";
        if (fan_out < 1) return "join without consumers";
        break;
      case OperatorType::kSink:
        if (fan_in < 1) return "sink without inputs";
        if (fan_out != 0) return "sink with outputs";
        ++sinks;
        break;
    }
    if (!(op.selectivity >= 0.0 && op.selectivity <= 1.0)) {  // NaN fails
      return "selectivity out of [0,1]";
    }
    // Windowed operators must be fed by a window node so that the joint
    // graph carries the window features (paper Table I).
    if (op.type == OperatorType::kAggregate || op.type == OperatorType::kJoin) {
      for (int up : Upstream(i)) {
        if (ops_[up].type != OperatorType::kWindow) {
          return "windowed operator input is not a window node";
        }
      }
    }
  }
  if (sinks != 1) return "query must have exactly one sink";

  // Acyclicity (TopologicalOrder aborts on cycles, so recheck gently here).
  std::vector<int> order;
  if (!TryTopologicalOrder(&order)) return "query graph contains a cycle";
  return "";
}

std::string QueryGraph::DebugString() const {
  std::ostringstream os;
  const std::vector<int> order = TopologicalOrder();
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) os << "->";
    os << ToString(ops_[order[i]].type);
  }
  return os.str();
}

}  // namespace costream::dsps
