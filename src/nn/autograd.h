#ifndef COSTREAM_NN_AUTOGRAD_H_
#define COSTREAM_NN_AUTOGRAD_H_

#include <unordered_map>
#include <vector>

#include "nn/matrix.h"

namespace costream::nn {

// Returns a process-unique id; every Parameter gets one so tapes can memoize
// leaf nodes through a flat array instead of a hash map.
int NextParameterUid();

// A trainable tensor. Parameters live outside the tape (they persist across
// samples); gradients are accumulated into `grad` by Tape::Backward until the
// optimizer consumes and clears them. Each instance carries a process-unique
// `uid`; copies receive a fresh uid (two live parameters never share one),
// while assignment keeps the destination's identity and only copies data.
struct Parameter {
  Matrix value;
  Matrix grad;
  int uid = NextParameterUid();

  Parameter() = default;
  Parameter(const Parameter& other) : value(other.value), grad(other.grad) {}
  Parameter& operator=(const Parameter& other) {
    value = other.value;
    grad = other.grad;
    return *this;
  }

  void ZeroGrad() {
    if (!grad.SameShape(value)) {
      grad.ResizeZero(value.rows(), value.cols());
    } else {
      grad.Fill(0.0);
    }
  }
};

// Handle to a node on a Tape. Only valid for the tape that created it and
// until the next Reset().
struct Var {
  int index = -1;
};

// A private gradient accumulator for a fixed parameter list. Passing a sink
// to Tape::Backward redirects the leaf gradients of the tracked parameters
// into per-parameter matrices owned by the sink instead of the shared
// Parameter::grad fields. Data-parallel training gives every worker its own
// sink and then flushes the sinks into Parameter::grad in sample order, so
// the accumulated batch gradient is independent of the number of workers.
class GradientSink {
 public:
  GradientSink() = default;

  // (Re)binds the sink to `params`; slot i tracks params[i].
  void Reset(const std::vector<Parameter*>& params);
  // Zeroes every slot (shapes follow the current parameter values).
  void Clear();
  // Adds every slot into its parameter's grad, in slot order.
  void FlushToParams();

  // The slot matrix for `p`, or nullptr when `p` is not tracked.
  Matrix* Find(const Parameter* p);

  int num_slots() const { return static_cast<int>(params_.size()); }
  const Matrix& slot(int i) const { return grads_[i]; }

 private:
  std::vector<Parameter*> params_;
  std::vector<Matrix> grads_;
  std::unordered_map<const Parameter*, int> index_;
};

// Reverse-mode automatic differentiation over a linear tape.
//
// Usage per training sample:
//   tape.Reset();
//   Var x = tape.Input(features);
//   Var h = mlp.Apply(tape, x);
//   Var loss = tape.MseLoss(h, target);
//   tape.Backward(loss);   // accumulates into Parameter::grad
//
// The tape is deliberately dynamic: the COSTREAM GNN builds a different
// compute graph for every query graph, so graphs are rebuilt per sample.
// Nodes are stored in creation order, which is automatically a topological
// order, so Backward is a single reverse sweep.
//
// Reset() retains the node arena: node slots and their Matrix heap buffers
// are kept and overwritten by the next graph, so steady-state inner loops
// (trainer batches, ensemble prediction, placement scoring) perform no
// per-sample node allocations once the tape has warmed up.
//
// Determinism contract: every kernel — forward reductions and backward
// gradient scatter alike — accumulates each output element in a fixed index
// order, chosen so that a batched N-row op is bitwise identical to the N
// per-row ops it replaces (see the kernel comments in autograd.cc).
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;
  Tape(Tape&&) = default;
  Tape& operator=(Tape&&) = default;

  // Discards all nodes (previously returned Vars become invalid) but keeps
  // the arena, so the next graph reuses node slots and matrix buffers.
  void Reset() {
    num_used_ = 0;
    for (const int uid : leaf_uids_) leaf_by_uid_[uid] = -1;
    leaf_uids_.clear();
  }

  int num_nodes() const { return num_used_; }

  // --- Graph construction -------------------------------------------------

  // A constant input; no gradient flows into it.
  Var Input(const Matrix& value);
  Var Input(Matrix&& value);
  // A zero-filled constant input whose storage lives on the tape; fill it in
  // place through MutableInputValue. This is the allocation-free way to feed
  // batched feature blocks.
  Var InputZero(int rows, int cols);
  // Mutable access to the value of a kInput node (and only a kInput node);
  // callers may overwrite entries before the input is consumed by later ops.
  Matrix& MutableInputValue(Var v);

  // A leaf referencing a persistent Parameter; Backward accumulates into
  // `p->grad`. The parameter must outlive the tape's use of it. Leafs are
  // memoized per tape: repeated calls with the same parameter return the
  // same node, so every use site accumulates into one shared leaf gradient
  // (in reverse op order) and Parameter::grad receives a single final add.
  // This keeps the floating-point accumulation sequence identical whether a
  // parameter is applied node-by-node or in stage-level batches.
  Var Leaf(Parameter* p);

  // value(a) * value(b), shapes (m x k) x (k x n).
  Var MatMul(Var a, Var b);
  // Fused dense layer: value(x) * value(w) + value(b) broadcast over rows,
  // optionally followed by relu — one node instead of the
  // MatMul/AddRow/Relu chain. Per output element the accumulation order is
  // exactly the unfused chain's (zero-init, k ascending, bias add,
  // activation), and the backward reuses the transposed-GEMM kernels plus a
  // rows-DESCENDING bias reduction, so fusing changes no bits in either the
  // per-node or the batched execution path. x: (m x k), w: (k x n),
  // b: (1 x n).
  Var Linear(Var x, Var w, Var b, bool relu);
  // Elementwise sum, same shapes.
  Var Add(Var a, Var b);
  // a: (m x n), row: (1 x n); adds `row` to every row of `a`.
  Var AddRow(Var a, Var row);
  // Sum of >= 1 equally-shaped variables.
  Var AddN(const std::vector<Var>& vars);
  Var Sub(Var a, Var b);
  Var Scale(Var a, double s);
  // Elementwise (Hadamard) product, same shapes.
  Var Mul(Var a, Var b);
  Var Relu(Var a);
  Var Sigmoid(Var a);
  Var Tanh(Var a);
  // Horizontal concatenation: (m x n1) ++ (m x n2) -> (m x (n1+n2)).
  Var ConcatCols(Var a, Var b);
  // Sums all entries into a 1x1 scalar.
  Var SumAll(Var a);

  // --- Batched graph ops ---------------------------------------------------
  // These drive the batched GNN execution: one op per message-passing stage
  // instead of one op per graph node.

  // out(i, :) = src(rows[i], :). Rows may repeat; the backward scatter
  // iterates output rows in DESCENDING order so repeated source rows
  // accumulate their gradients in reverse-creation order, matching the
  // per-node path's reverse tape sweep.
  Var RowGather(Var src, const std::vector<int>& rows);
  // CSR-style segmented row sum: out has offsets.size()-1 rows and
  // out(i, :) = sum over c in children[offsets[i] .. offsets[i+1]) of
  // src(c, :), accumulated in list order (first child copied, the rest added
  // ascending — exactly AddN semantics). Every segment must be non-empty.
  // CostModel::Forward uses it for every message and for the readout (one
  // segment per graph copy).
  Var SegmentSum(Var src, const std::vector<int>& offsets,
                 const std::vector<int>& children);
  // out = base with out(rows[i], :) = update(i, :). Rows must be unique and
  // in-range; untouched rows pass their gradient through to `base`.
  Var RowScatter(Var base, Var update, const std::vector<int>& rows);

  // --- Losses (scalar outputs) --------------------------------------------

  // Mean squared error against a constant target of the same shape.
  Var MseLoss(Var pred, const Matrix& target);
  // Numerically stable binary cross entropy on a 1x1 logit.
  Var BceWithLogitsLoss(Var logit, double label);

  // --- Execution -----------------------------------------------------------

  // Runs the reverse sweep from `loss` (must be 1x1). Gradients of Leaf nodes
  // are accumulated into their Parameters — or, when `sink` is non-null, into
  // the sink's slot for every parameter the sink tracks (untracked parameters
  // still accumulate into Parameter::grad).
  void Backward(Var loss, GradientSink* sink = nullptr);

  const Matrix& value(Var v) const { return nodes_[v.index].value; }
  const Matrix& grad(Var v) const { return nodes_[v.index].grad; }

 private:
  enum class Op {
    kInput,
    kLeaf,
    kMatMul,
    kLinear,
    kAdd,
    kAddRow,
    kAddN,
    kSub,
    kScale,
    kMul,
    kRelu,
    kSigmoid,
    kTanh,
    kConcatCols,
    kSumAll,
    kRowGather,
    kSegmentSum,
    kRowScatter,
    kMseLoss,
    kBceLoss,
  };

  struct Node {
    Op op = Op::kInput;
    Matrix value;
    Matrix grad;
    int a = -1;
    int b = -1;
    int c = -1;               // kLinear bias input
    std::vector<int> inputs;  // only used by kAddN
    Parameter* param = nullptr;
    double scalar = 0.0;      // kScale factor / kBceLoss label / kLinear relu
    Matrix aux;               // kMseLoss target
    std::vector<int> idx_a;   // gather/scatter rows; SegmentSum offsets
    std::vector<int> idx_b;   // SegmentSum children; RowScatter pass rows
  };

  // Returns a fresh node slot (reusing the arena when possible) and writes
  // its index to `index`. The returned reference is invalidated by the next
  // Acquire, so builders must read input values only after acquiring.
  Node& Acquire(Op op, int* index);
  void BackwardNode(int i, GradientSink* sink);

  std::vector<Node> nodes_;
  int num_used_ = 0;
  // Parameter uid -> existing kLeaf node index on this tape (-1: none);
  // `leaf_uids_` lists the live entries so Reset() clears in O(leaves).
  std::vector<int> leaf_by_uid_;
  std::vector<int> leaf_uids_;
};

}  // namespace costream::nn

#endif  // COSTREAM_NN_AUTOGRAD_H_
