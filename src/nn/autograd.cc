#include "nn/autograd.h"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <utility>

#include "nn/kernel_dispatch.h"

namespace costream::nn {

int NextParameterUid() {
  static std::atomic<int> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// The GEMM kernels below are register-blocked, but every output element is
// still accumulated in a FIXED index order. That order is chosen so that one
// batched N-row call is bitwise identical to the N single-row calls it
// replaces in the per-node GNN path:
//  * forward (MatMulAccum) preloads the accumulator from y and adds k-terms
//    ascending — the same per-element sequence as the naive triple loop;
//  * the dW kernel (MatMulTransAAccum) adds its rank-1 terms with the k
//    (sample-row) loop DESCENDING, because the per-node reverse tape sweep
//    accumulates the last sample's contribution first;
//  * the dA kernel (MatMulTransBAccum) computes each element as a fresh dot
//    product added to y once, so row batching cannot change its rounding.
//
// Each kernel body is compiled once per ISA tier (baseline x86-64, AVX2+FMA
// target, AVX-512) and dispatched through a per-tier table selected by
// kernel_dispatch.h. SIMD across the independent column accumulators
// preserves the per-element term order, and this TU builds with
// -ffp-contract=off (see src/nn/CMakeLists.txt) so no tier fuses a*b+c into
// an FMA with different rounding: all tiers are bitwise identical, which the
// kernel-dispatch parity tests enforce.

// Column-block widths. Each output column owns an independent accumulator,
// so the grouping of columns into blocks never changes any element's term
// order — block widths are purely a throughput choice (16 doubles = four
// YMM accumulators per k-step, walking a 16-wide weight matrix
// contiguously).
constexpr int kColBlock = 16;
constexpr int kColBlockSmall = 8;

// y += a * b, a: (m x k), b: (k x n), y: (m x n).
inline __attribute__((always_inline)) void MatMulAccumBody(
    const double* ad, const double* bd, double* yd, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = ad + static_cast<size_t>(i) * k;
    double* yrow = yd + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + kColBlock <= n; j += kColBlock) {
      double acc[kColBlock];
      for (int u = 0; u < kColBlock; ++u) acc[u] = yrow[j + u];
      const double* bp = bd + j;
      for (int p = 0; p < k; ++p, bp += n) {
        const double av = arow[p];
        for (int u = 0; u < kColBlock; ++u) acc[u] += av * bp[u];
      }
      for (int u = 0; u < kColBlock; ++u) yrow[j + u] = acc[u];
    }
    for (; j + kColBlockSmall <= n; j += kColBlockSmall) {
      double acc[kColBlockSmall];
      for (int u = 0; u < kColBlockSmall; ++u) acc[u] = yrow[j + u];
      const double* bp = bd + j;
      for (int p = 0; p < k; ++p, bp += n) {
        const double av = arow[p];
        for (int u = 0; u < kColBlockSmall; ++u) acc[u] += av * bp[u];
      }
      for (int u = 0; u < kColBlockSmall; ++u) yrow[j + u] = acc[u];
    }
    for (; j < n; ++j) {
      double acc = yrow[j];
      const double* bp = bd + j;
      for (int p = 0; p < k; ++p, bp += n) acc += arow[p] * *bp;
      yrow[j] = acc;
    }
  }
}

// y += a^T * b, a: (k x m), b: (k x n), y: (m x n). The k loop runs
// DESCENDING — see the block comment above.
inline __attribute__((always_inline)) void MatMulTransAAccumBody(
    const double* ad, const double* bd, double* yd, int k, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const double* acol = ad + i;  // column i of a, stride m
    double* yrow = yd + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + kColBlock <= n; j += kColBlock) {
      double acc[kColBlock];
      for (int u = 0; u < kColBlock; ++u) acc[u] = yrow[j + u];
      for (int p = k - 1; p >= 0; --p) {
        const double av = acol[static_cast<size_t>(p) * m];
        const double* bp = bd + static_cast<size_t>(p) * n + j;
        for (int u = 0; u < kColBlock; ++u) acc[u] += av * bp[u];
      }
      for (int u = 0; u < kColBlock; ++u) yrow[j + u] = acc[u];
    }
    for (; j + kColBlockSmall <= n; j += kColBlockSmall) {
      double acc[kColBlockSmall];
      for (int u = 0; u < kColBlockSmall; ++u) acc[u] = yrow[j + u];
      for (int p = k - 1; p >= 0; --p) {
        const double av = acol[static_cast<size_t>(p) * m];
        const double* bp = bd + static_cast<size_t>(p) * n + j;
        for (int u = 0; u < kColBlockSmall; ++u) acc[u] += av * bp[u];
      }
      for (int u = 0; u < kColBlockSmall; ++u) yrow[j + u] = acc[u];
    }
    for (; j < n; ++j) {
      double acc = yrow[j];
      for (int p = k - 1; p >= 0; --p) {
        acc +=
            acol[static_cast<size_t>(p) * m] * bd[static_cast<size_t>(p) * n + j];
      }
      yrow[j] = acc;
    }
  }
}

// y += a * b^T, a: (m x k), b: (n x k), y: (m x n).
inline __attribute__((always_inline)) void MatMulTransBAccumBody(
    const double* ad, const double* bd, double* yd, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = ad + static_cast<size_t>(i) * k;
    double* yrow = yd + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = bd + static_cast<size_t>(j) * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = arow[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      yrow[j] += acc0;
      yrow[j + 1] += acc1;
      yrow[j + 2] += acc2;
      yrow[j + 3] += acc3;
    }
    for (; j < n; ++j) {
      const double* brow = bd + static_cast<size_t>(j) * k;
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      yrow[j] += acc;
    }
  }
}

// y = x * w + b (+ optional relu), x: (m x k), w: (k x n), b: (1 x n).
// Per element this is exactly the unfused MatMul/AddRow/Relu chain: the
// accumulator starts at +0.0 (the zeroed-output preload of MatMulAccum),
// adds k-terms ascending, then the bias, then clamps — so fusing the three
// ops into one node changes no bits.
inline __attribute__((always_inline)) void LinearBody(
    const double* xd, const double* wd, const double* bd, double* yd, int m,
    int k, int n, int relu) {
  for (int i = 0; i < m; ++i) {
    const double* xrow = xd + static_cast<size_t>(i) * k;
    double* yrow = yd + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + kColBlock <= n; j += kColBlock) {
      double acc[kColBlock];
      for (int u = 0; u < kColBlock; ++u) acc[u] = 0.0;
      const double* wp = wd + j;
      for (int p = 0; p < k; ++p, wp += n) {
        const double xv = xrow[p];
        for (int u = 0; u < kColBlock; ++u) acc[u] += xv * wp[u];
      }
      for (int u = 0; u < kColBlock; ++u) {
        double v = acc[u] + bd[j + u];
        if (relu && v < 0.0) v = 0.0;
        yrow[j + u] = v;
      }
    }
    for (; j + kColBlockSmall <= n; j += kColBlockSmall) {
      double acc[kColBlockSmall];
      for (int u = 0; u < kColBlockSmall; ++u) acc[u] = 0.0;
      const double* wp = wd + j;
      for (int p = 0; p < k; ++p, wp += n) {
        const double xv = xrow[p];
        for (int u = 0; u < kColBlockSmall; ++u) acc[u] += xv * wp[u];
      }
      for (int u = 0; u < kColBlockSmall; ++u) {
        double v = acc[u] + bd[j + u];
        if (relu && v < 0.0) v = 0.0;
        yrow[j + u] = v;
      }
    }
    for (; j < n; ++j) {
      double acc = 0.0;
      const double* wp = wd + j;
      for (int p = 0; p < k; ++p, wp += n) acc += xrow[p] * *wp;
      acc += bd[j];
      if (relu && acc < 0.0) acc = 0.0;
      yrow[j] = acc;
    }
  }
}

// d(row) += g(row), the innermost primitive of the gather/scatter backwards.
inline __attribute__((always_inline)) void AccumRowBody(double* d,
                                                        const double* g,
                                                        int cols) {
  for (int c = 0; c < cols; ++c) d[c] += g[c];
}

// y = max(a, 0) element-wise; branchless so it vectorizes.
inline __attribute__((always_inline)) void ReluBody(const double* a, double* y,
                                                    int size) {
  for (int i = 0; i < size; ++i) y[i] = a[i] < 0.0 ? 0.0 : a[i];
}

// y = a + row broadcast over a's rows.
inline __attribute__((always_inline)) void AddRowBody(const double* a,
                                                      const double* rd,
                                                      double* y, int rows,
                                                      int cols) {
  for (int r = 0; r < rows; ++r) {
    const double* arow = a + static_cast<size_t>(r) * cols;
    double* yrow = y + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) yrow[c] = arow[c] + rd[c];
  }
}

using GemmFn = void (*)(const double*, const double*, double*, int, int, int);
using LinearFn = void (*)(const double*, const double*, const double*,
                          double*, int, int, int, int);
using AccumRowFn = void (*)(double*, const double*, int);
using ReluFn = void (*)(const double*, double*, int);
using AddRowFn = void (*)(const double*, const double*, double*, int, int);

// One function-pointer table per ISA tier; ActiveKernels() indexes the table
// array by the runtime-selected KernelTier. Unsupported tiers alias the
// scalar table so a stale tier index can never reach an illegal instruction.
struct KernelTable {
  GemmFn matmul_accum;
  GemmFn matmul_ta_accum;
  GemmFn matmul_tb_accum;
  LinearFn linear;
  AccumRowFn accum_row;
  ReluFn relu;
  AddRowFn add_row;
};

void MatMulAccumBase(const double* ad, const double* bd, double* yd, int m,
                     int k, int n) {
  MatMulAccumBody(ad, bd, yd, m, k, n);
}
void MatMulTransAAccumBase(const double* ad, const double* bd, double* yd,
                           int k, int m, int n) {
  MatMulTransAAccumBody(ad, bd, yd, k, m, n);
}
void MatMulTransBAccumBase(const double* ad, const double* bd, double* yd,
                           int m, int k, int n) {
  MatMulTransBAccumBody(ad, bd, yd, m, k, n);
}
void LinearBase(const double* xd, const double* wd, const double* bd,
                double* yd, int m, int k, int n, int relu) {
  LinearBody(xd, wd, bd, yd, m, k, n, relu);
}
void AccumRowBase(double* d, const double* g, int cols) {
  AccumRowBody(d, g, cols);
}
void ReluBase(const double* a, double* y, int size) { ReluBody(a, y, size); }
void AddRowBase(const double* a, const double* rd, double* y, int rows,
                int cols) {
  AddRowBody(a, rd, y, rows, cols);
}

constexpr KernelTable kScalarTable = {
    MatMulAccumBase, MatMulTransAAccumBase, MatMulTransBAccumBase,
    LinearBase,      AccumRowBase,          ReluBase,
    AddRowBase};

#ifdef COSTREAM_HAVE_ISA_CLONES
__attribute__((target(COSTREAM_TARGET_AVX2))) void MatMulAccumAvx2(
    const double* ad, const double* bd, double* yd, int m, int k, int n) {
  MatMulAccumBody(ad, bd, yd, m, k, n);
}
__attribute__((target(COSTREAM_TARGET_AVX2))) void MatMulTransAAccumAvx2(
    const double* ad, const double* bd, double* yd, int k, int m, int n) {
  MatMulTransAAccumBody(ad, bd, yd, k, m, n);
}
__attribute__((target(COSTREAM_TARGET_AVX2))) void MatMulTransBAccumAvx2(
    const double* ad, const double* bd, double* yd, int m, int k, int n) {
  MatMulTransBAccumBody(ad, bd, yd, m, k, n);
}
__attribute__((target(COSTREAM_TARGET_AVX2))) void LinearAvx2(
    const double* xd, const double* wd, const double* bd, double* yd, int m,
    int k, int n, int relu) {
  LinearBody(xd, wd, bd, yd, m, k, n, relu);
}
__attribute__((target(COSTREAM_TARGET_AVX2))) void AccumRowAvx2(
    double* d, const double* g, int cols) {
  AccumRowBody(d, g, cols);
}
__attribute__((target(COSTREAM_TARGET_AVX2))) void ReluAvx2(const double* a,
                                                            double* y,
                                                            int size) {
  ReluBody(a, y, size);
}
__attribute__((target(COSTREAM_TARGET_AVX2))) void AddRowAvx2(
    const double* a, const double* rd, double* y, int rows, int cols) {
  AddRowBody(a, rd, y, rows, cols);
}

__attribute__((target(COSTREAM_TARGET_AVX512))) void MatMulAccumAvx512(
    const double* ad, const double* bd, double* yd, int m, int k, int n) {
  MatMulAccumBody(ad, bd, yd, m, k, n);
}
__attribute__((target(COSTREAM_TARGET_AVX512))) void MatMulTransAAccumAvx512(
    const double* ad, const double* bd, double* yd, int k, int m, int n) {
  MatMulTransAAccumBody(ad, bd, yd, k, m, n);
}
__attribute__((target(COSTREAM_TARGET_AVX512))) void MatMulTransBAccumAvx512(
    const double* ad, const double* bd, double* yd, int m, int k, int n) {
  MatMulTransBAccumBody(ad, bd, yd, m, k, n);
}
__attribute__((target(COSTREAM_TARGET_AVX512))) void LinearAvx512(
    const double* xd, const double* wd, const double* bd, double* yd, int m,
    int k, int n, int relu) {
  LinearBody(xd, wd, bd, yd, m, k, n, relu);
}
__attribute__((target(COSTREAM_TARGET_AVX512))) void AccumRowAvx512(
    double* d, const double* g, int cols) {
  AccumRowBody(d, g, cols);
}
__attribute__((target(COSTREAM_TARGET_AVX512))) void ReluAvx512(
    const double* a, double* y, int size) {
  ReluBody(a, y, size);
}
__attribute__((target(COSTREAM_TARGET_AVX512))) void AddRowAvx512(
    const double* a, const double* rd, double* y, int rows, int cols) {
  AddRowBody(a, rd, y, rows, cols);
}

constexpr KernelTable kAvx2Table = {
    MatMulAccumAvx2, MatMulTransAAccumAvx2, MatMulTransBAccumAvx2,
    LinearAvx2,      AccumRowAvx2,          ReluAvx2,
    AddRowAvx2};
constexpr KernelTable kAvx512Table = {
    MatMulAccumAvx512, MatMulTransAAccumAvx512, MatMulTransBAccumAvx512,
    LinearAvx512,      AccumRowAvx512,          ReluAvx512,
    AddRowAvx512};
constexpr KernelTable kTables[kNumKernelTiers] = {kScalarTable, kAvx2Table,
                                                 kAvx512Table};
#else
constexpr KernelTable kTables[kNumKernelTiers] = {kScalarTable, kScalarTable,
                                                 kScalarTable};
#endif

inline const KernelTable& ActiveKernels() {
  return kTables[static_cast<int>(ActiveKernelTier())];
}

// Matrix-typed wrappers used by the tape ops.
inline void MatMulAccum(const Matrix& a, const Matrix& b, Matrix& y) {
  ActiveKernels().matmul_accum(a.data(), b.data(), y.data(), a.rows(),
                               a.cols(), b.cols());
}
inline void MatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix& y) {
  ActiveKernels().matmul_ta_accum(a.data(), b.data(), y.data(), a.rows(),
                                  a.cols(), b.cols());
}
inline void MatMulTransBAccum(const Matrix& a, const Matrix& b, Matrix& y) {
  ActiveKernels().matmul_tb_accum(a.data(), b.data(), y.data(), a.rows(),
                                  a.cols(), b.rows());
}
inline void AccumRow(double* d, const double* g, int cols) {
  ActiveKernels().accum_row(d, g, cols);
}

}  // namespace

void GradientSink::Reset(const std::vector<Parameter*>& params) {
  params_ = params;
  grads_.assign(params.size(), Matrix());
  index_.clear();
  index_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    index_.emplace(params[i], static_cast<int>(i));
  }
  Clear();
}

void GradientSink::Clear() {
  for (size_t i = 0; i < params_.size(); ++i) {
    const Matrix& value = params_[i]->value;
    if (!grads_[i].SameShape(value)) {
      grads_[i].ResizeZero(value.rows(), value.cols());
    } else {
      grads_[i].Fill(0.0);
    }
  }
}

void GradientSink::FlushToParams() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    if (!p->grad.SameShape(p->value)) p->ZeroGrad();
    const Matrix& g = grads_[i];
    for (int j = 0; j < g.size(); ++j) p->grad.data()[j] += g.data()[j];
  }
}

Matrix* GradientSink::Find(const Parameter* p) {
  const auto it = index_.find(p);
  return it == index_.end() ? nullptr : &grads_[it->second];
}

Tape::Node& Tape::Acquire(Op op, int* index) {
  if (num_used_ == static_cast<int>(nodes_.size())) nodes_.emplace_back();
  Node& n = nodes_[num_used_];
  *index = num_used_++;
  n.op = op;
  n.a = -1;
  n.b = -1;
  n.c = -1;
  n.inputs.clear();
  n.param = nullptr;
  n.scalar = 0.0;
  n.idx_a.clear();
  n.idx_b.clear();
  // n.value / n.grad / n.aux keep their heap buffers; each builder rewrites
  // value fully and Backward resizes grads, so stale contents never leak.
  return n;
}

Var Tape::Input(const Matrix& value) {
  int idx;
  Node& n = Acquire(Op::kInput, &idx);
  n.value.CopyFrom(value);
  return Var{idx};
}

Var Tape::Input(Matrix&& value) {
  int idx;
  Node& n = Acquire(Op::kInput, &idx);
  n.value = std::move(value);
  return Var{idx};
}

Var Tape::InputZero(int rows, int cols) {
  COSTREAM_CHECK(rows >= 0 && cols >= 0);
  int idx;
  Node& n = Acquire(Op::kInput, &idx);
  n.value.ResizeZero(rows, cols);
  return Var{idx};
}

Matrix& Tape::MutableInputValue(Var v) {
  Node& n = nodes_[v.index];
  COSTREAM_CHECK_MSG(n.op == Op::kInput,
                     "MutableInputValue requires an Input node");
  return n.value;
}

Var Tape::Leaf(Parameter* p) {
  COSTREAM_CHECK(p != nullptr);
  const int uid = p->uid;
  if (uid >= static_cast<int>(leaf_by_uid_.size())) {
    leaf_by_uid_.resize(uid + 1, -1);
  } else if (leaf_by_uid_[uid] >= 0) {
    return Var{leaf_by_uid_[uid]};
  }
  int idx;
  Node& n = Acquire(Op::kLeaf, &idx);
  n.value.CopyFrom(p->value);
  n.param = p;
  leaf_by_uid_[uid] = idx;
  leaf_uids_.push_back(uid);
  return Var{idx};
}

Var Tape::MatMul(Var a, Var b) {
  int idx;
  Node& n = Acquire(Op::kMatMul, &idx);
  const Matrix& av = nodes_[a.index].value;
  const Matrix& bv = nodes_[b.index].value;
  COSTREAM_CHECK(av.cols() == bv.rows());
  n.a = a.index;
  n.b = b.index;
  n.value.ResizeZero(av.rows(), bv.cols());
  MatMulAccum(av, bv, n.value);
  return Var{idx};
}

Var Tape::Linear(Var x, Var w, Var b, bool relu) {
  int idx;
  Node& n = Acquire(Op::kLinear, &idx);
  const Matrix& xv = nodes_[x.index].value;
  const Matrix& wv = nodes_[w.index].value;
  const Matrix& bv = nodes_[b.index].value;
  COSTREAM_CHECK(xv.cols() == wv.rows());
  COSTREAM_CHECK(bv.rows() == 1 && bv.cols() == wv.cols());
  n.a = x.index;
  n.b = w.index;
  n.c = b.index;
  n.scalar = relu ? 1.0 : 0.0;
  n.value.ResizeUninit(xv.rows(), wv.cols());
  ActiveKernels().linear(xv.data(), wv.data(), bv.data(), n.value.data(),
                         xv.rows(), xv.cols(), wv.cols(), relu ? 1 : 0);
  return Var{idx};
}

Var Tape::Add(Var a, Var b) {
  int idx;
  Node& n = Acquire(Op::kAdd, &idx);
  const Matrix& av = nodes_[a.index].value;
  const Matrix& bv = nodes_[b.index].value;
  COSTREAM_CHECK(av.SameShape(bv));
  n.a = a.index;
  n.b = b.index;
  n.value.CopyFrom(av);
  for (int i = 0; i < n.value.size(); ++i) n.value.data()[i] += bv.data()[i];
  return Var{idx};
}

Var Tape::AddRow(Var a, Var row) {
  int idx;
  Node& n = Acquire(Op::kAddRow, &idx);
  const Matrix& av = nodes_[a.index].value;
  const Matrix& rv = nodes_[row.index].value;
  COSTREAM_CHECK(rv.rows() == 1 && rv.cols() == av.cols());
  n.a = a.index;
  n.b = row.index;
  n.value.ResizeUninit(av.rows(), av.cols());
  ActiveKernels().add_row(av.data(), rv.data(), n.value.data(), av.rows(),
                          av.cols());
  return Var{idx};
}

Var Tape::AddN(const std::vector<Var>& vars) {
  COSTREAM_CHECK(!vars.empty());
  // A single input still creates a node (a bitwise copy): the gradient must
  // reach the input at this tape position, not at the consumer's, so that
  // per-node sums and batched SegmentSums deliver neighbour gradients in the
  // same order even for one-neighbour nodes.
  int idx;
  Node& n = Acquire(Op::kAddN, &idx);
  n.value.CopyFrom(nodes_[vars[0].index].value);
  n.inputs.reserve(vars.size());
  for (const Var& v : vars) n.inputs.push_back(v.index);
  for (size_t i = 1; i < vars.size(); ++i) {
    const Matrix& mv = nodes_[vars[i].index].value;
    COSTREAM_CHECK(mv.SameShape(n.value));
    for (int j = 0; j < n.value.size(); ++j) n.value.data()[j] += mv.data()[j];
  }
  return Var{idx};
}

Var Tape::Sub(Var a, Var b) {
  int idx;
  Node& n = Acquire(Op::kSub, &idx);
  const Matrix& av = nodes_[a.index].value;
  const Matrix& bv = nodes_[b.index].value;
  COSTREAM_CHECK(av.SameShape(bv));
  n.a = a.index;
  n.b = b.index;
  n.value.CopyFrom(av);
  for (int i = 0; i < n.value.size(); ++i) n.value.data()[i] -= bv.data()[i];
  return Var{idx};
}

Var Tape::Scale(Var a, double s) {
  int idx;
  Node& n = Acquire(Op::kScale, &idx);
  n.a = a.index;
  n.scalar = s;
  n.value.CopyFrom(nodes_[a.index].value);
  for (int i = 0; i < n.value.size(); ++i) n.value.data()[i] *= s;
  return Var{idx};
}

Var Tape::Mul(Var a, Var b) {
  int idx;
  Node& n = Acquire(Op::kMul, &idx);
  const Matrix& av = nodes_[a.index].value;
  const Matrix& bv = nodes_[b.index].value;
  COSTREAM_CHECK(av.SameShape(bv));
  n.a = a.index;
  n.b = b.index;
  n.value.CopyFrom(av);
  for (int i = 0; i < n.value.size(); ++i) n.value.data()[i] *= bv.data()[i];
  return Var{idx};
}

Var Tape::Relu(Var a) {
  int idx;
  Node& n = Acquire(Op::kRelu, &idx);
  n.a = a.index;
  const Matrix& av = nodes_[a.index].value;
  n.value.ResizeUninit(av.rows(), av.cols());
  ActiveKernels().relu(av.data(), n.value.data(), n.value.size());
  return Var{idx};
}

Var Tape::Sigmoid(Var a) {
  int idx;
  Node& n = Acquire(Op::kSigmoid, &idx);
  n.a = a.index;
  n.value.CopyFrom(nodes_[a.index].value);
  for (int i = 0; i < n.value.size(); ++i) {
    const double x = n.value.data()[i];
    n.value.data()[i] = x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                                 : std::exp(x) / (1.0 + std::exp(x));
  }
  return Var{idx};
}

Var Tape::Tanh(Var a) {
  int idx;
  Node& n = Acquire(Op::kTanh, &idx);
  n.a = a.index;
  n.value.CopyFrom(nodes_[a.index].value);
  for (int i = 0; i < n.value.size(); ++i) {
    n.value.data()[i] = std::tanh(n.value.data()[i]);
  }
  return Var{idx};
}

Var Tape::ConcatCols(Var a, Var b) {
  int idx;
  Node& n = Acquire(Op::kConcatCols, &idx);
  const Matrix& av = nodes_[a.index].value;
  const Matrix& bv = nodes_[b.index].value;
  COSTREAM_CHECK(av.rows() == bv.rows());
  n.a = a.index;
  n.b = b.index;
  n.value.ResizeZero(av.rows(), av.cols() + bv.cols());
  for (int r = 0; r < av.rows(); ++r) {
    double* d = n.value.row(r);
    const double* ar = av.row(r);
    const double* br = bv.row(r);
    for (int c = 0; c < av.cols(); ++c) d[c] = ar[c];
    for (int c = 0; c < bv.cols(); ++c) d[av.cols() + c] = br[c];
  }
  return Var{idx};
}

Var Tape::SumAll(Var a) {
  int idx;
  Node& n = Acquire(Op::kSumAll, &idx);
  const Matrix& av = nodes_[a.index].value;
  double acc = 0.0;
  for (int i = 0; i < av.size(); ++i) acc += av.data()[i];
  n.a = a.index;
  n.value.ResizeZero(1, 1);
  n.value(0, 0) = acc;
  return Var{idx};
}

Var Tape::RowGather(Var src, const std::vector<int>& rows) {
  int idx;
  Node& n = Acquire(Op::kRowGather, &idx);
  const Matrix& sv = nodes_[src.index].value;
  const int cols = sv.cols();
  n.a = src.index;
  n.idx_a.assign(rows.begin(), rows.end());
  n.value.ResizeZero(static_cast<int>(rows.size()), cols);
  for (int i = 0; i < static_cast<int>(rows.size()); ++i) {
    const int r = rows[i];
    COSTREAM_CHECK(r >= 0 && r < sv.rows());
    const double* s = sv.row(r);
    double* d = n.value.row(i);
    for (int c = 0; c < cols; ++c) d[c] = s[c];
  }
  return Var{idx};
}

Var Tape::SegmentSum(Var src, const std::vector<int>& offsets,
                     const std::vector<int>& children) {
  COSTREAM_CHECK(!offsets.empty());
  COSTREAM_CHECK(offsets.front() == 0 &&
                 offsets.back() == static_cast<int>(children.size()));
  int idx;
  Node& n = Acquire(Op::kSegmentSum, &idx);
  const Matrix& sv = nodes_[src.index].value;
  const int cols = sv.cols();
  const int out_rows = static_cast<int>(offsets.size()) - 1;
  n.a = src.index;
  n.idx_a.assign(offsets.begin(), offsets.end());
  n.idx_b.assign(children.begin(), children.end());
  n.value.ResizeZero(out_rows, cols);
  for (int i = 0; i < out_rows; ++i) {
    COSTREAM_CHECK_MSG(offsets[i + 1] > offsets[i],
                       "SegmentSum segments must be non-empty");
    double* d = n.value.row(i);
    for (int e = offsets[i]; e < offsets[i + 1]; ++e) {
      const int c = children[e];
      COSTREAM_CHECK(c >= 0 && c < sv.rows());
      const double* s = sv.row(c);
      if (e == offsets[i]) {
        for (int j = 0; j < cols; ++j) d[j] = s[j];
      } else {
        for (int j = 0; j < cols; ++j) d[j] += s[j];
      }
    }
  }
  return Var{idx};
}

Var Tape::RowScatter(Var base, Var update, const std::vector<int>& rows) {
  int idx;
  Node& n = Acquire(Op::kRowScatter, &idx);
  const Matrix& base_v = nodes_[base.index].value;
  const Matrix& upd_v = nodes_[update.index].value;
  COSTREAM_CHECK(upd_v.cols() == base_v.cols());
  COSTREAM_CHECK(static_cast<int>(rows.size()) == upd_v.rows());
  n.a = base.index;
  n.b = update.index;
  n.idx_a.assign(rows.begin(), rows.end());
  // idx_b doubles as the target mask for the pass-through backward.
  n.idx_b.assign(base_v.rows(), 0);
  n.value.CopyFrom(base_v);
  const int cols = base_v.cols();
  for (int i = 0; i < static_cast<int>(rows.size()); ++i) {
    const int r = rows[i];
    COSTREAM_CHECK(r >= 0 && r < base_v.rows());
    COSTREAM_CHECK_MSG(n.idx_b[r] == 0, "RowScatter rows must be unique");
    n.idx_b[r] = 1;
    const double* s = upd_v.row(i);
    double* d = n.value.row(r);
    for (int c = 0; c < cols; ++c) d[c] = s[c];
  }
  return Var{idx};
}

Var Tape::MseLoss(Var pred, const Matrix& target) {
  int idx;
  Node& n = Acquire(Op::kMseLoss, &idx);
  const Matrix& pv = nodes_[pred.index].value;
  COSTREAM_CHECK(pv.SameShape(target));
  COSTREAM_CHECK(pv.size() > 0);
  double acc = 0.0;
  for (int i = 0; i < pv.size(); ++i) {
    const double d = pv.data()[i] - target.data()[i];
    acc += d * d;
  }
  n.a = pred.index;
  n.aux.CopyFrom(target);
  n.value.ResizeZero(1, 1);
  n.value(0, 0) = acc / pv.size();
  return Var{idx};
}

Var Tape::BceWithLogitsLoss(Var logit, double label) {
  int idx;
  Node& n = Acquire(Op::kBceLoss, &idx);
  const Matrix& lv = nodes_[logit.index].value;
  COSTREAM_CHECK(lv.rows() == 1 && lv.cols() == 1);
  const double z = lv(0, 0);
  // Numerically stable: max(z,0) - z*y + log(1 + exp(-|z|)).
  const double loss =
      std::max(z, 0.0) - z * label + std::log1p(std::exp(-std::fabs(z)));
  n.a = logit.index;
  n.scalar = label;
  n.value.ResizeZero(1, 1);
  n.value(0, 0) = loss;
  return Var{idx};
}

void Tape::Backward(Var loss, GradientSink* sink) {
  COSTREAM_CHECK(loss.index >= 0 && loss.index < num_nodes());
  const Matrix& lv = nodes_[loss.index].value;
  COSTREAM_CHECK_MSG(lv.rows() == 1 && lv.cols() == 1,
                     "Backward requires a scalar loss");
  for (int i = 0; i < num_used_; ++i) {
    Node& n = nodes_[i];
    n.grad.ResizeZero(n.value.rows(), n.value.cols());
  }
  nodes_[loss.index].grad(0, 0) = 1.0;
  for (int i = loss.index; i >= 0; --i) BackwardNode(i, sink);
}

void Tape::BackwardNode(int i, GradientSink* sink) {
  Node& n = nodes_[i];
  switch (n.op) {
    case Op::kInput:
      break;
    case Op::kLeaf: {
      Parameter* p = n.param;
      Matrix* target = sink != nullptr ? sink->Find(p) : nullptr;
      if (target == nullptr) {
        if (!p->grad.SameShape(p->value)) p->ZeroGrad();
        target = &p->grad;
      }
      for (int j = 0; j < n.grad.size(); ++j) {
        target->data()[j] += n.grad.data()[j];
      }
      break;
    }
    case Op::kMatMul: {
      Node& a = nodes_[n.a];
      Node& b = nodes_[n.b];
      MatMulTransBAccum(n.grad, b.value, a.grad);  // dA += dY * B^T
      MatMulTransAAccum(a.value, n.grad, b.grad);  // dB += A^T * dY
      break;
    }
    case Op::kLinear: {
      Node& x = nodes_[n.a];
      Node& w = nodes_[n.b];
      Node& bias = nodes_[n.c];
      // Mask the incoming gradient by the activation in place; this node's
      // grad has no further readers once its own backward runs. The value
      // test is equivalent to the unfused Relu backward's pre-activation
      // test: relu output > 0 exactly when its input was > 0.
      if (n.scalar != 0.0) {
        for (int j = 0; j < n.grad.size(); ++j) {
          if (!(n.value.data()[j] > 0.0)) n.grad.data()[j] = 0.0;
        }
      }
      MatMulTransBAccum(n.grad, w.value, x.grad);  // dX += dZ * W^T
      MatMulTransAAccum(x.value, n.grad, w.grad);  // dW += X^T * dZ
      // Rows DESCENDING, matching the unfused AddRow's bias reduction.
      const int cols = n.grad.cols();
      double* bg = bias.grad.row(0);
      for (int r = n.grad.rows() - 1; r >= 0; --r) {
        AccumRow(bg, n.grad.row(r), cols);
      }
      break;
    }
    case Op::kAdd: {
      Node& a = nodes_[n.a];
      Node& b = nodes_[n.b];
      for (int j = 0; j < n.grad.size(); ++j) {
        a.grad.data()[j] += n.grad.data()[j];
        b.grad.data()[j] += n.grad.data()[j];
      }
      break;
    }
    case Op::kAddRow: {
      Node& a = nodes_[n.a];
      Node& row = nodes_[n.b];
      for (int j = 0; j < n.grad.size(); ++j) {
        a.grad.data()[j] += n.grad.data()[j];
      }
      // Rows DESCENDING: a batched AddRow replaces per-row AddRows whose
      // reverse tape sweep credits the bias with the last row first.
      const int cols = n.grad.cols();
      double* rg = row.grad.row(0);
      for (int r = n.grad.rows() - 1; r >= 0; --r) {
        AccumRow(rg, n.grad.row(r), cols);
      }
      break;
    }
    case Op::kAddN: {
      for (int input : n.inputs) {
        Node& a = nodes_[input];
        for (int j = 0; j < n.grad.size(); ++j) {
          a.grad.data()[j] += n.grad.data()[j];
        }
      }
      break;
    }
    case Op::kSub: {
      Node& a = nodes_[n.a];
      Node& b = nodes_[n.b];
      for (int j = 0; j < n.grad.size(); ++j) {
        a.grad.data()[j] += n.grad.data()[j];
        b.grad.data()[j] -= n.grad.data()[j];
      }
      break;
    }
    case Op::kScale: {
      Node& a = nodes_[n.a];
      for (int j = 0; j < n.grad.size(); ++j) {
        a.grad.data()[j] += n.scalar * n.grad.data()[j];
      }
      break;
    }
    case Op::kMul: {
      Node& a = nodes_[n.a];
      Node& b = nodes_[n.b];
      for (int j = 0; j < n.grad.size(); ++j) {
        a.grad.data()[j] += b.value.data()[j] * n.grad.data()[j];
        b.grad.data()[j] += a.value.data()[j] * n.grad.data()[j];
      }
      break;
    }
    case Op::kRelu: {
      Node& a = nodes_[n.a];
      for (int j = 0; j < n.grad.size(); ++j) {
        if (a.value.data()[j] > 0.0) a.grad.data()[j] += n.grad.data()[j];
      }
      break;
    }
    case Op::kSigmoid: {
      Node& a = nodes_[n.a];
      for (int j = 0; j < n.grad.size(); ++j) {
        const double y = n.value.data()[j];
        a.grad.data()[j] += y * (1.0 - y) * n.grad.data()[j];
      }
      break;
    }
    case Op::kTanh: {
      Node& a = nodes_[n.a];
      for (int j = 0; j < n.grad.size(); ++j) {
        const double y = n.value.data()[j];
        a.grad.data()[j] += (1.0 - y * y) * n.grad.data()[j];
      }
      break;
    }
    case Op::kConcatCols: {
      Node& a = nodes_[n.a];
      Node& b = nodes_[n.b];
      for (int r = 0; r < n.grad.rows(); ++r) {
        const double* g = n.grad.row(r);
        AccumRow(a.grad.row(r), g, a.value.cols());
        AccumRow(b.grad.row(r), g + a.value.cols(), b.value.cols());
      }
      break;
    }
    case Op::kSumAll: {
      Node& a = nodes_[n.a];
      const double g = n.grad(0, 0);
      for (int j = 0; j < a.grad.size(); ++j) a.grad.data()[j] += g;
      break;
    }
    case Op::kRowGather: {
      Node& src = nodes_[n.a];
      const int cols = n.grad.cols();
      // Output rows DESCENDING so repeated source rows accumulate in the
      // per-node path's reverse-creation order.
      for (int i = static_cast<int>(n.idx_a.size()) - 1; i >= 0; --i) {
        AccumRow(src.grad.row(n.idx_a[i]), n.grad.row(i), cols);
      }
      break;
    }
    case Op::kSegmentSum: {
      Node& src = nodes_[n.a];
      const int cols = n.grad.cols();
      const int out_rows = static_cast<int>(n.idx_a.size()) - 1;
      // Segments DESCENDING (reverse consumer order), children within a
      // segment ascending (AddN backward order).
      for (int i = out_rows - 1; i >= 0; --i) {
        const double* g = n.grad.row(i);
        for (int e = n.idx_a[i]; e < n.idx_a[i + 1]; ++e) {
          AccumRow(src.grad.row(n.idx_b[e]), g, cols);
        }
      }
      break;
    }
    case Op::kRowScatter: {
      Node& base = nodes_[n.a];
      Node& upd = nodes_[n.b];
      const int cols = n.grad.cols();
      for (int i = static_cast<int>(n.idx_a.size()) - 1; i >= 0; --i) {
        AccumRow(upd.grad.row(i), n.grad.row(n.idx_a[i]), cols);
      }
      for (int r = 0; r < n.grad.rows(); ++r) {
        if (n.idx_b[r] != 0) continue;  // replaced row: no grad to base
        AccumRow(base.grad.row(r), n.grad.row(r), cols);
      }
      break;
    }
    case Op::kMseLoss: {
      Node& a = nodes_[n.a];
      const double g = n.grad(0, 0);
      const double scale = 2.0 / a.value.size();
      for (int j = 0; j < a.grad.size(); ++j) {
        a.grad.data()[j] +=
            g * scale * (a.value.data()[j] - n.aux.data()[j]);
      }
      break;
    }
    case Op::kBceLoss: {
      Node& a = nodes_[n.a];
      const double z = a.value(0, 0);
      const double sig = z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                                  : std::exp(z) / (1.0 + std::exp(z));
      a.grad(0, 0) += n.grad(0, 0) * (sig - n.scalar);
      break;
    }
  }
}

}  // namespace costream::nn
