#ifndef COSTREAM_VERIFY_SHAPE_PROGRAM_H_
#define COSTREAM_VERIFY_SHAPE_PROGRAM_H_

#include <string>
#include <vector>

#include "verify/rules.h"

namespace costream::verify {

// A symbolic mirror of the batched tape ops (nn::Tape): each op carries only
// shapes and index vectors, never values. The plan verifier lowers a
// (JointGraph, ForwardPlan, model dims) triple into one of these programs and
// the interpreter below proves — before any GEMM runs — that every matrix
// multiply agrees on its inner dimension and every gather/scatter index is in
// range. In Release builds the runtime COSTREAM_DCHECKs that guard the same
// invariants compile out, so this pass is what turns a malformed plan from
// silent corruption into a structured diagnostic.
struct ShapeOp {
  enum class Kind {
    kInput,       // fresh (rows x cols) matrix
    kRowGather,   // out(i,:) = a(indices[i],:)
    kSegmentSum,  // CSR row sum of a over offsets/children
    kConcatCols,  // [a | b]
    kLinear,      // a * W + b_row, W: (in x out) — the GEMM shape rule
    kAddRow,      // a + broadcast row b
    kRowScatter,  // a with rows indices[i] replaced by b(i,:)
  };
  Kind kind = Kind::kInput;
  int a = -1;  // first operand (program index)
  int b = -1;  // second operand (kConcatCols/kRowScatter)
  int rows = 0;  // kInput rows; kLinear in_features
  int cols = 0;  // kInput cols; kLinear out_features
  std::vector<int> indices;  // kRowGather/kRowScatter rows
  std::vector<int> offsets;  // kSegmentSum CSR offsets
  std::vector<int> children;  // kSegmentSum CSR children
  std::string label;  // diagnostic location, e.g. "stage[1].update[kHost]"
};

struct ShapeProgram {
  std::vector<ShapeOp> ops;
  int result = -1;       // op index whose output must be result_rows x 1
  int result_rows = 1;   // one scalar per graph copy
};

// Inferred (rows, cols) of one op; {-1, -1} when undecidable because an
// operand already failed.
struct ShapeDim {
  int rows = -1;
  int cols = -1;
  bool known() const { return rows >= 0; }
};

// Propagates shapes through `program`, appending TP* diagnostics to
// `report`. Returns the per-op inferred shapes (for tests and tooling).
// Inference continues past failures where possible, so one bad stage does
// not mask independent findings later in the program.
std::vector<ShapeDim> InferShapes(const ShapeProgram& program,
                                  VerifyReport* report);

}  // namespace costream::verify

#endif  // COSTREAM_VERIFY_SHAPE_PROGRAM_H_
