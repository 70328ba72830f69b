#include "verify/shape_program.h"

#include <string>

namespace costream::verify {

namespace {

std::string Dim(const ShapeDim& d) {
  return std::to_string(d.rows) + "x" + std::to_string(d.cols);
}

}  // namespace

std::vector<ShapeDim> InferShapes(const ShapeProgram& program,
                                  VerifyReport* report) {
  const int n = static_cast<int>(program.ops.size());
  std::vector<ShapeDim> shapes(n);
  for (int i = 0; i < n; ++i) {
    const ShapeOp& op = program.ops[i];
    // Operand references must point at earlier ops (the tape is a linear
    // SSA program); a dangling reference poisons this op only.
    const auto operand = [&](int ref, ShapeDim* out) {
      if (ref < 0 || ref >= i) {
        report->Add(kRuleTapeBadOperand, Severity::kError, op.label,
                    "operand #" + std::to_string(ref) +
                        " is not an earlier op of the program");
        return false;
      }
      *out = shapes[ref];
      return out->known();
    };
    ShapeDim a, b;
    ShapeDim& out = shapes[i];
    switch (op.kind) {
      case ShapeOp::Kind::kInput:
        if (op.rows >= 0 && op.cols >= 0) {
          out = {op.rows, op.cols};
        } else {
          report->Add(kRuleTapeBadOperand, Severity::kError, op.label,
                      "input declared with negative shape " +
                          std::to_string(op.rows) + "x" +
                          std::to_string(op.cols));
        }
        break;
      case ShapeOp::Kind::kRowGather: {
        if (!operand(op.a, &a)) break;
        bool in_range = true;
        for (int r : op.indices) {
          if (r < 0 || r >= a.rows) {
            report->Add(kRuleTapeGatherRange, Severity::kError, op.label,
                        "gather row " + std::to_string(r) +
                            " out of range for a " + Dim(a) + " source");
            in_range = false;
            break;
          }
        }
        if (in_range) out = {static_cast<int>(op.indices.size()), a.cols};
        break;
      }
      case ShapeOp::Kind::kSegmentSum: {
        if (!operand(op.a, &a)) break;
        bool ok = !op.offsets.empty() && op.offsets.front() == 0 &&
                  op.offsets.back() == static_cast<int>(op.children.size());
        for (size_t s = 0; ok && s + 1 < op.offsets.size(); ++s) {
          // Tape::SegmentSum requires non-empty segments (a row with no
          // children would silently stay zero instead of summing).
          if (op.offsets[s + 1] <= op.offsets[s]) ok = false;
        }
        if (!ok) {
          report->Add(kRuleTapeSegmentMalformed, Severity::kError, op.label,
                      "segment offsets must start at 0, rise strictly, and "
                      "end at the children count (" +
                          std::to_string(op.children.size()) + ")");
          break;
        }
        for (int c : op.children) {
          if (c < 0 || c >= a.rows) {
            report->Add(kRuleTapeSegmentMalformed, Severity::kError, op.label,
                        "segment child row " + std::to_string(c) +
                            " out of range for a " + Dim(a) + " source");
            ok = false;
            break;
          }
        }
        if (ok) out = {static_cast<int>(op.offsets.size()) - 1, a.cols};
        break;
      }
      case ShapeOp::Kind::kConcatCols:
        if (!operand(op.a, &a) || !operand(op.b, &b)) break;
        if (a.rows != b.rows) {
          report->Add(kRuleTapeConcatMismatch, Severity::kError, op.label,
                      "cannot concatenate " + Dim(a) + " with " + Dim(b) +
                          " column-wise (row counts differ)");
          break;
        }
        out = {a.rows, a.cols + b.cols};
        break;
      case ShapeOp::Kind::kLinear:
        if (!operand(op.a, &a)) break;
        if (a.cols != op.rows) {
          report->Add(kRuleTapeGemmMismatch, Severity::kError, op.label,
                      "GEMM inner dimensions disagree: input is " + Dim(a) +
                          ", weight is " + std::to_string(op.rows) + "x" +
                          std::to_string(op.cols),
                      "the layer expects " + std::to_string(op.rows) +
                          " input columns");
          break;
        }
        out = {a.rows, op.cols};
        break;
      case ShapeOp::Kind::kAddRow:
        if (!operand(op.a, &a) || !operand(op.b, &b)) break;
        if (b.rows != 1 || b.cols != a.cols) {
          report->Add(kRuleTapeAddRowMismatch, Severity::kError, op.label,
                      "cannot broadcast-add a " + Dim(b) + " row onto a " +
                          Dim(a) + " matrix");
          break;
        }
        out = a;
        break;
      case ShapeOp::Kind::kRowScatter: {
        if (!operand(op.a, &a) || !operand(op.b, &b)) break;
        bool ok = true;
        if (b.rows != static_cast<int>(op.indices.size()) || b.cols != a.cols) {
          report->Add(kRuleTapeScatterRange, Severity::kError, op.label,
                      "scatter update is " + Dim(b) + ", want " +
                          std::to_string(op.indices.size()) + "x" +
                          std::to_string(a.cols));
          ok = false;
        }
        std::vector<char> seen(a.rows > 0 ? a.rows : 0, 0);
        for (int r : op.indices) {
          if (r < 0 || r >= a.rows) {
            report->Add(kRuleTapeScatterRange, Severity::kError, op.label,
                        "scatter row " + std::to_string(r) +
                            " out of range for a " + Dim(a) + " base");
            ok = false;
            break;
          }
          if (seen[r]) {
            // Duplicate targets would make the write order (and the
            // gradient) ambiguous; Tape::RowScatter requires unique rows.
            report->Add(kRuleTapeScatterRange, Severity::kError, op.label,
                        "scatter row " + std::to_string(r) +
                            " written more than once");
            ok = false;
            break;
          }
          seen[r] = 1;
        }
        if (ok) out = a;
        break;
      }
    }
  }
  if (program.result >= 0 && program.result < n) {
    const ShapeDim r = shapes[program.result];
    if (r.known() && (r.rows != program.result_rows || r.cols != 1)) {
      report->Add(kRuleTapeResultNotScalar, Severity::kError,
                  program.ops[program.result].label,
                  "forward result is " + Dim(r) + ", want " +
                      std::to_string(program.result_rows) + "x1");
    }
  }
  return shapes;
}

}  // namespace costream::verify
