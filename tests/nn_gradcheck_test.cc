// Central finite-difference gradient checks of the reverse-mode tape: every
// op used by CostModel::Forward is verified on small dense problems, and the
// full GNN (staged and traditional message passing, both heads) is verified
// end-to-end through a real joint graph. This is the correctness net that
// lets the parallel trainer claim "same gradients, faster".
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/featurizer.h"
#include "core/model.h"
#include "dsps/query_builder.h"
#include "nn/autograd.h"
#include "nn/random.h"

namespace costream::nn {
namespace {

constexpr double kStep = 1e-5;
constexpr double kRelTol = 1e-6;

// Builds the scalar loss on a fresh tape from the current parameter values.
using LossBuilder = std::function<Var(Tape&)>;

double Evaluate(const LossBuilder& builder) {
  Tape tape;
  return tape.value(builder(tape))(0, 0);
}

// Checks d(loss)/d(entry) of every parameter entry against a central finite
// difference, with relative tolerance kRelTol.
void CheckGradients(std::vector<Parameter*> params,
                    const LossBuilder& builder) {
  Tape tape;
  Var loss = builder(tape);
  for (Parameter* p : params) p->ZeroGrad();
  tape.Backward(loss);

  for (size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    for (int r = 0; r < p->value.rows(); ++r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double saved = p->value(r, c);
        p->value(r, c) = saved + kStep;
        const double up = Evaluate(builder);
        p->value(r, c) = saved - kStep;
        const double down = Evaluate(builder);
        p->value(r, c) = saved;
        const double numeric = (up - down) / (2.0 * kStep);
        const double analytic = p->grad(r, c);
        const double scale =
            std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
        EXPECT_NEAR(analytic, numeric, kRelTol * scale)
            << "param " << k << " entry (" << r << "," << c << ")";
      }
    }
  }
}

// A parameter with deterministic pseudo-random entries. Values stay within
// (-1, 1) and away from ReLU kinks for the chosen seeds.
Parameter MakeParam(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Parameter p;
  p.value = Matrix(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      p.value(r, c) = rng.Uniform(-0.9, 0.9);
    }
  }
  return p;
}

TEST(GradCheckTest, MatMulChain) {
  Parameter a = MakeParam(2, 3, 11);
  Parameter b = MakeParam(3, 4, 12);
  CheckGradients({&a, &b}, [&](Tape& t) {
    return t.SumAll(t.MatMul(t.Leaf(&a), t.Leaf(&b)));
  });
}

TEST(GradCheckTest, AddSubScaleMul) {
  Parameter a = MakeParam(3, 3, 21);
  Parameter b = MakeParam(3, 3, 22);
  CheckGradients({&a, &b}, [&](Tape& t) {
    Var sum = t.Add(t.Leaf(&a), t.Leaf(&b));
    Var diff = t.Sub(sum, t.Scale(t.Leaf(&b), 0.25));
    return t.SumAll(t.Mul(diff, t.Leaf(&a)));
  });
}

TEST(GradCheckTest, AddRowBroadcast) {
  Parameter x = MakeParam(4, 3, 31);
  Parameter row = MakeParam(1, 3, 32);
  CheckGradients({&x, &row}, [&](Tape& t) {
    Var y = t.AddRow(t.Leaf(&x), t.Leaf(&row));
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, AddNFanIn) {
  Parameter a = MakeParam(2, 2, 41);
  Parameter b = MakeParam(2, 2, 42);
  Parameter c = MakeParam(2, 2, 43);
  CheckGradients({&a, &b, &c}, [&](Tape& t) {
    Var sum = t.AddN({t.Leaf(&a), t.Leaf(&b), t.Leaf(&c), t.Leaf(&a)});
    return t.SumAll(t.Mul(sum, sum));
  });
}

TEST(GradCheckTest, ConcatCols) {
  Parameter a = MakeParam(3, 2, 51);
  Parameter b = MakeParam(3, 4, 52);
  CheckGradients({&a, &b}, [&](Tape& t) {
    Var cat = t.ConcatCols(t.Leaf(&a), t.Leaf(&b));
    return t.SumAll(t.Mul(cat, cat));
  });
}

TEST(GradCheckTest, RowGatherWithRepeatedRows) {
  Parameter a = MakeParam(4, 3, 55);
  // Row 2 is gathered twice: its gradient accumulates two contributions.
  const std::vector<int> rows = {2, 0, 2, 1};
  CheckGradients({&a}, [&](Tape& t) {
    Var y = t.RowGather(t.Leaf(&a), rows);
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, SegmentSumOverEdgeList) {
  Parameter a = MakeParam(4, 2, 56);
  // Three segments over a 4-row source; row 0 feeds two segments, and the
  // multi-child segments exercise the copy-then-add forward path.
  const std::vector<int> offsets = {0, 2, 3, 5};
  const std::vector<int> children = {0, 2, 1, 3, 0};
  CheckGradients({&a}, [&](Tape& t) {
    Var y = t.SegmentSum(t.Leaf(&a), offsets, children);
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, RowScatterSplitsGradients) {
  Parameter base = MakeParam(4, 3, 57);
  Parameter update = MakeParam(2, 3, 58);
  // Rows 2 and 0 are replaced (update gradient), rows 1 and 3 pass through
  // (base gradient); the replaced base rows must receive zero gradient.
  const std::vector<int> rows = {2, 0};
  CheckGradients({&base, &update}, [&](Tape& t) {
    Var y = t.RowScatter(t.Leaf(&base), t.Leaf(&update), rows);
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, BatchedMessagePassingStage) {
  // One full batched stage wired exactly like CostModel::ForwardBatched*:
  // segment-sum of neighbour states, gather of own states, concat, a linear
  // update, scatter back into the state matrix, then a one-segment readout
  // sum over every row.
  Parameter state = MakeParam(4, 2, 65);
  Parameter weight = MakeParam(4, 2, 66);
  const std::vector<int> offsets = {0, 2, 3};
  const std::vector<int> children = {0, 1, 3};
  const std::vector<int> rows = {1, 2};
  const std::vector<int> readout_offsets = {0, 4};
  const std::vector<int> readout_children = {0, 1, 2, 3};
  CheckGradients({&state, &weight}, [&](Tape& t) {
    Var s = t.Leaf(&state);
    Var msg = t.SegmentSum(s, offsets, children);
    Var own = t.RowGather(s, rows);
    Var cat = t.ConcatCols(msg, own);
    Var updated = t.MatMul(cat, t.Leaf(&weight));
    Var next = t.RowScatter(s, updated, rows);
    Var read = t.SegmentSum(next, readout_offsets, readout_children);
    return t.SumAll(t.Mul(read, read));
  });
}

TEST(GradCheckTest, FusedLinearNoActivation) {
  Parameter x = MakeParam(4, 3, 71);
  Parameter w = MakeParam(3, 5, 72);
  Parameter b = MakeParam(1, 5, 73);
  CheckGradients({&x, &w, &b}, [&](Tape& t) {
    Var y = t.Linear(t.Leaf(&x), t.Leaf(&w), t.Leaf(&b), /*relu=*/false);
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, FusedLinearWithRelu) {
  Parameter x = MakeParam(4, 3, 74);
  Parameter w = MakeParam(3, 5, 75);
  Parameter b = MakeParam(1, 5, 76);
  // Nudge the pre-activations away from the relu kink so the central
  // difference never straddles it.
  {
    Tape t;
    Var z = t.AddRow(t.MatMul(t.Leaf(&x), t.Leaf(&w)), t.Leaf(&b));
    const Matrix& zv = t.value(z);
    for (int r = 0; r < zv.rows(); ++r) {
      for (int c = 0; c < zv.cols(); ++c) {
        if (std::fabs(zv(r, c)) < 0.05) {
          b.value(0, c) += zv(r, c) < 0.0 ? -0.1 : 0.1;
        }
      }
    }
  }
  CheckGradients({&x, &w, &b}, [&](Tape& t) {
    Var y = t.Linear(t.Leaf(&x), t.Leaf(&w), t.Leaf(&b), /*relu=*/true);
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, FusedLinearMatchesUnfusedChainBitwise) {
  // The fused op promises bitwise identity with MatMul + AddRow + Relu —
  // values, and gradients of every operand — including a wide output that
  // exercises both column-block widths and the scalar tail.
  Parameter x = MakeParam(3, 7, 81);
  Parameter w = MakeParam(7, 21, 82);
  Parameter b = MakeParam(1, 21, 83);
  const auto run = [&](bool fused) {
    Tape t;
    Var y = fused ? t.Linear(t.Leaf(&x), t.Leaf(&w), t.Leaf(&b), true)
                  : t.Relu(t.AddRow(t.MatMul(t.Leaf(&x), t.Leaf(&w)),
                                    t.Leaf(&b)));
    Var loss = t.SumAll(t.Mul(y, y));
    for (Parameter* p : {&x, &w, &b}) p->ZeroGrad();
    t.Backward(loss);
    std::vector<double> out;
    const Matrix& yv = t.value(y);
    out.insert(out.end(), yv.data(), yv.data() + yv.size());
    for (Parameter* p : {&x, &w, &b}) {
      out.insert(out.end(), p->grad.data(), p->grad.data() + p->grad.size());
    }
    return out;
  };
  const std::vector<double> fused = run(true);
  const std::vector<double> unfused = run(false);
  ASSERT_EQ(fused.size(), unfused.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused[i], unfused[i]) << "entry " << i;
  }
}

TEST(GradCheckTest, ReluAwayFromKink) {
  // Entries of MakeParam(…, 61) are bounded away from 0 by more than kStep,
  // so the finite difference never straddles the kink.
  Parameter a = MakeParam(3, 3, 61);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      double& v = a.value(r, c);
      if (std::fabs(v) < 0.05) v = v < 0.0 ? -0.05 : 0.05;
    }
  }
  CheckGradients({&a}, [&](Tape& t) {
    Var y = t.Relu(t.Leaf(&a));
    return t.SumAll(t.Mul(y, y));
  });
}

TEST(GradCheckTest, SigmoidTanh) {
  Parameter a = MakeParam(2, 3, 71);
  CheckGradients({&a}, [&](Tape& t) {
    Var s = t.Sigmoid(t.Leaf(&a));
    Var h = t.Tanh(t.Leaf(&a));
    return t.SumAll(t.Mul(s, h));
  });
}

TEST(GradCheckTest, MseLoss) {
  Parameter a = MakeParam(2, 3, 81);
  Matrix target = MakeParam(2, 3, 82).value;
  CheckGradients({&a}, [&](Tape& t) {
    return t.MseLoss(t.Tanh(t.Leaf(&a)), target);
  });
}

TEST(GradCheckTest, BceWithLogitsBothLabels) {
  for (const double label : {0.0, 1.0}) {
    Parameter a = MakeParam(1, 1, 91);
    CheckGradients({&a}, [&](Tape& t) {
      return t.BceWithLogitsLoss(t.SumAll(t.Leaf(&a)), label);
    });
  }
}

TEST(GradCheckTest, GradientSinkMatchesDirectAccumulation) {
  Parameter a = MakeParam(3, 3, 101);
  Parameter b = MakeParam(3, 3, 102);
  const LossBuilder builder = [&](Tape& t) {
    Var prod = t.MatMul(t.Leaf(&a), t.Leaf(&b));
    return t.SumAll(t.Mul(prod, t.Leaf(&a)));
  };

  a.ZeroGrad();
  b.ZeroGrad();
  {
    Tape tape;
    tape.Backward(builder(tape));
  }
  const Matrix direct_a = a.grad;
  const Matrix direct_b = b.grad;

  GradientSink sink;
  sink.Reset({&a, &b});
  a.ZeroGrad();
  b.ZeroGrad();
  {
    Tape tape;
    tape.Backward(builder(tape), &sink);
  }
  // Leaf gradients went into the sink, not the parameters.
  for (int j = 0; j < a.grad.size(); ++j) {
    EXPECT_EQ(a.grad.data()[j], 0.0);
    EXPECT_EQ(b.grad.data()[j], 0.0);
  }
  sink.FlushToParams();
  for (int j = 0; j < direct_a.size(); ++j) {
    EXPECT_EQ(a.grad.data()[j], direct_a.data()[j]);
    EXPECT_EQ(b.grad.data()[j], direct_b.data()[j]);
  }
}

// ---------------------------------------------------------------------------
// End-to-end gradient checks through the full COSTREAM GNN.

core::JointGraph SmallJointGraph() {
  using dsps::DataType;
  dsps::QueryBuilder b;
  auto s1 = b.Source(900.0, {DataType::kInt, DataType::kDouble});
  auto s2 = b.Source(500.0, {DataType::kInt});
  dsps::WindowSpec w;
  w.policy = dsps::WindowPolicy::kCountBased;
  w.type = dsps::WindowType::kTumbling;
  w.size = 50;
  w.slide = 50;
  auto joined = b.WindowedJoin(s1, s2, w, DataType::kInt, 0.05);
  auto filtered =
      b.Filter(joined, dsps::FilterFunction::kLess, DataType::kInt, 0.4);
  dsps::QueryGraph query = b.Sink(filtered);

  sim::Cluster cluster{{sim::HardwareNode{200.0, 4000.0, 100.0, 8.0},
                        sim::HardwareNode{800.0, 16000.0, 1000.0, 1.0}}};
  sim::Placement placement(query.num_operators(), 0);
  placement[query.num_operators() - 1] = 1;  // sink on the strong node
  return core::BuildJointGraph(query, cluster, placement);
}

void CheckModelGradients(core::MessagePassingMode mode, core::HeadKind head) {
  core::CostModelConfig config;
  config.hidden_dim = 6;  // keeps the finite-difference sweep fast
  config.message_passing = mode;
  config.head = head;
  config.seed = 5;
  core::CostModel model(config);
  const core::JointGraph graph = SmallJointGraph();

  const LossBuilder builder = [&](Tape& t) {
    Var out = model.Forward(t, graph);
    if (head == core::HeadKind::kRegression) {
      return t.MseLoss(out, Matrix::Scalar(4.2));
    }
    return t.BceWithLogitsLoss(out, 1.0);
  };
  CheckGradients(model.parameters(), builder);
}

TEST(GradCheckTest, CostModelStagedRegression) {
  CheckModelGradients(core::MessagePassingMode::kStaged,
                      core::HeadKind::kRegression);
}

TEST(GradCheckTest, CostModelStagedClassification) {
  CheckModelGradients(core::MessagePassingMode::kStaged,
                      core::HeadKind::kClassification);
}

TEST(GradCheckTest, CostModelTraditionalRegression) {
  CheckModelGradients(core::MessagePassingMode::kTraditional,
                      core::HeadKind::kRegression);
}

}  // namespace
}  // namespace costream::nn
