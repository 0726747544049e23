#include "src/sdp/solver.hpp"

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/la/eigen.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"

namespace cpla::sdp {
namespace {

BlockStructure dense_block(int n) { return {BlockSpec{BlockSpec::Kind::kDense, n}}; }

TEST(SdpProblem, ApplyAndAdjoint) {
  SdpProblem p(dense_block(2));
  const int c0 = p.add_constraint(3.0);
  p.add_entry(c0, 0, 0, 0, 1.0);
  p.add_entry(c0, 0, 0, 1, 2.0);  // off-diagonal: counts twice in the trace

  BlockMatrix x(p.structure());
  x.dense(0)(0, 0) = 5.0;
  x.dense(0)(0, 1) = x.dense(0)(1, 0) = 1.5;
  EXPECT_DOUBLE_EQ(p.apply(0, x), 5.0 + 2.0 * 2.0 * 1.5);

  BlockMatrix adj(p.structure());
  p.accumulate_adjoint({2.0}, &adj);
  EXPECT_DOUBLE_EQ(adj.dense(0)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(adj.dense(0)(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(adj.dense(0)(1, 0), 4.0);

  EXPECT_DOUBLE_EQ(p.rhs_vector()[0], 3.0);
}

// min tr(CX) s.t. tr(X) = 1, X >= 0 computes the minimum eigenvalue of C.
TEST(SdpSolver, MinimumEigenvalueDiagonalC) {
  SdpProblem p(dense_block(2));
  p.add_objective_entry(0, 0, 0, 2.0);
  p.add_objective_entry(0, 1, 1, 1.0);
  const int tr = p.add_constraint(1.0);
  p.add_entry(tr, 0, 0, 0, 1.0);
  p.add_entry(tr, 0, 1, 1, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.x.dense(0)(1, 1), 1.0, 1e-4);
  EXPECT_NEAR(r.x.dense(0)(0, 0), 0.0, 1e-4);
}

TEST(SdpSolver, MinimumEigenvalueDenseC) {
  // C = [[2,1],[1,2]] has eigenvalues {1,3}; optimum X = vv^T, v=(1,-1)/sqrt2.
  SdpProblem p(dense_block(2));
  p.add_objective_entry(0, 0, 0, 2.0);
  p.add_objective_entry(0, 1, 1, 2.0);
  p.add_objective_entry(0, 0, 1, 1.0);
  const int tr = p.add_constraint(1.0);
  p.add_entry(tr, 0, 0, 0, 1.0);
  p.add_entry(tr, 0, 1, 1, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.dual_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.x.dense(0)(0, 1), -0.5, 1e-4);
}

// Pure LP posed through the diag block: min x0 + 2 x1, x0 + x1 = 1, x >= 0.
TEST(SdpSolver, LpDiagBlock) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  p.add_objective_entry(0, 0, 0, 1.0);
  p.add_objective_entry(0, 1, 1, 2.0);
  const int c = p.add_constraint(1.0);
  p.add_entry(c, 0, 0, 0, 1.0);
  p.add_entry(c, 0, 1, 1, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.x.diag(0)[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x.diag(0)[1], 0.0, 1e-4);
}

// Mixed dense + LP-slack: min tr(CX) s.t. tr(X) + s = 2, s >= 0, with C PSD:
// pushing tr(X) to 0 is optimal, s takes the slack.
TEST(SdpSolver, MixedBlocksWithSlack) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, 2}, BlockSpec{BlockSpec::Kind::kDiag, 1}});
  p.add_objective_entry(0, 0, 0, 1.0);
  p.add_objective_entry(0, 1, 1, 1.0);
  const int c = p.add_constraint(2.0);
  p.add_entry(c, 0, 0, 0, 1.0);
  p.add_entry(c, 0, 1, 1, 1.0);
  p.add_entry(c, 1, 0, 0, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 0.0, 1e-4);
  EXPECT_NEAR(r.x.diag(1)[0], 2.0, 1e-3);
}

// The lifted binary-QP relaxation the CPLA engine uses, on a tiny instance:
// one segment, two layers, costs 5 and 3. Y = [[1, x'],[x, X]], diag(X)=x,
// x0+x1 = 1. The relaxation is exact here: pick layer 1.
TEST(SdpSolver, LiftedAssignmentExact) {
  SdpProblem p(dense_block(3));
  p.add_objective_entry(0, 1, 1, 5.0);
  p.add_objective_entry(0, 2, 2, 3.0);
  const int corner = p.add_constraint(1.0);
  p.add_entry(corner, 0, 0, 0, 1.0);
  for (int i = 1; i <= 2; ++i) {
    // X_ii - Y_0i = 0  (x^2 = x linkage)
    const int link = p.add_constraint(0.0);
    p.add_entry(link, 0, i, i, 1.0);
    p.add_entry(link, 0, 0, i, -0.5);  // off-diag counts twice
  }
  const int pick = p.add_constraint(1.0);
  p.add_entry(pick, 0, 1, 1, 1.0);
  p.add_entry(pick, 0, 2, 2, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 3.0, 1e-4);
  EXPECT_NEAR(r.x.dense(0)(2, 2), 1.0, 1e-3);
  EXPECT_NEAR(r.x.dense(0)(1, 1), 0.0, 1e-3);
}

TEST(SdpSolver, DualityGapCloses) {
  // Random PSD objective over the spectraplex; verify optimality conditions.
  cpla::Rng rng(77);
  const int n = 5;
  SdpProblem p(dense_block(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) p.add_objective_entry(0, i, j, rng.uniform(-1.0, 1.0));
  }
  const int tr = p.add_constraint(1.0);
  for (int i = 0; i < n; ++i) p.add_entry(tr, 0, i, i, 1.0);

  const SdpResult r = solve(p);
  ASSERT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_LT(r.rel_gap, 1e-6);
  EXPECT_LT(r.primal_infeas, 1e-6);
  EXPECT_LT(r.dual_infeas, 1e-6);
  // Primal iterate stays PSD (tiny numerical slack allowed).
  EXPECT_TRUE(is_positive_definite(r.x, 1e-9));
  EXPECT_TRUE(is_positive_definite(r.z, 1e-9));
}

// Property sweep: min-eigenvalue SDPs of growing size against the Jacobi
// eigensolver.
class SdpEigSweep : public ::testing::TestWithParam<int> {};

TEST_P(SdpEigSweep, MatchesEigensolver) {
  const int n = GetParam();
  cpla::Rng rng(900 + static_cast<std::uint64_t>(n));
  la::Matrix c(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  SdpProblem p(dense_block(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng.uniform(-2.0, 2.0);
      c(i, j) = c(j, i) = v;
      p.add_objective_entry(0, i, j, v);
    }
  }
  const int tr = p.add_constraint(1.0);
  for (int i = 0; i < n; ++i) p.add_entry(tr, 0, i, i, 1.0);

  const SdpResult r = solve(p);
  ASSERT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, la::min_eigenvalue(c), 1e-4 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SdpEigSweep, ::testing::Values(2, 3, 4, 6, 8, 12, 16));

// A small well-posed instance reused by the failure-mode tests below.
SdpProblem min_eig_instance() {
  SdpProblem p(dense_block(2));
  p.add_objective_entry(0, 0, 0, 2.0);
  p.add_objective_entry(0, 1, 1, 1.0);
  const int tr = p.add_constraint(1.0);
  p.add_entry(tr, 0, 0, 0, 1.0);
  p.add_entry(tr, 0, 1, 1, 1.0);
  return p;
}

TEST(SdpStatusNames, AllValues) {
  EXPECT_STREQ(to_string(SdpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SdpStatus::kStalled), "stalled");
  EXPECT_STREQ(to_string(SdpStatus::kIterLimit), "iteration-limit");
  EXPECT_STREQ(to_string(SdpStatus::kNumerical), "numerical-failure");
  EXPECT_STREQ(to_string(SdpStatus::kDeadline), "deadline-exceeded");
  EXPECT_STREQ(to_string(SdpStatus::kBadProblem), "bad-problem");
}

TEST(SdpSolver, DeadlineExhaustionReportsStatus) {
  SdpOptions opt;
  opt.time_limit_ms = 1e-7;  // expires before the first iteration completes
  const SdpResult r = solve(min_eig_instance(), opt);
  EXPECT_EQ(r.status, SdpStatus::kDeadline);
}

TEST(SdpSolver, InjectedNumericalFailureReportsStatus) {
  FaultInjector::instance().arm_always("sdp.solve.numerical");
  const SdpResult r = solve(min_eig_instance());
  EXPECT_EQ(r.status, SdpStatus::kNumerical);
  FaultInjector::instance().reset();
  EXPECT_EQ(solve(min_eig_instance()).status, SdpStatus::kOptimal);
}

TEST(SdpSolver, InjectedIterationLimitReportsStatus) {
  FaultInjector::instance().arm_always("sdp.solve.iterlimit");
  const SdpResult r = solve(min_eig_instance());
  EXPECT_EQ(r.status, SdpStatus::kIterLimit);
  FaultInjector::instance().reset();
}

// Regression: res.iterations used to be set at the top of the loop, so the
// iteration-limit path under-reported by one (max_iterations - 1 instead of
// max_iterations completed iterations).
TEST(SdpSolver, IterationLimitReportsCompletedIterations) {
  SdpOptions opt;
  opt.max_iterations = 3;
  opt.tol = 1e-30;  // unreachable: force the iteration-limit path
  const SdpResult r = solve(min_eig_instance(), opt);
  ASSERT_EQ(r.status, SdpStatus::kIterLimit);
  EXPECT_EQ(r.iterations, 3);
}

// Regression: an off-diagonal entry on a diagonal block used to abort the
// process via CPLA_ASSERT inside add_entry. It is an input-shape error, not
// a programmer invariant: validate() rejects it recoverably and solve()
// refuses with kBadProblem instead of silently mis-solving (the diag block
// storage would have dropped the off-diagonal coefficient).
TEST(SdpSolver, RejectsOffDiagonalEntryOnDiagBlock) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  p.add_objective_entry(0, 0, 0, 1.0);
  const int c = p.add_constraint(1.0);
  p.add_entry(c, 0, 0, 1, 1.0);  // off-diagonal on a diagonal block

  const Status vs = p.validate();
  ASSERT_FALSE(vs.is_ok());
  EXPECT_EQ(vs.code(), StatusCode::kBadInput);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kBadProblem);
  EXPECT_EQ(r.iterations, 0);
}

TEST(SdpSolver, RejectsOffDiagonalObjectiveEntryOnDiagBlock) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDiag, 3}});
  p.add_objective_entry(0, 1, 2, 0.5);
  EXPECT_FALSE(p.validate().is_ok());
  EXPECT_EQ(solve(p).status, SdpStatus::kBadProblem);
}

// Failure accounting contract: kStalled is NOT a failure (the best iterate
// is still returned and downstream accepts it); it is tracked in the
// separate sdp.solve.stalls counter. A rejected problem IS a failure.
TEST(SdpSolverCounters, StallsAreNotFailures) {
  obs::Counter& failures = obs::metrics().counter("sdp.solve.failures");
  obs::Counter& stalls = obs::metrics().counter("sdp.solve.stalls");

  const std::int64_t f0 = failures.value();
  const std::int64_t s0 = stalls.value();
  const SdpResult ok = solve(min_eig_instance());
  ASSERT_EQ(ok.status, SdpStatus::kOptimal);
  EXPECT_EQ(failures.value(), f0);
  EXPECT_EQ(stalls.value(), s0);

  SdpProblem bad({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  const int c = bad.add_constraint(1.0);
  bad.add_entry(c, 0, 0, 1, 1.0);
  ASSERT_EQ(solve(bad).status, SdpStatus::kBadProblem);
  EXPECT_EQ(failures.value(), f0 + 1);
  EXPECT_EQ(stalls.value(), s0);
}

// The SDP phase split (Schur assembly, Schur factorization, direction
// solves, step search) lands in its histograms once per solve, however many
// iterations ran, and never exceeds the solve's own wall time.
TEST(SdpSolverCounters, PhaseSplitRecordedOncePerSolve) {
  obs::Histogram* phases[] = {
      &obs::metrics().histogram("phase.sdp.schur_assembly.ms"),
      &obs::metrics().histogram("phase.sdp.schur_factor.ms"),
      &obs::metrics().histogram("phase.sdp.direction.ms"),
      &obs::metrics().histogram("phase.sdp.step_search.ms"),
  };
  obs::Histogram& wall = obs::metrics().histogram("sdp.solve.ms");
  std::int64_t counts[4];
  double phase_sum = 0.0;
  for (int k = 0; k < 4; ++k) {
    counts[k] = phases[k]->count();
    phase_sum -= phases[k]->sum();
  }
  const double wall0 = wall.sum();
  const SdpResult r = solve(min_eig_instance());
  ASSERT_EQ(r.status, SdpStatus::kOptimal);
  ASSERT_GT(r.iterations, 1);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(phases[k]->count(), counts[k] + 1);
    phase_sum += phases[k]->sum();
  }
  EXPECT_GE(phase_sum, 0.0);
  EXPECT_LE(phase_sum, wall.sum() - wall0);
}

// A lifted assignment relaxation in the shape the CPLA engine emits: a
// moment-style dense block Y = [[1, x'],[x, X]] plus a diagonal slack
// block, with x^2 = x linkage, one-layer-per-segment, and capacity rows.
// Large enough (m > 8) to engage the parallel Schur path.
SdpProblem lifted_instance(int vars, int layers, cpla::Rng* rng) {
  const int dim = 1 + vars * layers;
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, dim},
                BlockSpec{BlockSpec::Kind::kDiag, vars}});
  for (int k = 1; k < dim; ++k) {
    p.add_objective_entry(0, 0, k, 0.5 * rng->uniform(0.1, 1.0));
    if (k + layers < dim) p.add_objective_entry(0, k, k + layers, rng->uniform(-0.2, 0.2));
  }
  const int corner = p.add_constraint(1.0);
  p.add_entry(corner, 0, 0, 0, 1.0);
  for (int k = 1; k < dim; ++k) {
    const int link = p.add_constraint(0.0);
    p.add_entry(link, 0, k, k, 1.0);
    p.add_entry(link, 0, 0, k, -0.5);  // off-diag counts twice
  }
  for (int v = 0; v < vars; ++v) {
    const int pick = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) p.add_entry(pick, 0, 1 + v * layers + l, 1 + v * layers + l, 1.0);
  }
  for (int v = 0; v < vars; ++v) {
    const int cap = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) {
      if (rng->chance(0.5)) p.add_entry(cap, 0, 1 + v * layers + l, 1 + v * layers + l, 1.0);
    }
    p.add_entry(cap, 1, v, v, 1.0);  // slack keeps the row an equality
  }
  return p;
}

void expect_bits_equal(const BlockMatrix& a, const BlockMatrix& b) {
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (std::size_t k = 0; k < a.num_blocks(); ++k) {
    if (a.is_dense(k)) {
      const la::Matrix& ma = a.dense(k);
      const la::Matrix& mb = b.dense(k);
      for (std::size_t i = 0; i < ma.rows(); ++i) {
        for (std::size_t j = 0; j < ma.cols(); ++j) ASSERT_EQ(ma(i, j), mb(i, j));
      }
    } else {
      for (std::size_t i = 0; i < a.diag(k).size(); ++i) ASSERT_EQ(a.diag(k)[i], b.diag(k)[i]);
    }
  }
}

void expect_results_bit_identical(const SdpResult& a, const SdpResult& b) {
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.primal_obj, b.primal_obj);
  EXPECT_EQ(a.dual_obj, b.dual_obj);
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.y.size(); ++i) ASSERT_EQ(a.y[i], b.y[i]);
  expect_bits_equal(a.x, b.x);
  expect_bits_equal(a.z, b.z);
}

// The ECO cache replays solutions byte-for-byte, so the solver must be
// bit-identical run to run.
TEST(SdpDeterminism, RepeatedRunsBitIdentical) {
  cpla::Rng rng(42);
  const SdpProblem p = lifted_instance(4, 3, &rng);
  const SdpResult a = solve(p);
  const SdpResult b = solve(p);
  expect_results_bit_identical(a, b);
}

// The parallel paths use a fixed blocking schedule with no
// reduction-order nondeterminism, so a parallel solve is bit-identical to
// a serial one — at any thread count.
TEST(SdpDeterminism, ParallelMatchesSerialBitwise) {
  cpla::Rng rng(43);
  const SdpProblem p = lifted_instance(5, 3, &rng);
  SdpOptions par;
  par.parallel = true;
  SdpOptions ser;
  ser.parallel = false;
  expect_results_bit_identical(solve(p, par), solve(p, ser));
}

#ifdef _OPENMP
TEST(SdpDeterminism, ThreadCountDoesNotChangeBits) {
  cpla::Rng rng(44);
  const SdpProblem p = lifted_instance(5, 4, &rng);
  SdpOptions opt;
  opt.parallel = true;
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const SdpResult one = solve(p, opt);
  omp_set_num_threads(4);
  const SdpResult four = solve(p, opt);
  omp_set_num_threads(saved);
  expect_results_bit_identical(one, four);
}
#endif


// The lifted relaxation in the shape of BM_SdpLiftedPartition
// (bench/micro_solvers.cpp): link rows Y_kk - Y_0k = 0, pick rows on the
// first row, capacity rows that end in a slack on the diag block.
SdpProblem bench_lifted_instance(int vars, int layers, cpla::Rng* rng) {
  const int dim = 1 + vars * layers;
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, dim},
                BlockSpec{BlockSpec::Kind::kDiag, vars}});
  for (int k = 1; k < dim; ++k) p.add_objective_entry(0, 0, k, 0.5 * rng->uniform(0.1, 1.0));
  for (int k = 1; k + layers < dim; ++k) {
    p.add_objective_entry(0, k, k + layers, rng->uniform(-0.2, 0.2));
  }
  const int corner = p.add_constraint(1.0);
  p.add_entry(corner, 0, 0, 0, 1.0);
  for (int k = 1; k < dim; ++k) {
    const int link = p.add_constraint(0.0);
    p.add_entry(link, 0, k, k, 1.0);
    p.add_entry(link, 0, 0, k, -0.5);
  }
  for (int v = 0; v < vars; ++v) {
    const int pick = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) p.add_entry(pick, 0, 0, 1 + v * layers + l, 0.5);
  }
  for (int r = 0; r < vars; ++r) {
    const int cap = p.add_constraint(rng->uniform(1.0, 2.0));
    for (int v = 0; v < vars; ++v) {
      if (!rng->chance(0.4)) continue;
      const int l = static_cast<int>(rng->uniform_int(0, layers - 1));
      p.add_entry(cap, 0, 0, 1 + v * layers + l, 0.5 * rng->uniform(0.5, 1.0));
    }
    p.add_entry(cap, 1, r, r, 1.0);
  }
  return p;
}

// The shape build_lifted_sdp emits for a partition whose via combos exceed
// the 160-combo cap: a chain of (parent, child) pairs costs every layer
// change, and each of the first 160 combos gets the two product-bound rows
// Y_ab - s = 0 and Y_ab - x_a - x_b + 1 - s = 0 (s >= 0 on the diag block).
SdpProblem rlt_lifted_instance(int vars, int layers, cpla::Rng* rng) {
  constexpr int kMaxAuxCombos = 160;
  const int dim = 1 + vars * layers;
  const int caps = vars / 2;
  auto xi = [&](int v, int l) { return 1 + v * layers + l; };
  std::vector<std::pair<int, int>> combos;  // (a, b) dense indices, a < b
  for (int v = 0; v + 1 < vars; ++v) {
    for (int lp = 0; lp < layers; ++lp) {
      for (int lc = 0; lc < layers; ++lc) {
        if (lp != lc) combos.push_back({xi(v, lp), xi(v + 1, lc)});
      }
    }
  }
  const int aux = std::min<int>(kMaxAuxCombos, static_cast<int>(combos.size()));
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, dim},
                BlockSpec{BlockSpec::Kind::kDiag, caps + 2 * aux}});
  for (int k = 1; k < dim; ++k) p.add_objective_entry(0, k, k, rng->uniform(0.5, 2.0));
  for (const auto& [a, b] : combos) p.add_objective_entry(0, a, b, rng->uniform(0.1, 1.0));
  const int corner = p.add_constraint(1.0);
  p.add_entry(corner, 0, 0, 0, 1.0);
  for (int k = 1; k < dim; ++k) {
    const int link = p.add_constraint(0.0);
    p.add_entry(link, 0, k, k, 1.0);
    p.add_entry(link, 0, 0, k, -0.5);
  }
  for (int v = 0; v < vars; ++v) {
    const int pick = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) p.add_entry(pick, 0, 0, xi(v, l), 0.5);
  }
  int slack = 0;
  for (int r = 0; r < caps; ++r) {
    const int cap = p.add_constraint(static_cast<double>(rng->uniform_int(1, 3)));
    for (int v = 0; v < vars; ++v) {
      if (rng->chance(0.5)) p.add_entry(cap, 0, 0, xi(v, r % layers), 0.5);
    }
    p.add_entry(cap, 1, slack, slack, 1.0);
    ++slack;
  }
  for (int c = 0; c < aux; ++c) {
    const auto [a, b] = combos[static_cast<std::size_t>(c)];
    const int lower = p.add_constraint(0.0);
    p.add_entry(lower, 0, a, b, 0.5);
    p.add_entry(lower, 1, slack, slack, -1.0);
    ++slack;
    const int upper = p.add_constraint(-1.0);
    p.add_entry(upper, 0, a, b, 0.5);
    p.add_entry(upper, 0, 0, a, -0.5);
    p.add_entry(upper, 0, 0, b, -0.5);
    p.add_entry(upper, 1, slack, slack, -1.0);
    ++slack;
  }
  return p;
}

/// Order-sensitive FNV-1a over the bits of y, X and Z.
std::uint64_t result_hash(const SdpResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h *= 1099511628211ull;
  };
  for (double v : r.y) mix(v);
  for (const BlockMatrix* m : {&r.x, &r.z}) {
    for (std::size_t k = 0; k < m->num_blocks(); ++k) {
      if (m->is_dense(k)) {
        const la::Matrix& d = m->dense(k);
        for (std::size_t i = 0; i < d.rows(); ++i) {
          for (std::size_t j = 0; j < d.cols(); ++j) mix(d(i, j));
        }
      } else {
        for (double v : m->diag(k)) mix(v);
      }
    }
  }
  return h;
}

struct Fingerprint {
  SdpStatus status;
  int iterations;
  std::uint64_t hash;
};

// Serial solves: the parallel paths give the same bits at any thread count
// (SdpDeterminism above), and a serial run keeps this test cheap under a
// loaded ctest.
void expect_fingerprint(const SdpProblem& p, const Fingerprint& want) {
  SdpOptions opt;
  opt.parallel = false;
  const SdpResult r = solve(p, opt);
  EXPECT_EQ(r.status, want.status) << to_string(r.status);
  EXPECT_EQ(r.iterations, want.iterations);
  EXPECT_EQ(result_hash(r), want.hash) << std::hex << "0x" << result_hash(r);
}

// Pins the solver's exact output on the problem shapes the flow solves.
// The kernels keep every floating-point operation in a fixed order, so a
// faster Schur assembly, Cholesky or step search must leave these bits
// alone; a change here is a change of results, not of speed.
TEST(SdpFingerprint, LiftedPartitionSizes) {
  const Fingerprint want[] = {
      {SdpStatus::kOptimal, 18, 0xc1ab932051c605d8ull},
      {SdpStatus::kOptimal, 18, 0x0ed35dd06a2923f9ull},
      {SdpStatus::kOptimal, 22, 0xf1a96fb2e84f4974ull},
  };
  const int sizes[] = {8, 16, 24};
  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE(sizes[s]);
    cpla::Rng rng(6);
    expect_fingerprint(bench_lifted_instance(sizes[s], 4, &rng), want[s]);
  }
}

TEST(SdpFingerprint, RltRowsAtComboCap) {
  cpla::Rng rng(7);
  const SdpProblem p = rlt_lifted_instance(15, 4, &rng);
  ASSERT_EQ(p.structure()[1].dim, 7 + 2 * 160);
  expect_fingerprint(p, {SdpStatus::kOptimal, 20, 0x7b6483cb22d4f59aull});
}

}  // namespace
}  // namespace cpla::sdp
