// Bitwise oracle for the compiled Schur assembly: SchurLayout::assemble
// must reproduce, bit for bit, the plain entry-pair walk it replaced (kept
// below verbatim as schur_entry), on problems that mix several dense and
// diag blocks, off-diagonal and duplicate entries, and constraints whose
// entries alternate between blocks.

#include "src/sdp/schur.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/rng.hpp"

namespace cpla::sdp {
namespace {

/// One Schur-complement entry M_ij = tr(A_i Z^{-1} A_j X), assembled
/// directly from the two constraints' sparse entries. Writing A as a sum of
/// symmetrized units S(r,c) = E_rc + [r!=c] E_cr, each pair of entries
/// contributes at most four Zi(.,.)*X(.,.) products:
///
///   tr(S(a,b) Zi S(c,d) X) =            Zi(b,c) X(d,a)
///                            + [a!=b]   Zi(a,c) X(d,b)
///                            + [c!=d]   Zi(b,d) X(c,a)
///                            + [a!=b && c!=d] Zi(a,d) X(c,b)
///
/// so the cost is O(nnz_i * nnz_j) — no dense n^3 product per column. Diag
/// blocks contribute elementwise products on matching rows.
double schur_entry(const SdpProblem& p, int i, int j, const BlockMatrix& zinv,
                   const BlockMatrix& x) {
  double sum = 0.0;
  for (const auto& e : p.constraint(i).entries) {
    for (const auto& f : p.constraint(j).entries) {
      if (e.block != f.block) continue;
      if (zinv.is_dense(e.block)) {
        const auto& zi = zinv.dense(e.block);
        const auto& xb = x.dense(e.block);
        double t = zi(e.col, f.row) * xb(f.col, e.row);
        if (e.row != e.col) t += zi(e.row, f.row) * xb(f.col, e.col);
        if (f.row != f.col) t += zi(e.col, f.col) * xb(f.row, e.row);
        if (e.row != e.col && f.row != f.col) t += zi(e.row, f.col) * xb(f.row, e.col);
        sum += e.value * f.value * t;
      } else if (e.row == f.row) {
        sum += e.value * f.value * zinv.diag(e.block)[e.row] * x.diag(e.block)[e.row];
      }
    }
  }
  return sum;
}

/// The oracle M: upper triangle by schur_entry, mirrored.
la::Matrix oracle_schur(const SdpProblem& p, const BlockMatrix& zinv, const BlockMatrix& x) {
  const auto m = static_cast<std::size_t>(p.num_constraints());
  la::Matrix schur(m, m);
  for (int j = 0; j < p.num_constraints(); ++j) {
    for (int i = 0; i <= j; ++i) schur(i, j) = schur(j, i) = schur_entry(p, i, j, zinv, x);
  }
  return schur;
}

/// Random blocks of dims 1..7, a few of each kind, interleaved.
BlockStructure random_structure(Rng* rng) {
  BlockStructure s;
  const int blocks = static_cast<int>(rng->uniform_int(2, 5));
  for (int b = 0; b < blocks; ++b) {
    const auto kind = (b % 2 == 0) == rng->chance(0.7) ? BlockSpec::Kind::kDense
                                                       : BlockSpec::Kind::kDiag;
    s.push_back({kind, static_cast<int>(rng->uniform_int(1, 7))});
  }
  return s;
}

/// Constraints of 1..6 entries on random blocks, so diag entries land
/// before, between and after dense ones; about one entry in six repeats an
/// earlier entry of the same constraint.
SdpProblem random_problem(Rng* rng) {
  SdpProblem p(random_structure(rng));
  const int m = static_cast<int>(rng->uniform_int(1, 40));
  const int nb = static_cast<int>(p.structure().size());
  for (int c = 0; c < m; ++c) {
    const int row = p.add_constraint(rng->uniform(-1.0, 1.0));
    std::vector<ConstraintEntry> added;
    const int count = static_cast<int>(rng->uniform_int(1, 6));
    for (int k = 0; k < count; ++k) {
      ConstraintEntry e;
      if (!added.empty() && rng->chance(1.0 / 6.0)) {
        const auto last = static_cast<std::int64_t>(added.size()) - 1;
        e = added[static_cast<std::size_t>(rng->uniform_int(0, last))];
      } else {
        e.block = static_cast<int>(rng->uniform_int(0, nb - 1));
        const BlockSpec& spec = p.structure()[static_cast<std::size_t>(e.block)];
        const int a = static_cast<int>(rng->uniform_int(0, spec.dim - 1));
        const int b = spec.kind == BlockSpec::Kind::kDense
                          ? static_cast<int>(rng->uniform_int(0, spec.dim - 1))
                          : a;
        e.row = std::min(a, b);
        e.col = std::max(a, b);
      }
      e.value = rng->uniform(-2.0, 2.0);
      p.add_entry(row, e.block, e.row, e.col, e.value);
      added.push_back(e);
    }
  }
  return p;
}

/// Random entries, not symmetric: the compiled walk must read exactly the
/// elements the oracle reads, not their mirror images.
BlockMatrix random_iterate(const BlockStructure& s, Rng* rng) {
  BlockMatrix out(s);
  for (std::size_t k = 0; k < s.size(); ++k) {
    if (out.is_dense(k)) {
      la::Matrix& d = out.dense(k);
      for (std::size_t r = 0; r < d.rows(); ++r) {
        for (std::size_t c = 0; c < d.cols(); ++c) d(r, c) = rng->uniform(-1.0, 1.0);
      }
    } else {
      for (double& v : out.diag(k)) v = rng->uniform(0.1, 2.0);
    }
  }
  return out;
}

void expect_bitwise_equal(const la::Matrix& got, const la::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      ASSERT_EQ(got(r, c), want(r, c)) << "M(" << r << ", " << c << ")";
    }
  }
}

TEST(SchurLayout, BitwiseEqualToEntryWalkOnRandomProblems) {
  Rng rng(20261019);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const SdpProblem p = random_problem(&rng);
    const BlockMatrix zinv = random_iterate(p.structure(), &rng);
    const BlockMatrix x = random_iterate(p.structure(), &rng);
    const la::Matrix want = oracle_schur(p, zinv, x);
    SchurLayout layout(p);
    expect_bitwise_equal(layout.assemble(zinv, x, /*parallel=*/false), want);
    expect_bitwise_equal(layout.assemble(zinv, x, /*parallel=*/true), want);
  }
}

// A hand-built case of the order that matters: constraint 0 puts its diag
// entry first and splits its dense entries around a second dense block, so
// a block-grouped walk would sum its terms in a different order.
TEST(SchurLayout, DiagEntryBeforeDenseEntriesKeepsOriginalOrder) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, 3}, BlockSpec{BlockSpec::Kind::kDiag, 2},
                BlockSpec{BlockSpec::Kind::kDense, 2}});
  const int a = p.add_constraint(1.0);
  p.add_entry(a, 1, 0, 0, 0.3);
  p.add_entry(a, 0, 0, 2, 1.7);
  p.add_entry(a, 2, 0, 1, -0.9);
  p.add_entry(a, 0, 1, 1, 2.3);
  p.add_entry(a, 1, 0, 0, -1.1);
  const int b = p.add_constraint(0.0);
  p.add_entry(b, 0, 1, 2, 0.7);
  p.add_entry(b, 1, 0, 0, 1.3);
  p.add_entry(b, 2, 1, 1, 0.4);
  p.add_entry(b, 0, 0, 0, -0.6);
  Rng rng(5);
  const BlockMatrix zinv = random_iterate(p.structure(), &rng);
  const BlockMatrix x = random_iterate(p.structure(), &rng);
  expect_bitwise_equal(SchurLayout(p).assemble(zinv, x, false), oracle_schur(p, zinv, x));
}

}  // namespace
}  // namespace cpla::sdp
