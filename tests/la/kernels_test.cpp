// Golden equivalence suite for the blocked dense kernels. The tiled GEMM,
// blocked right-looking Cholesky, multi-RHS triangular solve, and
// triangular-inverse paths must agree with straightforward reference
// implementations across sizes that exercise both full tiles and odd tails
// (1, 2, 7, 31, 64, 65), and must be bit-identical across repeated runs.
// The register-tiled Cholesky must also be bitwise equal to the untiled
// blocked factor it replaced, kept below as an oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "src/la/cholesky.hpp"
#include "src/la/matrix.hpp"
#include "src/util/rng.hpp"

namespace cpla::la {
namespace {

Matrix random_dense(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng->normal();
  return m;
}

Matrix random_spd(std::size_t n, Rng* rng) {
  Matrix g = random_dense(n, n, rng);
  Matrix a = g * g.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

Matrix reference_gemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = sum;
    }
  }
  return out;
}

// Unblocked left-looking Cholesky, the pre-blocking algorithm.
Matrix reference_cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    EXPECT_GT(diag, 0.0);
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return l;
}

// The blocked right-looking factor before register tiling, kept verbatim
// (minus metrics and fault site) as the bitwise oracle for the tiled one:
// every entry's accumulation order must be the same.
std::optional<Matrix> untiled_blocked_cholesky(const Matrix& a) {
  constexpr std::size_t kNb = 48;
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a.row_ptr(i);
    double* lrow = l.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) lrow[j] = arow[j];
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
    const std::size_t jb = std::min(kNb, n - j0);
    for (std::size_t j = j0; j < j0 + jb; ++j) {
      const double* lj = l.row_ptr(j);
      double diag = lj[j];
      for (std::size_t k = j0; k < j; ++k) diag -= lj[k] * lj[k];
      if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      for (std::size_t i = j + 1; i < j0 + jb; ++i) {
        double* li = l.row_ptr(i);
        double sum = li[j];
        for (std::size_t k = j0; k < j; ++k) sum -= li[k] * lj[k];
        li[j] = sum / ljj;
      }
    }
    for (std::size_t i = j0 + jb; i < n; ++i) {
      double* li = l.row_ptr(i);
      for (std::size_t j = j0; j < j0 + jb; ++j) {
        const double* lj = l.row_ptr(j);
        double sum = li[j];
        for (std::size_t k = j0; k < j; ++k) sum -= li[k] * lj[k];
        li[j] = sum / lj[j];
      }
    }
    for (std::size_t i = j0 + jb; i < n; ++i) {
      const double* li = l.row_ptr(i) + j0;
      for (std::size_t j = j0 + jb; j <= i; ++j) {
        const double* lj = l.row_ptr(j) + j0;
        double sum = 0.0;
        for (std::size_t k = 0; k < jb; ++k) sum += li[k] * lj[k];
        l(i, j) -= sum;
      }
    }
  }
  return l;
}

/// Both factors fail, or both succeed with bitwise-equal L (upper triangle
/// included: it must stay zero).
void expect_matches_untiled(const Matrix& a) {
  const auto tiled = Cholesky::factor(a);
  const auto oracle = untiled_blocked_cholesky(a);
  ASSERT_EQ(tiled.has_value(), oracle.has_value());
  if (!tiled) return;
  const Matrix& l = tiled->l();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(l(r, c), (*oracle)(r, c)) << "L(" << r << ", " << c << ")";
    }
  }
}

double rel_diff(const Matrix& a, const Matrix& b) {
  Matrix d = a - b;
  return frob_norm(d) / (1.0 + frob_norm(a));
}

class KernelSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelSizes, GemmMatchesReference) {
  Rng rng(100 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_dense(n, n, &rng);
  const Matrix b = random_dense(n, n, &rng);
  EXPECT_LE(rel_diff(a * b, reference_gemm(a, b)), 1e-12);
}

TEST_P(KernelSizes, GemmRectangularMatchesReference) {
  Rng rng(200 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_dense(n, n + 3, &rng);
  const Matrix b = random_dense(n + 3, 2 * n + 1, &rng);
  EXPECT_LE(rel_diff(a * b, reference_gemm(a, b)), 1e-12);
}

TEST_P(KernelSizes, CholeskyFactorMatchesReference) {
  Rng rng(300 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix ref = reference_cholesky(a);
  EXPECT_LE(rel_diff(chol->l(), ref), 1e-10);
  // And L L^T reconstructs A.
  EXPECT_LE(rel_diff(chol->l() * chol->l().transposed(), a), 1e-10);
}

TEST_P(KernelSizes, MultiRhsSolveMatchesColumnwise) {
  Rng rng(400 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix b = random_dense(n, n + 2, &rng);
  const Matrix x = chol->solve(b);
  ASSERT_EQ(x.rows(), n);
  ASSERT_EQ(x.cols(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    Vector col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    const Vector ref = chol->solve(col);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(x(r, c), ref[r], 1e-10 * (1.0 + std::fabs(ref[r])))
          << "col " << c << " row " << r;
    }
  }
  // Residual check against the original system.
  EXPECT_LE(rel_diff(a * x, b), 1e-9);
}

TEST_P(KernelSizes, InverseMatchesSolveIdentity) {
  Rng rng(500 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix inv = chol->inverse();
  EXPECT_LE(rel_diff(inv, chol->solve(Matrix::identity(n))), 1e-9);
  EXPECT_LE(rel_diff(a * inv, Matrix::identity(n)), 1e-9);
  // The triangular-inverse construction is symmetric by construction.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c) EXPECT_DOUBLE_EQ(inv(r, c), inv(c, r));
}

INSTANTIATE_TEST_SUITE_P(OddTails, KernelSizes,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{7},
                                           std::size_t{31}, std::size_t{64}, std::size_t{65}));

// Sizes around every tile and panel boundary: below one 4-row tile, one
// tile plus tails, a 48-wide panel plus 0-4 rows, two panels, and the
// Schur sizes the lifted SDPs reach.
class TiledCholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TiledCholeskySizes, BitwiseEqualToUntiledFactor) {
  Rng rng(600 + GetParam());
  expect_matches_untiled(random_spd(GetParam(), &rng));
}

TEST_P(TiledCholeskySizes, NonPositiveDefiniteFailsOnBoth) {
  const std::size_t n = GetParam();
  Rng rng(700 + n);
  // A negative pivot in the last column, and (for n > 1) a Schur
  // complement that turns negative inside the first panel.
  Matrix a = random_spd(n, &rng);
  a(n - 1, n - 1) = -1.0;
  expect_matches_untiled(a);
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  if (n > 1) {
    Matrix b = random_spd(n, &rng);
    b(0, 1) = b(1, 0) = 2.0 * std::sqrt(b(0, 0) * b(1, 1));
    expect_matches_untiled(b);
    EXPECT_FALSE(Cholesky::factor(b).has_value());
  }
}

TEST_P(TiledCholeskySizes, NearSingularAgreesWithUntiledFactor) {
  const std::size_t n = GetParam();
  Rng rng(800 + n);
  // G G^T with G of rank n - 1: a zero pivot up to rounding, which either
  // factor may or may not catch; they must agree on which, bit for bit.
  const Matrix g = random_dense(n, n > 1 ? n - 1 : 1, &rng);
  expect_matches_untiled(g * g.transposed());
}

INSTANTIATE_TEST_SUITE_P(
    TileAndPanelTails, TiledCholeskySizes,
    ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                      std::size_t{5}, std::size_t{13}, std::size_t{14}, std::size_t{47},
                      std::size_t{48}, std::size_t{49}, std::size_t{50}, std::size_t{51},
                      std::size_t{52}, std::size_t{95}, std::size_t{96}, std::size_t{97},
                      std::size_t{200}, std::size_t{353}));

TEST(TiledCholesky, FactorIntoReusesBufferBitwise) {
  Rng rng(900);
  Matrix buffer;
  for (std::size_t n : {std::size_t{53}, std::size_t{53}, std::size_t{7}}) {
    const Matrix a = random_spd(n, &rng);
    ASSERT_TRUE(Cholesky::factor_into(a, &buffer));
    const auto oracle = untiled_blocked_cholesky(a);
    ASSERT_TRUE(oracle.has_value());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) ASSERT_EQ(buffer(r, c), (*oracle)(r, c));
    }
  }
  Matrix bad = random_spd(53, &rng);
  bad(50, 50) = -1.0;
  EXPECT_FALSE(Cholesky::factor_into(bad, &buffer));
}

TEST(KernelDeterminism, RepeatedRunsBitIdentical) {
  Rng rng(42);
  const Matrix a = random_spd(65, &rng);
  const Matrix b = random_dense(65, 65, &rng);

  const Matrix p1 = a * b;
  const Matrix p2 = a * b;
  for (std::size_t r = 0; r < p1.rows(); ++r)
    for (std::size_t c = 0; c < p1.cols(); ++c) ASSERT_EQ(p1(r, c), p2(r, c));

  const auto c1 = Cholesky::factor(a);
  const auto c2 = Cholesky::factor(a);
  ASSERT_TRUE(c1 && c2);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c <= r; ++c) ASSERT_EQ(c1->l()(r, c), c2->l()(r, c));

  const Matrix i1 = c1->inverse();
  const Matrix i2 = c2->inverse();
  for (std::size_t r = 0; r < i1.rows(); ++r)
    for (std::size_t c = 0; c < i1.cols(); ++c) ASSERT_EQ(i1(r, c), i2(r, c));
}

}  // namespace
}  // namespace cpla::la
