#include "src/la/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"

namespace cpla::la {

namespace {

// Register-tile height: the column updates solve kTile rows at once and the
// trailing update fills kTile x kTile tiles. Every output entry still keeps
// its own accumulator over ascending k, so the tiling changes how many
// independent chains are in flight, never the order of any entry's sum.
constexpr std::size_t kTile = 4;

/// l(r, j) = (l(r, j) - sum_{k0 <= k < j} l(r, k) l(j, k)) / ljj for the
/// kTile rows `r`, one accumulator per row.
void column_update_tile(double* const* r, const double* lj, std::size_t k0, std::size_t j,
                        double ljj) {
  double sum[kTile];
  for (std::size_t t = 0; t < kTile; ++t) sum[t] = r[t][j];
  for (std::size_t k = k0; k < j; ++k) {
    const double v = lj[k];
    for (std::size_t t = 0; t < kTile; ++t) sum[t] -= r[t][k] * v;
  }
  for (std::size_t t = 0; t < kTile; ++t) r[t][j] = sum[t] / ljj;
}

/// The single-row form of column_update_tile, for tails.
void column_update_row(double* li, const double* lj, std::size_t k0, std::size_t j, double ljj) {
  double sum = li[j];
  for (std::size_t k = k0; k < j; ++k) sum -= li[k] * lj[k];
  li[j] = sum / ljj;
}

}  // namespace

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  Matrix l;
  if (!factor_into(a, &l)) return std::nullopt;
  return Cholesky(std::move(l));
}

bool Cholesky::factor_into(const Matrix& a, Matrix* out) {
  CPLA_ASSERT(a.rows() == a.cols());
  static obs::Counter& factors = obs::metrics().counter("la.cholesky.factors");
  static obs::Counter& failures = obs::metrics().counter("la.cholesky.failures");
  factors.add();
  if (CPLA_FAULT_POINT("la.cholesky.factor")) {
    failures.add();
    return false;
  }
  // Blocked right-looking factorization: factor a kNb-wide diagonal panel,
  // solve the rows below it, then fold the panel into the trailing
  // submatrix with row-dot updates. The panel width is a compile-time
  // constant, so the reduction order per entry is fixed and the factor is
  // bit-identical run to run.
  constexpr std::size_t kNb = 48;
  const std::size_t n = a.rows();
  if (out->rows() != n || out->cols() != n) *out = Matrix(n, n);
  Matrix& l = *out;
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a.row_ptr(i);
    double* lrow = l.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) lrow[j] = arow[j];
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
    const std::size_t jb = std::min(kNb, n - j0);
    const std::size_t je = j0 + jb;
    // Factor the diagonal block in place (unblocked; contributions from
    // columns < j0 were already subtracted by earlier trailing updates).
    for (std::size_t j = j0; j < je; ++j) {
      double* lj = l.row_ptr(j);
      double diag = lj[j];
      for (std::size_t k = j0; k < j; ++k) diag -= lj[k] * lj[k];
      if (!(diag > 0.0) || !std::isfinite(diag)) {
        failures.add();
        return false;
      }
      const double ljj = std::sqrt(diag);
      lj[j] = ljj;
      std::size_t i = j + 1;
      for (; i + kTile <= je; i += kTile) {
        double* rows[kTile];
        for (std::size_t t = 0; t < kTile; ++t) rows[t] = l.row_ptr(i + t);
        column_update_tile(rows, lj, j0, j, ljj);
      }
      for (; i < je; ++i) column_update_row(l.row_ptr(i), lj, j0, j, ljj);
    }
    // Panel solve: L21 = A21 L11^{-T} for the rows below the block, kTile
    // rows at a time; each row's columns are solved left to right.
    std::size_t i = je;
    for (; i + kTile <= n; i += kTile) {
      double* rows[kTile];
      for (std::size_t t = 0; t < kTile; ++t) rows[t] = l.row_ptr(i + t);
      for (std::size_t j = j0; j < je; ++j) {
        const double* lj = l.row_ptr(j);
        column_update_tile(rows, lj, j0, j, lj[j]);
      }
    }
    for (; i < n; ++i) {
      double* li = l.row_ptr(i);
      for (std::size_t j = j0; j < je; ++j) {
        const double* lj = l.row_ptr(j);
        column_update_row(li, lj, j0, j, lj[j]);
      }
    }
    // Trailing update: A22 -= L21 L21^T (lower triangle only), in
    // kTile x kTile tiles of panel-row dot products. Each kTile-row column
    // tile is packed k-major first, so the tile's inner loop reads both
    // operands contiguously.
    for (std::size_t jt = je; jt < n; jt += kTile) {
      const std::size_t nc = std::min(kTile, n - jt);
      double packed[kNb * kTile];
      for (std::size_t c = 0; c < nc; ++c) {
        const double* lj = l.row_ptr(jt + c) + j0;
        for (std::size_t k = 0; k < jb; ++k) packed[k * kTile + c] = lj[k];
      }
      for (std::size_t it = jt; it < n; it += kTile) {
        const std::size_t nr = std::min(kTile, n - it);
        double acc[kTile][kTile] = {};
        if (nr == kTile && nc == kTile) {
          const double* rows[kTile];
          for (std::size_t r = 0; r < kTile; ++r) rows[r] = l.row_ptr(it + r) + j0;
          for (std::size_t k = 0; k < jb; ++k) {
            const double* pk = packed + k * kTile;
            for (std::size_t r = 0; r < kTile; ++r) {
              const double v = rows[r][k];
              for (std::size_t c = 0; c < kTile; ++c) acc[r][c] += v * pk[c];
            }
          }
        } else {
          for (std::size_t k = 0; k < jb; ++k) {
            const double* pk = packed + k * kTile;
            for (std::size_t r = 0; r < nr; ++r) {
              const double v = l.row_ptr(it + r)[j0 + k];
              for (std::size_t c = 0; c < nc; ++c) acc[r][c] += v * pk[c];
            }
          }
        }
        // The diagonal tile (it == jt) also computed its upper half; only
        // the lower triangle is stored.
        for (std::size_t r = 0; r < nr; ++r) {
          double* li = l.row_ptr(it + r);
          for (std::size_t c = 0; c < nc && jt + c <= it + r; ++c) li[jt + c] -= acc[r][c];
        }
      }
    }
  }
  return true;
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = dim();
  CPLA_ASSERT(b.size() == n);
  Vector y(n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const double* li = l_.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) sum -= li[k] * y[k];
    y[i] = sum / li[i];
  }
  // Back substitution L^T x = y, walking column ii of L.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    const double* lcol = l_.row_ptr(0) + ii;
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lcol[k * n] * x[k];
    x[ii] = sum / lcol[ii * n];
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  const std::size_t n = dim();
  CPLA_ASSERT(b.rows() == n);
  const std::size_t m = b.cols();
  // True multi-RHS substitution: all columns move through the forward and
  // backward sweeps together as contiguous row operations, instead of
  // copying out one column at a time. Per column the arithmetic order is
  // identical to the single-RHS path.
  Matrix x = b;
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x.row_ptr(i);
    const double* li = l_.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* xk = x.row_ptr(k);
      for (std::size_t c = 0; c < m; ++c) xi[c] -= lik * xk[c];
    }
    const double lii = li[i];
    for (std::size_t c = 0; c < m; ++c) xi[c] /= lii;
  }
  for (std::size_t i = n; i-- > 0;) {
    double* xi = x.row_ptr(i);
    for (std::size_t k = i + 1; k < n; ++k) {
      const double lki = l_(k, i);
      if (lki == 0.0) continue;
      const double* xk = x.row_ptr(k);
      for (std::size_t c = 0; c < m; ++c) xi[c] -= lki * xk[c];
    }
    const double lii = l_(i, i);
    for (std::size_t c = 0; c < m; ++c) xi[c] /= lii;
  }
  return x;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = dim();
  // Triangular inverse route: forward-substitute L R = I exploiting that
  // row i of R = L^{-1} has support [0..i], then form A^{-1} = R^T R from
  // R's rows (lower triangle only, mirrored at the end). Roughly 2n^3/3
  // flops with contiguous row access, versus the n^3 general solve this
  // replaced.
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* ri = r.row_ptr(i);
    const double* li = l_.row_ptr(i);
    ri[i] = 1.0;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* rk = r.row_ptr(k);
      for (std::size_t c = 0; c <= k; ++c) ri[c] -= lik * rk[c];
    }
    const double lii = li[i];
    for (std::size_t c = 0; c <= i; ++c) ri[c] /= lii;
  }
  Matrix out(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double* rk = r.row_ptr(k);
    for (std::size_t i = 0; i <= k; ++i) {
      const double v = rk[i];
      if (v == 0.0) continue;
      double* oi = out.row_ptr(i);
      for (std::size_t c = 0; c <= i; ++c) oi[c] += v * rk[c];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < i; ++c) out(c, i) = out(i, c);
  }
  return out;
}

double Cholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) sum += std::log(l_(i, i));
  return 2.0 * sum;
}

bool is_positive_definite(const Matrix& a, double shift) {
  Matrix shifted = a;
  if (shift != 0.0) {
    for (std::size_t i = 0; i < a.rows(); ++i) shifted(i, i) += shift;
  }
  return Cholesky::factor(shifted).has_value();
}

}  // namespace cpla::la
