#include "src/la/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace cpla::la {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

void Matrix::axpy(double alpha, const Matrix& other) {
  CPLA_ASSERT(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

void Matrix::symmetrize() {
  CPLA_ASSERT(rows_ == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

namespace {

// Register-tile shape for the GEMM micro-kernel: each (i0, j0) tile keeps a
// kMr x kNr accumulator block in registers and streams the full k range
// through it. Accumulation is always over ascending k for every output
// entry, so the result is independent of the tile shape and bit-identical
// run to run.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

}  // namespace

Matrix operator*(const Matrix& a, const Matrix& b) {
  CPLA_ASSERT(a.cols_ == b.rows_);
  const std::size_t m = a.rows_;
  const std::size_t kk = a.cols_;
  const std::size_t n = b.cols_;
  Matrix out(m, n);
  for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
    const std::size_t mr = std::min(kMr, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t nr = std::min(kNr, n - j0);
      if (mr == kMr && nr == kNr) {
        // Full tile: fixed-size accumulator the compiler keeps in registers.
        double acc[kMr][kNr] = {};
        const double* arows[kMr];
        for (std::size_t r = 0; r < kMr; ++r) arows[r] = a.row_ptr(i0 + r);
        for (std::size_t k = 0; k < kk; ++k) {
          const double* brow = b.row_ptr(k) + j0;
          for (std::size_t r = 0; r < kMr; ++r) {
            const double av = arows[r][k];
            for (std::size_t c = 0; c < kNr; ++c) acc[r][c] += av * brow[c];
          }
        }
        for (std::size_t r = 0; r < kMr; ++r) {
          double* orow = out.row_ptr(i0 + r) + j0;
          for (std::size_t c = 0; c < kNr; ++c) orow[c] = acc[r][c];
        }
      } else {
        // Edge tile: same k-ascending order, variable extents.
        double acc[kMr][kNr] = {};
        for (std::size_t k = 0; k < kk; ++k) {
          const double* brow = b.row_ptr(k) + j0;
          for (std::size_t r = 0; r < mr; ++r) {
            const double av = a.row_ptr(i0 + r)[k];
            for (std::size_t c = 0; c < nr; ++c) acc[r][c] += av * brow[c];
          }
        }
        for (std::size_t r = 0; r < mr; ++r) {
          double* orow = out.row_ptr(i0 + r) + j0;
          for (std::size_t c = 0; c < nr; ++c) orow[c] = acc[r][c];
        }
      }
    }
  }
  return out;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.axpy(1.0, b);
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.axpy(-1.0, b);
  return out;
}

Vector mat_vec(const Matrix& a, const Vector& x) {
  CPLA_ASSERT(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_ptr(r);
    double sum = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) sum += row[c] * x[c];
    y[r] = sum;
  }
  return y;
}

Vector mat_tvec(const Matrix& a, const Vector& x) {
  CPLA_ASSERT(a.rows() == x.size());
  Vector y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_ptr(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

double dot(const Matrix& a, const Matrix& b) {
  CPLA_ASSERT(a.rows() == b.rows() && a.cols() == b.cols());
  double sum = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row_ptr(r);
    const double* br = b.row_ptr(r);
    for (std::size_t c = 0; c < a.cols(); ++c) sum += ar[c] * br[c];
  }
  return sum;
}

double dot(const Vector& a, const Vector& b) {
  CPLA_ASSERT(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

double frob_norm(const Matrix& a) { return std::sqrt(dot(a, a)); }

}  // namespace cpla::la
