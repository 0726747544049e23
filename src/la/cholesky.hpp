#pragma once

// Cholesky factorization A = L L^T for symmetric positive-definite matrices.
// This is the hot kernel of the SDP interior-point solver: it both solves
// linear systems and certifies positive definiteness (a failed factorization
// is how the line search detects leaving the PSD cone).

#include <optional>

#include "src/la/matrix.hpp"

namespace cpla::la {

class Cholesky {
 public:
  /// Factorizes; returns std::nullopt if `a` is not (numerically) positive
  /// definite. `a` must be symmetric.
  static std::optional<Cholesky> factor(const Matrix& a);

  /// The same factorization written into the lower triangle of `*l`
  /// (reallocated, zero-filled, only when its shape differs), for callers
  /// that need just the verdict or reuse one buffer across many
  /// factorizations. Returns false exactly where factor() returns
  /// std::nullopt, with the same counters and fault site.
  static bool factor_into(const Matrix& a, Matrix* l);

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A X = B for all columns at once (multi-RHS substitution).
  Matrix solve(const Matrix& b) const;

  /// A^{-1} (dense, symmetric) via the triangular inverse of L.
  Matrix inverse() const;

  /// log det(A) = 2 sum log L_ii.
  double log_det() const;

  std::size_t dim() const { return l_.rows(); }
  const Matrix& l() const { return l_; }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower triangular
};

/// True iff the symmetric matrix is positive definite (by attempted
/// factorization after adding `shift` to the diagonal).
bool is_positive_definite(const Matrix& a, double shift = 0.0);

}  // namespace cpla::la
