#pragma once

// Block-diagonal symmetric matrices, CSDP-style: a list of dense symmetric
// PSD blocks plus "diagonal" blocks (nonnegative-orthant / LP variables).
// All SDP solver state (X, Z, C, directions) lives in this type.

#include <optional>
#include <vector>

#include "src/la/cholesky.hpp"
#include "src/la/matrix.hpp"

namespace cpla::sdp {

struct BlockSpec {
  enum class Kind { kDense, kDiag };
  Kind kind = Kind::kDense;
  int dim = 0;
};

using BlockStructure = std::vector<BlockSpec>;

/// Total scalar dimension (sum of block dims).
int total_dim(const BlockStructure& structure);

class BlockMatrix {
 public:
  BlockMatrix() = default;
  explicit BlockMatrix(const BlockStructure& structure);

  /// Identity scaled by `alpha`.
  static BlockMatrix scaled_identity(const BlockStructure& structure, double alpha);

  const BlockStructure& structure() const { return structure_; }
  std::size_t num_blocks() const { return structure_.size(); }

  la::Matrix& dense(std::size_t block);
  const la::Matrix& dense(std::size_t block) const;
  la::Vector& diag(std::size_t block);
  const la::Vector& diag(std::size_t block) const;

  bool is_dense(std::size_t block) const {
    return structure_[block].kind == BlockSpec::Kind::kDense;
  }

  void set_zero();
  void scale(double alpha);
  /// this += alpha * other. `parallel` distributes blocks across OpenMP
  /// threads; every block is owned by exactly one thread, so the result is
  /// bit-identical to the serial path.
  void axpy(double alpha, const BlockMatrix& other, bool parallel = false);
  void symmetrize();

  /// Frobenius inner product. Parallel runs reduce per-block partial sums
  /// in block order, independent of thread count.
  double inner(const BlockMatrix& other, bool parallel = false) const;

  double trace() const;
  double frob_norm(bool parallel = false) const;
  double max_abs() const;

 private:
  BlockStructure structure_;
  std::vector<la::Matrix> dense_;  // indexed by block (empty for diag blocks)
  std::vector<la::Vector> diag_;   // indexed by block (empty for dense blocks)
};

/// Blockwise product a*b (dense blocks: full matrix product; diag blocks:
/// elementwise). Result is generally nonsymmetric for dense blocks.
/// `parallel` distributes blocks across OpenMP threads (deterministic:
/// blocks are independent).
BlockMatrix multiply(const BlockMatrix& a, const BlockMatrix& b, bool parallel = false);

/// Blockwise Cholesky; nullopt unless positive definite (diag blocks: all
/// entries strictly positive).
class BlockCholesky {
 public:
  /// Diag blocks are checked first; dense blocks are factored only when
  /// they all pass. `parallel` factors dense blocks across OpenMP threads;
  /// each block's factorization is serial, so the factor is thread-count
  /// independent.
  static std::optional<BlockCholesky> factor(const BlockMatrix& a, bool parallel = false);

  /// A^{-1}, dense per block.
  BlockMatrix inverse() const;

  double log_det() const;

 private:
  BlockCholesky() = default;
  BlockStructure structure_;
  std::vector<std::optional<la::Cholesky>> chol_;  // per dense block
  std::vector<la::Vector> diag_;                   // per diag block
};

/// True iff every entry of every diag block is positive and finite: the
/// diag-block half of the positive-definiteness test, and the cheap half.
bool diag_blocks_positive(const BlockMatrix& a);

/// True iff a + shift*I is positive definite.
bool is_positive_definite(const BlockMatrix& a, double shift = 0.0);

}  // namespace cpla::sdp
