#pragma once

// Schur-complement assembly for the interior-point solver:
//
//   M_ij = tr(A_i Z^{-1} A_j X),  i, j = 1..m.
//
// The constraints are compiled once per solve into a flat layout: per
// (constraint, block), a contiguous run of entries in their original order,
// plus each constraint's original entry order as indices into those runs.
// The entry-pair factor t of a dense-block term depends only on the two
// entries' positions, so each iteration first tabulates t once per pair of
// distinct positions, and the walk over the runs then costs one table load
// per entry pair. Every M_ij still sums its terms in exactly the order of
// the plain entry-by-entry walk (see DESIGN.md "Dense kernel architecture").

#include <cstdint>
#include <vector>

#include "src/sdp/problem.hpp"

namespace cpla::sdp {

class SchurLayout {
 public:
  explicit SchurLayout(const SdpProblem& problem);

  /// The full m x m matrix M for the iterates `zinv` = Z^{-1} and `x`,
  /// exactly symmetric: only the upper triangle is computed, then mirrored.
  /// `parallel` spreads the table rows and the columns over OpenMP threads;
  /// each has one owner, so M is bit-identical at any thread count.
  la::Matrix assemble(const BlockMatrix& zinv, const BlockMatrix& x, bool parallel);

 private:
  // A distinct (row, col) of a dense block. A block's positions are
  // numbered consecutively in order of first use.
  struct Position {
    int block = 0;
    int row = 0;
    int col = 0;
    bool off_diagonal = false;
    std::uint32_t first = 0;      // index of the block's first position
    std::uint32_t needed = 0;     // leading positions e of the block whose
                                  // t(e, this) some M_ij with i <= j reads
    std::uint32_t table_row = 0;  // offset of t(., this) in table_
  };
  struct Entry {
    double value = 0.0;
    int block = 0;
    int row = 0;                  // diag blocks
    std::uint32_t local = 0;      // dense blocks: position index within the block
    std::uint32_t table_row = 0;  // dense blocks: the position's table_row
  };
  struct Block;  // raw views of one block of Z^{-1} and X

  void fill_table_row(std::size_t r, const std::vector<Block>& blocks);
  double entry(int i, int j, const std::vector<Block>& blocks) const;

  int m_ = 0;
  int num_blocks_ = 0;
  std::vector<Entry> entries_;        // constraint-major, then block-major
  std::vector<std::uint32_t> run_;    // run_[i * num_blocks_ + b]: first entry of (i, b)
  std::vector<std::uint32_t> order_;  // per constraint, original order -> entries_ index
  std::vector<Position> positions_;   // every dense block's, block by block
  std::vector<double> table_;         // t(e, f) at f.table_row + e's local index
};

}  // namespace cpla::sdp
