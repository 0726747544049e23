#include "src/sdp/schur.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "src/util/check.hpp"

namespace cpla::sdp {

struct SchurLayout::Block {
  bool dense = false;
  const double* zinv = nullptr;  // dense: row-major n x n; diag: n entries
  const double* x = nullptr;
  std::size_t n = 0;
};

SchurLayout::SchurLayout(const SdpProblem& p)
    : m_(p.num_constraints()), num_blocks_(static_cast<int>(p.structure().size())) {
  const auto nb = static_cast<std::size_t>(num_blocks_);
  const auto is_dense = [&](int b) {
    return p.structure()[static_cast<std::size_t>(b)].kind == BlockSpec::Kind::kDense;
  };
  // Number each dense block's distinct positions in order of first use,
  // noting the first and last constraint that uses each, and each dense
  // entry's position (entries of all constraints, in original order).
  std::vector<std::map<std::pair<int, int>, std::uint32_t>> local_of(nb);
  std::vector<std::vector<Position>> by_block(nb);
  std::vector<std::vector<int>> first_use(nb), last_use(nb);
  std::vector<std::uint32_t> entry_local;
  for (int i = 0; i < m_; ++i) {
    for (const ConstraintEntry& e : p.constraint(i).entries) {
      if (!is_dense(e.block)) {
        entry_local.push_back(0);
        continue;
      }
      const auto b = static_cast<std::size_t>(e.block);
      const auto [it, added] = local_of[b].emplace(
          std::make_pair(e.row, e.col), static_cast<std::uint32_t>(by_block[b].size()));
      if (added) {
        by_block[b].push_back(Position{e.block, e.row, e.col, e.row != e.col});
        first_use[b].push_back(i);
        last_use[b].push_back(i);
      }
      last_use[b][it->second] = i;
      entry_local.push_back(it->second);
    }
  }
  // M_ij (i <= j) reads t(e, f) for e used by A_i and f by A_j, so f needs
  // every e first used no later than f's own last use: a prefix of the
  // block's positions, since they are numbered by first use.
  std::vector<std::uint32_t> block_first(nb);
  std::size_t table_size = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    block_first[b] = static_cast<std::uint32_t>(positions_.size());
    for (std::size_t k = 0; k < by_block[b].size(); ++k) {
      Position pos = by_block[b][k];
      pos.first = block_first[b];
      pos.needed = static_cast<std::uint32_t>(
          std::upper_bound(first_use[b].begin(), first_use[b].end(), last_use[b][k]) -
          first_use[b].begin());
      pos.table_row = static_cast<std::uint32_t>(table_size);
      table_size += pos.needed;
      positions_.push_back(pos);
    }
  }
  // Table offsets and run indices are 32-bit.
  CPLA_ASSERT(table_size <= UINT32_MAX);
  table_.resize(table_size);

  // Runs per (constraint, block), each in original order; then each
  // constraint's original order as slots of its runs.
  run_.assign(static_cast<std::size_t>(m_) * nb + 1, 0);
  std::vector<std::uint32_t> next(nb);
  std::size_t seen = 0;  // entries of earlier constraints
  for (int i = 0; i < m_; ++i) {
    const auto& entries = p.constraint(i).entries;
    for (std::size_t b = 0; b < nb; ++b) {
      next[b] = static_cast<std::uint32_t>(entries_.size());
      run_[static_cast<std::size_t>(i) * nb + b] = next[b];
      for (std::size_t k = 0; k < entries.size(); ++k) {
        const ConstraintEntry& e = entries[k];
        if (static_cast<std::size_t>(e.block) != b) continue;
        Entry out{e.value, e.block, e.row};
        if (is_dense(e.block)) {
          out.local = entry_local[seen + k];
          out.table_row = positions_[block_first[b] + out.local].table_row;
        }
        entries_.push_back(out);
      }
    }
    for (const ConstraintEntry& e : entries) {
      order_.push_back(next[static_cast<std::size_t>(e.block)]++);
    }
    seen += entries.size();
  }
  CPLA_ASSERT(entries_.size() <= UINT32_MAX);
  run_.back() = static_cast<std::uint32_t>(entries_.size());
}

/// Row `r` of the table: t(e, f) for f = positions_[r] and each e it needs.
/// Writing A as a sum of symmetrized units S(r,c) = E_rc + [r!=c] E_cr, a
/// pair of same-block entries e = v S(a,b), f = w S(c,d) contributes
/// v * w * t(e, f) to M_ij, with at most four Zi(.,.)*X(.,.) products:
///
///   t = tr(S(a,b) Zi S(c,d) X) =            Zi(b,c) X(d,a)
///                                + [a!=b]   Zi(a,c) X(d,b)
///                                + [c!=d]   Zi(b,d) X(c,a)
///                                + [a!=b && c!=d] Zi(a,d) X(c,b)
void SchurLayout::fill_table_row(std::size_t r, const std::vector<Block>& blocks) {
  const Position& f = positions_[r];
  const Block& blk = blocks[static_cast<std::size_t>(f.block)];
  const std::size_t n = blk.n;
  const double* xc = blk.x + static_cast<std::size_t>(f.col) * n;  // row f.col of X
  const double* xr = blk.x + static_cast<std::size_t>(f.row) * n;  // row f.row of X
  double* out = table_.data() + f.table_row;
  for (std::uint32_t k = 0; k < f.needed; ++k) {
    const Position& e = positions_[f.first + k];
    const double* zc = blk.zinv + static_cast<std::size_t>(e.col) * n;  // row e.col of Zi
    const double* zr = blk.zinv + static_cast<std::size_t>(e.row) * n;  // row e.row of Zi
    double t = zc[f.row] * xc[e.row];
    if (e.off_diagonal) t += zr[f.row] * xc[e.col];
    if (f.off_diagonal) t += zc[f.col] * xr[e.row];
    if (e.off_diagonal && f.off_diagonal) t += zr[f.col] * xr[e.col];
    out[k] = t;
  }
}

/// One entry M_ij. The walk takes the entries e of A_i in their original
/// order and, for each, the entries f of A_j on e's block in theirs: the
/// same sequence of terms, and so the same sum, as a walk over all (e, f)
/// pairs that skips mismatched blocks. Diag blocks contribute elementwise
/// products on matching rows.
double SchurLayout::entry(int i, int j, const std::vector<Block>& blocks) const {
  const auto nb = static_cast<std::size_t>(num_blocks_);
  const std::uint32_t* run_j = run_.data() + static_cast<std::size_t>(j) * nb;
  const std::uint32_t begin = run_[static_cast<std::size_t>(i) * nb];
  const std::uint32_t end = run_[static_cast<std::size_t>(i + 1) * nb];
  double sum = 0.0;
  for (std::uint32_t p = begin; p < end; ++p) {
    const Entry& e = entries_[order_[p]];
    const Entry* f = entries_.data() + run_j[e.block];
    const Entry* const f_end = entries_.data() + run_j[e.block + 1];
    const Block& blk = blocks[static_cast<std::size_t>(e.block)];
    if (blk.dense) {
      const double* t = table_.data() + e.local;  // t(e, f) = t[f->table_row]
      for (; f != f_end; ++f) sum += e.value * f->value * t[f->table_row];
    } else {
      const double zv = blk.zinv[e.row];
      const double xv = blk.x[e.row];
      for (; f != f_end; ++f) {
        if (f->row == e.row) sum += e.value * f->value * zv * xv;
      }
    }
  }
  return sum;
}

la::Matrix SchurLayout::assemble(const BlockMatrix& zinv, const BlockMatrix& x, bool parallel) {
  CPLA_ASSERT(static_cast<int>(zinv.num_blocks()) == num_blocks_ &&
              static_cast<int>(x.num_blocks()) == num_blocks_);
  std::vector<Block> blocks(static_cast<std::size_t>(num_blocks_));
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (zinv.is_dense(b)) {
      blocks[b] = {true, zinv.dense(b).row_ptr(0), x.dense(b).row_ptr(0), zinv.dense(b).rows()};
    } else {
      blocks[b] = {false, zinv.diag(b).data(), x.diag(b).data(), zinv.diag(b).size()};
    }
  }
  const auto m = static_cast<std::size_t>(m_);
  la::Matrix schur(m, m);
  // Column j writes M(0..j, j) and its mirror M(j, 0..j): every entry has
  // exactly one owning column, so the parallel loop needs no reduction.
  const auto column = [&](int j) {
    for (int i = 0; i <= j; ++i) {
      const double v = entry(i, j, blocks);
      schur.row_ptr(static_cast<std::size_t>(i))[j] = v;
      schur.row_ptr(static_cast<std::size_t>(j))[i] = v;
    }
  };
  const auto rows = static_cast<std::int64_t>(positions_.size());
  // Explicit branch, not an `if` clause on the pragma: serial solves of
  // tiny problems must not pay OpenMP team setup every iteration.
#ifdef _OPENMP
  if (parallel && m_ > 8) {
#pragma omp parallel
    {
#pragma omp for schedule(static)
      for (std::int64_t r = 0; r < rows; ++r) fill_table_row(static_cast<std::size_t>(r), blocks);
      // The implicit barrier above completes the table before any column.
#pragma omp for schedule(static, 1)
      for (int j = 0; j < m_; ++j) column(j);
    }
    return schur;
  }
#else
  (void)parallel;
#endif
  for (std::int64_t r = 0; r < rows; ++r) fill_table_row(static_cast<std::size_t>(r), blocks);
  for (int j = 0; j < m_; ++j) column(j);
  return schur;
}

}  // namespace cpla::sdp
