// Bit-serial systematic encoder: the test oracle for LdpcEncoder.
//
// This is the original encoder, kept verbatim in logic: Gauss–Jordan to
// reduced row-echelon form over a dense bitset copy of H, then one bit test
// per (pivot row, free column) pair. The production encoder computes the
// same parity bits word-parallel; EncoderTest demands the two agree bit for
// bit. Because the RREF of a matrix is unique, both derive the same pivot
// and free columns from H independently.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ldpc/code.hpp"
#include "util/check.hpp"

namespace renoc::testing {

class ReferenceEncoder {
 public:
  explicit ReferenceEncoder(const LdpcCode& code) : n_(code.n()) {
    const int m = code.m();
    const std::size_t words = static_cast<std::size_t>((n_ + 63) / 64);
    std::vector<Row> rows(static_cast<std::size_t>(m), Row(words, 0));
    for (int c = 0; c < m; ++c)
      for (const TannerEdge& e : code.check_edges(c))
        rows[static_cast<std::size_t>(c)]
            [static_cast<std::size_t>(e.other / 64)] ^=
            1ULL << (static_cast<unsigned>(e.other) % 64);

    std::vector<char> is_pivot_col(static_cast<std::size_t>(n_), 0);
    int next_row = 0;
    for (int col = 0; col < n_ && next_row < m; ++col) {
      int pivot = -1;
      for (int r = next_row; r < m; ++r)
        if (get(rows[static_cast<std::size_t>(r)], col)) {
          pivot = r;
          break;
        }
      if (pivot < 0) continue;
      std::swap(rows[static_cast<std::size_t>(pivot)],
                rows[static_cast<std::size_t>(next_row)]);
      for (int r = 0; r < m; ++r) {
        if (r == next_row) continue;
        if (!get(rows[static_cast<std::size_t>(r)], col)) continue;
        for (std::size_t w = 0; w < words; ++w)
          rows[static_cast<std::size_t>(r)][w] ^=
              rows[static_cast<std::size_t>(next_row)][w];
      }
      pivot_cols_.push_back(col);
      is_pivot_col[static_cast<std::size_t>(col)] = 1;
      ++next_row;
    }
    rows.resize(pivot_cols_.size());
    rref_rows_ = std::move(rows);
    for (int col = 0; col < n_; ++col)
      if (!is_pivot_col[static_cast<std::size_t>(col)])
        free_cols_.push_back(col);
  }

  int k() const { return static_cast<int>(free_cols_.size()); }
  int rank() const { return static_cast<int>(pivot_cols_.size()); }

  std::vector<std::uint8_t> encode(const std::vector<std::uint8_t>& data) const {
    RENOC_CHECK(static_cast<int>(data.size()) == k());
    std::vector<std::uint8_t> cw(static_cast<std::size_t>(n_), 0);
    for (std::size_t i = 0; i < free_cols_.size(); ++i)
      cw[static_cast<std::size_t>(free_cols_[i])] = data[i] & 1;
    for (std::size_t r = 0; r < rref_rows_.size(); ++r) {
      int acc = 0;
      for (std::size_t i = 0; i < free_cols_.size(); ++i)
        if (get(rref_rows_[r], free_cols_[i]))
          acc ^= cw[static_cast<std::size_t>(free_cols_[i])];
      cw[static_cast<std::size_t>(pivot_cols_[r])] =
          static_cast<std::uint8_t>(acc);
    }
    return cw;
  }

 private:
  using Row = std::vector<std::uint64_t>;  // bitset over n columns

  static bool get(const Row& r, int col) {
    return (r[static_cast<std::size_t>(col / 64)] >>
            (static_cast<unsigned>(col) % 64)) & 1ULL;
  }

  int n_ = 0;
  std::vector<Row> rref_rows_;   // one per pivot, in pivot order
  std::vector<int> pivot_cols_;  // pivot column of each rref row
  std::vector<int> free_cols_;   // data positions, ascending
};

}  // namespace renoc::testing
