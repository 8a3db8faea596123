#include "ldpc/encoder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.hpp"

namespace renoc {

namespace {

bool get(const std::uint64_t* row, int col) {
  return (row[col / 64] >> (static_cast<unsigned>(col) % 64)) & 1ULL;
}

}  // namespace

LdpcEncoder::LdpcEncoder(const LdpcCode& code)
    : n_(code.n()), words_(static_cast<std::size_t>((code.n() + 63) / 64)) {
  const int m = code.m();

  // Dense bitset copy of H: row-major, words_ words per check.
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(m) * words_, 0);
  const auto row = [&rows, this](int r) {
    return rows.data() + static_cast<std::size_t>(r) * words_;
  };
  for (int c = 0; c < m; ++c)
    for (const TannerEdge& e : code.check_edges(c))
      row(c)[e.other / 64] ^= 1ULL << (static_cast<unsigned>(e.other) % 64);

  // Gauss–Jordan to reduced row-echelon form.
  std::vector<char> is_pivot_col(static_cast<std::size_t>(n_), 0);
  int next_row = 0;
  for (int col = 0; col < n_ && next_row < m; ++col) {
    int pivot = -1;
    for (int r = next_row; r < m; ++r) {
      if (get(row(r), col)) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) continue;
    std::swap_ranges(row(pivot), row(pivot) + words_, row(next_row));
    // Eliminate the column from every other row (full Jordan reduction so
    // each pivot row ends up referencing only free columns).
    const std::uint64_t* pivot_row = row(next_row);
    for (int r = 0; r < m; ++r) {
      if (r == next_row) continue;
      std::uint64_t* target = row(r);
      if (!get(target, col)) continue;
      for (std::size_t w = 0; w < words_; ++w) target[w] ^= pivot_row[w];
    }
    pivot_cols_.push_back(col);
    is_pivot_col[static_cast<std::size_t>(col)] = 1;
    ++next_row;
  }
  // The first rank rows are the pivot rows, in pivot order; the rest are
  // all-zero (dependent checks).
  rows.resize(pivot_cols_.size() * words_);
  rref_ = std::move(rows);
  for (int col = 0; col < n_; ++col)
    if (!is_pivot_col[static_cast<std::size_t>(col)])
      free_cols_.push_back(col);
  RENOC_CHECK(static_cast<int>(pivot_cols_.size() + free_cols_.size()) == n_);
}

void LdpcEncoder::encode_into(const std::vector<std::uint8_t>& data,
                              std::vector<std::uint64_t>& words,
                              std::vector<std::uint8_t>& codeword) const {
  RENOC_CHECK_MSG(static_cast<int>(data.size()) == k(),
                  "data size " << data.size() << " != k " << k());
  words.assign(words_, 0);
  codeword.resize(static_cast<std::size_t>(n_));
  std::uint64_t* x = words.data();
  std::uint8_t* cw = codeword.data();
  // renoc-hot-begin (every BER block: data scatter + one popcount per row)
  // Scatter the data bits into both the byte codeword and the bit buffer;
  // x stays zero at every pivot column.
  for (std::size_t i = 0; i < free_cols_.size(); ++i) {
    const int col = free_cols_[i];
    const std::uint8_t bit = data[i] & 1;
    cw[col] = bit;
    x[col / 64] |= std::uint64_t{bit} << (static_cast<unsigned>(col) % 64);
  }
  // Each pivot row: pivot bit = parity of the row's free-column data bits.
  // The row's own pivot bit meets a zero in x, so it drops out.
  const std::uint64_t* row = rref_.data();
  for (std::size_t r = 0; r < pivot_cols_.size(); ++r, row += words_) {
    std::uint64_t acc = 0;
    for (std::size_t w = 0; w < words_; ++w) acc ^= row[w] & x[w];
    cw[pivot_cols_[r]] = static_cast<std::uint8_t>(std::popcount(acc) & 1);
  }
  // renoc-hot-end
}

std::vector<std::uint8_t> LdpcEncoder::encode(
    const std::vector<std::uint8_t>& data) const {
  std::vector<std::uint64_t> words;
  std::vector<std::uint8_t> codeword;
  encode_into(data, words, codeword);
  return codeword;
}

std::vector<std::uint8_t> LdpcEncoder::extract_data(
    const std::vector<std::uint8_t>& codeword) const {
  RENOC_CHECK(static_cast<int>(codeword.size()) == n_);
  std::vector<std::uint8_t> data;
  data.reserve(free_cols_.size());
  for (int col : free_cols_)
    data.push_back(codeword[static_cast<std::size_t>(col)] & 1);
  return data;
}

}  // namespace renoc
