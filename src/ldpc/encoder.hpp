// Systematic LDPC encoding via GF(2) Gaussian elimination.
//
// Gallager constructions do not come in systematic form, so the encoder
// reduces H to reduced row-echelon form once at construction. Pivot columns
// become parity positions; the remaining (free) columns carry data. Each
// pivot row then reads "parity bit = XOR of the data bits present in the
// row", which is exactly how encode_into() fills a codeword.
//
// Encoding is word-parallel: the data bits are scattered once into an n-bit
// word buffer x (zero at every pivot column), and each parity bit is the
// parity of popcount(rref_row & x) over the row's n/64 words, so one encode
// costs O(rank·n/64) word operations. The encoder is immutable after
// construction, so one instance is shared by every worker thread; the word
// buffer is caller-owned scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"

namespace renoc {

class LdpcEncoder {
 public:
  /// Performs the one-time elimination. O(m * n * m / 64).
  explicit LdpcEncoder(const LdpcCode& code);

  /// Data bits per codeword (n - rank(H); >= n - m).
  int k() const { return static_cast<int>(free_cols_.size()); }
  int n() const { return n_; }
  /// rank(H); the number of independent parity constraints.
  int rank() const { return static_cast<int>(pivot_cols_.size()); }

  /// Encodes `data` (size k, 0/1 values) into `codeword` (resized to n) so
  /// that it satisfies every check of the original code. `words` is the
  /// caller's n-bit scratch buffer; once both buffers have reached their
  /// sizes, encoding performs no heap allocation. O(rank·n/64).
  void encode_into(const std::vector<std::uint8_t>& data,
                   std::vector<std::uint64_t>& words,
                   std::vector<std::uint8_t>& codeword) const;

  /// Value-returning form of encode_into() with fresh buffers.
  std::vector<std::uint8_t> encode(const std::vector<std::uint8_t>& data) const;

  /// Extracts the data bits back out of a codeword (inverse of the
  /// systematic placement).
  std::vector<std::uint8_t> extract_data(
      const std::vector<std::uint8_t>& codeword) const;

 private:
  int n_ = 0;
  std::size_t words_ = 0;            // 64-bit words per row: ceil(n / 64)
  std::vector<std::uint64_t> rref_;  // rank rows of words_ words, pivot order
  std::vector<int> pivot_cols_;      // pivot column of each rref row
  std::vector<int> free_cols_;       // data positions, ascending
};

}  // namespace renoc
