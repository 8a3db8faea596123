// Lane-width-aligned storage for the SIMD SoA workspaces.
//
// The vector kernels in util/simd read whole lane groups at a time, so the
// arrays they touch (decoder message SoA, the NoC head-flit mirrors) must
// extend past their logical size to a full lane boundary, with the tail
// defined (zero) so remainder lanes need no branch.
// AlignedVec provides exactly that: data() is 64-byte aligned (one cache
// line, the widest lane group any tier uses) and elements
// [size(), padded_size()) are always zero-filled.
//
// Storage is a plain std::vector with manual alignment slack rather than an
// over-aligned operator new: the alloc_guard interposition only counts the
// plain new/delete pair, so workspaces built from AlignedVec stay visible
// to the steady-state allocation pins in the benches and alloc_guard_test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace renoc {

template <typename T>
class AlignedVec {
 public:
  static constexpr std::size_t kAlignBytes = 64;
  static constexpr std::size_t kPadElems = kAlignBytes / sizeof(T);
  static_assert(kPadElems * sizeof(T) == kAlignBytes,
                "element size must divide the alignment");

  AlignedVec() = default;

  /// Sets the logical size to `n` with every element equal to `value`;
  /// the padding tail [n, padded_size()) is zero-filled. Re-assigning a
  /// size that fits the current capacity performs no allocation.
  void assign(std::size_t n, T value) {
    resize_storage(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = value;
  }

  /// Value-initializes to size `n` (all elements zero, like a freshly
  /// grown std::vector), padding tail included.
  void resize(std::size_t n) { resize_storage(n); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Logical size rounded up to a full alignment block — the element count
  /// a vector kernel may safely touch (tail elements read as zero).
  std::size_t padded_size() const { return padded_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void resize_storage(std::size_t n) {
    size_ = n;
    padded_ = (n + kPadElems - 1) / kPadElems * kPadElems;
    // Zero everything (tail included), plus one block of slack so the data
    // pointer can be bumped up to the next 64-byte boundary.
    storage_.assign(padded_ + kPadElems, T{});
    const std::uintptr_t addr =
        reinterpret_cast<std::uintptr_t>(storage_.data());
    const std::uintptr_t aligned =
        (addr + kAlignBytes - 1) / kAlignBytes * kAlignBytes;
    data_ = storage_.data() + (aligned - addr) / sizeof(T);
  }

  std::vector<T> storage_;
  std::size_t size_ = 0;
  std::size_t padded_ = 0;
  T* data_ = nullptr;
};

}  // namespace renoc
