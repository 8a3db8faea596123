#include "util/simd.hpp"

namespace renoc::simd {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace detail {

bool cpu_supports(Tier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
  }
  return false;
#else
  return tier == Tier::kScalar;
#endif
}

}  // namespace detail

const KernelTable* kernel_table(Tier tier) {
  if (!detail::cpu_supports(tier)) return nullptr;
  switch (tier) {
    case Tier::kScalar:
      return detail::scalar_table();
    case Tier::kAvx2:
      return detail::avx2_table();
  }
  return nullptr;
}

const KernelTable& kernels() {
  static const KernelTable* const table = [] {
    const KernelTable* avx2 = kernel_table(Tier::kAvx2);
    return avx2 != nullptr ? avx2 : detail::scalar_table();
  }();
  return *table;
}

Tier active_tier() { return kernels().tier; }

const char* active_tier_name() { return tier_name(active_tier()); }

}  // namespace renoc::simd
