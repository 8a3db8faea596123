#include "ldpc/channel.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace renoc {

AwgnChannel::AwgnChannel(double ebn0_db, double rate, Rng rng)
    : sigma_(0.0), rng_(rng) {
  RENOC_CHECK(rate > 0.0 && rate <= 1.0);
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  sigma_ = std::sqrt(1.0 / (2.0 * rate * ebn0));
}

void AwgnChannel::transmit_into(const std::vector<std::uint8_t>& bits,
                                std::vector<double>& llrs) {
  llrs.resize(bits.size());
  const double llr_scale = 2.0 / (sigma_ * sigma_);
  // renoc-hot-begin (every BER block: one Gaussian draw per bit)
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const double symbol = (bits[i] & 1) ? -1.0 : 1.0;
    const double y = symbol + sigma_ * rng_.next_gaussian();
    llrs[i] = llr_scale * y;
  }
  // renoc-hot-end
}

std::vector<double> AwgnChannel::transmit(
    const std::vector<std::uint8_t>& bits) {
  std::vector<double> llrs;
  transmit_into(bits, llrs);
  return llrs;
}

void quantize_llrs_into(const std::vector<double>& llrs,
                        std::vector<std::int16_t>& q, int frac_bits,
                        int max_q) {
  RENOC_CHECK(frac_bits >= 0 && frac_bits < 12);
  RENOC_CHECK(max_q > 0 && max_q <= 32767);
  q.resize(llrs.size());
  const double scale = static_cast<double>(1 << frac_bits);
  const double lo = static_cast<double>(-max_q);
  const double hi = static_cast<double>(max_q);
  // renoc-hot-begin (every BER block: one rounding per bit)
  for (std::size_t i = 0; i < llrs.size(); ++i)
    q[i] = static_cast<std::int16_t>(
        std::clamp(std::round(llrs[i] * scale), lo, hi));
  // renoc-hot-end
}

std::vector<std::int16_t> quantize_llrs(const std::vector<double>& llrs,
                                        int frac_bits, int max_q) {
  std::vector<std::int16_t> q;
  quantize_llrs_into(llrs, q, frac_bits, max_q);
  return q;
}

}  // namespace renoc
