// BPSK modulation over an AWGN channel, producing channel LLRs.
//
// The paper's simulator is "run with an encoded message"; we transmit real
// encoded blocks through a noisy channel so the decoder does genuine work
// (message values, iteration dynamics, and switching activity all depend on
// the noise realization).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace renoc {

/// BPSK + AWGN: bit b maps to symbol 1-2b; noise has variance sigma^2 per
/// dimension with sigma^2 = 1 / (2 * rate * 10^(EbN0_dB/10)).
class AwgnChannel {
 public:
  /// `rate` is the code rate used for Eb/N0 normalization.
  AwgnChannel(double ebn0_db, double rate, Rng rng);

  /// Transmits a codeword into `llrs` (resized to bits.size()): per-bit
  /// channel LLRs (LLR = 2 y / sigma^2, positive = bit 0 more likely).
  /// Allocation-free once `llrs` has reached the block size.
  void transmit_into(const std::vector<std::uint8_t>& bits,
                     std::vector<double>& llrs);

  /// Value-returning form of transmit_into().
  std::vector<double> transmit(const std::vector<std::uint8_t>& bits);

  double sigma() const { return sigma_; }

 private:
  double sigma_;
  Rng rng_;
};

/// Quantizes channel LLRs into the fixed-point domain used by the hardware
/// decoders: Qm.f with `frac_bits` fractional bits, saturating to
/// [-max_q, max_q]. Both the golden and the NoC decoders operate on these
/// values, which is what makes them bit-identical. Writes into `q`
/// (resized to llrs.size()); allocation-free once `q` has reached that size.
void quantize_llrs_into(const std::vector<double>& llrs,
                        std::vector<std::int16_t>& q, int frac_bits = 3,
                        int max_q = 127);

/// Value-returning form of quantize_llrs_into().
std::vector<std::int16_t> quantize_llrs(const std::vector<double>& llrs,
                                        int frac_bits = 3, int max_q = 127);

}  // namespace renoc
