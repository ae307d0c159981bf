#include "core/snr.hpp"

#include <cmath>

#include "common/math_util.hpp"
#include "dsp/smoother.hpp"

namespace tnb::rx {

double estimate_snr_db(const PacketContext& ctx, const SigCalc& sig) {
  const lora::Params& p = sig.params();
  const double sps = static_cast<double>(p.sps());

  // Median peak across the 8 preamble upchirps resists collisions hitting
  // part of the preamble.
  std::vector<double> heights = sig.preamble_heights(ctx);
  const double peak = dsp::median_in_place(heights);

  // Noise floor: median over the bins of one preamble signal vector,
  // excluding the peak's neighbourhood implicitly (one bin of 2^SF barely
  // moves a median), corrected from median to mean of the exponential.
  const SignalVector sv =
      sig.vector_at(ctx.t0(), ctx.cfo_cycles(), /*up=*/true);
  std::vector<double> bins(sv.begin(), sv.end());
  const double noise_median = dsp::median_in_place(bins);
  const double noise_mean = noise_median / std::log(2.0);
  if (noise_mean <= 0.0 || peak <= 0.0) return 60.0;  // noiseless trace

  const double n_bins = sps / static_cast<double>(p.osf);
  const double snr = peak / (noise_mean * n_bins);
  return linear_to_db(std::max(snr, 1e-6));
}

}  // namespace tnb::rx
