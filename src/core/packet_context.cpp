#include "core/packet_context.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/window.hpp"
#include "dsp/smoother.hpp"
#include "obs/stage_timer.hpp"

namespace tnb::rx {

PacketContext::PacketContext(const lora::Params& p, const DetectedPacket& det)
    : t0_(det.t0),
      cfo_(det.cfo_cycles),
      sps_(static_cast<double>(p.sps())),
      osf_(static_cast<double>(p.osf)) {
  const double preamble_symbols =
      static_cast<double>(lora::kPreambleUpchirps + lora::kSyncSymbols) +
      lora::kPreambleDownchirps;
  data_start_ = t0_ + preamble_symbols * sps_;
}

std::optional<int> PacketContext::data_symbol_at(double pos,
                                                 int n_data) const {
  if (pos < data_start_) return std::nullopt;
  const int d = static_cast<int>(std::floor((pos - data_start_) / sps_));
  if (n_data >= 0 && d >= n_data) return std::nullopt;
  return d;
}

SigCalc::SigCalc(const lora::Params& p,
                 std::vector<std::span<const cfloat>> antennas)
    : p_(p), antennas_(std::move(antennas)), demod_(p) {
  if (antennas_.empty()) {
    throw std::invalid_argument("SigCalc: need at least one antenna");
  }
  for (const auto& a : antennas_) {
    if (a.size() != antennas_[0].size()) {
      throw std::invalid_argument("SigCalc: antenna length mismatch");
    }
  }
}

void SigCalc::vector_at_into(double window_start, double cfo_cycles, bool up,
                             SignalVector& out) const {
  const std::size_t sps = p_.sps();
  ws_.reserve(p_);
  auto& window = ws_.iq_scratch(0);
  window.resize(sps);
  for (std::size_t a = 0; a < antennas_.size(); ++a) {
    extract_window(antennas_[a], window_start, window);
    if (a == 0) {
      demod_.signal_vector_into(window, cfo_cycles, up, ws_, out);
    } else {
      SignalVector& sv = ws_.sv_scratch(0);
      demod_.signal_vector_into(window, cfo_cycles, up, ws_, sv);
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += sv[i];
    }
  }
}

SignalVector SigCalc::vector_at(double window_start, double cfo_cycles,
                                bool up) const {
  SignalVector sum;
  vector_at_into(window_start, cfo_cycles, up, sum);
  return sum;
}

const SymbolView& SigCalc::data_symbol(int pkt_index, const PacketContext& ctx,
                                       int d) {
  const auto key = std::make_pair(pkt_index, d);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const obs::ScopedSpan span(sigcalc_hist_);
  SymbolView view;
  vector_at_into(ctx.data_symbol_start(d), ctx.cfo_cycles(), /*up=*/true,
                 view.sv);
  {
    median_scratch_.assign(view.sv.begin(), view.sv.end());
    view.median = dsp::median_in_place(median_scratch_);
  }
  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = kMaxPeaks;
  // Selectivity relative to the noise floor, not the tallest peak: in a
  // collision the SNR spread between nodes exceeds 20 dB (paper Fig. 10),
  // and a weak node's peak must survive in its own candidate list next to
  // a strong collider's.
  pf.sel = 4.0 * view.median;
  pf.use_threshold = true;
  pf.threshold = 4.0 * view.median;
  view.peaks = dsp::find_peaks(view.sv, pf);
  return cache_.emplace(key, std::move(view)).first->second;
}

std::vector<double> SigCalc::preamble_heights(const PacketContext& ctx) const {
  std::vector<double> heights;
  heights.reserve(lora::kPreambleUpchirps);
  const double sps = static_cast<double>(p_.sps());
  // Keeps the full-vector float path (not folded_power_at, which sums in
  // double) so the heights stay bit-identical to the original by-value code.
  SignalVector& sv = ws_.sv_scratch(1);
  if (antennas_.size() == 1) {
    // Single-antenna fast path: all 8 upchirp windows share the packet's
    // CFO, so extract them into one block (slot 5 — free between
    // component calls) and run one batched dechirp+FFT in place, folding
    // each spectrum afterwards. Same per-window arithmetic as the loop
    // below.
    ws_.reserve(p_);
    const std::size_t isps = p_.sps();
    constexpr std::size_t kUp = lora::kPreambleUpchirps;
    auto& block = ws_.iq_scratch(5);
    block.resize(kUp * isps);
    for (std::size_t m = 0; m < kUp; ++m) {
      extract_window(antennas_[0], ctx.t0() + static_cast<double>(m) * sps,
                     std::span<cfloat>(block.data() + m * isps, isps));
    }
    const std::span<cfloat> rows(block.data(), kUp * isps);
    demod_.dechirp_fft_batch_into(rows, kUp, ctx.cfo_cycles(), /*up=*/true,
                                  ws_, rows);
    for (std::size_t m = 0; m < kUp; ++m) {
      demod_.fold(std::span<const cfloat>(block.data() + m * isps, isps), sv);
      heights.push_back(static_cast<double>(sv[0]));
    }
    return heights;
  }
  for (std::size_t m = 0; m < lora::kPreambleUpchirps; ++m) {
    vector_at_into(ctx.t0() + static_cast<double>(m) * sps, ctx.cfo_cycles(),
                   /*up=*/true, sv);
    heights.push_back(static_cast<double>(sv[0]));
  }
  return heights;
}

void SigCalc::evict(int pkt_index) {
  auto it = cache_.lower_bound({pkt_index, std::numeric_limits<int>::min()});
  while (it != cache_.end() && it->first.first == pkt_index) {
    it = cache_.erase(it);
  }
}

}  // namespace tnb::rx
