#include "core/frac_sync.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "core/window.hpp"

#include "common/math_util.hpp"
#include "dsp/fft_backend.hpp"

namespace tnb::rx {
namespace {

// Workspace general-slot layout used by FracSync (and only while a
// FracSync call is running; slots are free for other components between
// calls). Slot 0 holds a 10-window block, transformed in place into the
// preamble spectra; slots 2/3 hold one pair of coherent sums (phase 1's
// per-df sums, then each evaluated point's interpolated sums); slot 4
// holds the integer-offset sums the Objective keeps across points.
constexpr std::size_t kSlotBlock = 0;
constexpr std::size_t kSlotUpSum = 2;
constexpr std::size_t kSlotDownSum = 3;
constexpr std::size_t kSlotOffsetSums = 4;

/// Preamble windows entering Q: 8 upchirps plus the 2 full downchirps.
constexpr std::size_t kQWindows = lora::kPreambleUpchirps + 2;

/// Integer-offset sums an Objective holds, direct-mapped by offset mod 5.
/// Every start a refine evaluates lies in [t0 - 1.5, t0 + 1.5], so its
/// offsets are 5 consecutive integers and never collide; a collision would
/// only cost a recomputation, never change a value.
constexpr std::size_t kOffsetRows = 5;

/// Band-average power gain of the linear interpolator used for fractional
/// window extraction, as a function of the sub-sample offset theta. Q must
/// be normalized by this, or the interpolation loss (maximal at theta=0.5)
/// would bias the timing search toward integer offsets.
double interp_gain(double theta, unsigned osf) {
  theta -= std::floor(theta);
  const double x = kPi / static_cast<double>(osf);
  const double band_mean_cos = osf == 1 ? 0.0 : std::sin(x) / x;
  return (1.0 - theta) * (1.0 - theta) + theta * theta +
         2.0 * theta * (1.0 - theta) * band_mean_cos;
}

/// The inter-symbol phase rotation of preamble symbol m: the dechirped
/// tone carries the CFO phase accumulated since the packet start
/// (2 pi cfo m), and only a correction with the same global phase makes
/// the coherent sum collapse unless cfo is exact — precisely the
/// sensitivity Q relies on. dechirp_fft restarts its phasor per window,
/// so the inter-symbol part is applied here.
cfloat symbol_phase(double cfo, int m) {
  const double ph = -kTwoPi * cfo * static_cast<double>(m);
  return {static_cast<float>(std::cos(ph)), static_cast<float>(std::sin(ph))};
}

/// sum[k] += spec[k] * rot, routed through the active SIMD backend.
inline void rotate_accumulate(const cfloat* spec, std::size_t n, cfloat rot,
                              cfloat* sum) {
  dsp::active_fft_backend().rotate_accumulate(spec, n, rot, sum);
}

/// out[f] = w0 * a[(f + shift) mod sps] + w1 * b[(f + shift) mod sps] for
/// f in [lo, hi); a plain shifted copy of `a` when `b` is null.
void shifted_lerp(const cfloat* a, const cfloat* b, float w0, float w1,
                  std::size_t shift, std::size_t sps, std::size_t lo,
                  std::size_t hi, cfloat* out) {
  std::size_t j = (lo + shift) % sps;
  for (std::size_t f = lo; f < hi; j = 0) {
    const std::size_t run = std::min(hi - f, sps - j);
    if (b == nullptr) {
      std::copy_n(a + j, run, out + f);
    } else {
      for (std::size_t r = 0; r < run; ++r) {
        out[f + r] = w0 * a[j + r] + w1 * b[j + r];
      }
    }
    f += run;
  }
}

}  // namespace

/// Q(dt, df) around one coarse estimate (t0, cfo), evaluated from the
/// coherent sums of the preamble windows at integer start offsets
/// (DESIGN.md §9, "Frac-sync objective"):
///  - extract_window interpolates linearly and the dechirp, FFT and
///    inter-symbol rotation are linear, so the sums at start i0 + theta
///    are (1 - theta) U(i0) + theta U(i0 + 1);
///  - one whole CFO cycle per symbol circularly shifts the sps-point
///    spectrum by one bin and leaves symbol_phase unchanged, so df is
///    split into a canonical phasor CFO cfo + (df - floor(df)) and a
///    floor(df)-bin shift.
/// Each U(i) is one 10-window batch, computed on first use and kept in
/// workspace slot 4; a point costs a shifted lerp over the bins fold()
/// reads, two folds and two argmaxes.
class FracSync::Objective {
 public:
  Objective(const FracSync& fs, std::span<const cfloat> trace, double t0,
            double cfo, lora::Workspace& ws)
      : fs_(fs), trace_(trace), t0_(t0), cfo_(cfo), ws_(ws),
        sps_(fs.p_.sps()) {
    ws_.iq_scratch(kSlotOffsetSums).resize(kOffsetRows * 2 * sps_);
    ws_.iq_scratch(kSlotUpSum).resize(sps_);
    ws_.iq_scratch(kSlotDownSum).resize(sps_);
  }

  QEval at(double dt, double df) {
    const double whole = std::floor(df);
    const double canon = cfo_ + (df - whole);
    if (canon != canon_cfo_) {
      tags_.fill(std::nullopt);  // sums of another CFO line
      canon_cfo_ = canon;
    }
    const double start = t0_ + dt;
    const double base = std::floor(start);
    const float w1 = static_cast<float>(start - base);
    const auto i0 = static_cast<std::ptrdiff_t>(base);
    const cfloat* a = sums(i0);
    const cfloat* b = w1 == 0.0f ? nullptr : sums(i0 + 1);
    const auto n = static_cast<std::ptrdiff_t>(sps_);
    const auto shift = static_cast<std::size_t>(
        (static_cast<std::ptrdiff_t>(whole) % n + n) % n);

    cfloat* up = ws_.iq_scratch(kSlotUpSum).data();
    cfloat* down = ws_.iq_scratch(kSlotDownSum).data();
    auto lerp = [&](std::size_t lo, std::size_t hi) {
      shifted_lerp(a, b, 1.0f - w1, w1, shift, sps_, lo, hi, up);
      shifted_lerp(a + sps_, b == nullptr ? nullptr : b + sps_, 1.0f - w1, w1,
                   shift, sps_, lo, hi, down);
    };
    // fold() reads only the first and the last 2^SF bins.
    const std::size_t bins = fs_.p_.n_bins();
    lerp(0, bins);
    if (sps_ > bins) lerp(sps_ - bins, sps_);

    QEval e = fs_.peak({up, sps_}, {down, sps_}, ws_);
    e.value /= interp_gain(start, fs_.p_.osf);
    return e;
  }

 private:
  /// U(offset): its up sum, with the down sum following at +sps.
  const cfloat* sums(std::ptrdiff_t offset) {
    const auto rows = static_cast<std::ptrdiff_t>(kOffsetRows);
    const auto k = static_cast<std::size_t>((offset % rows + rows) % rows);
    cfloat* up = ws_.iq_scratch(kSlotOffsetSums).data() + k * 2 * sps_;
    if (tags_[k] != offset) {
      fs_.preamble_spectra(trace_, static_cast<double>(offset), canon_cfo_,
                           ws_);
      fs_.coherent_sums(ws_.iq_scratch(kSlotBlock).data(), canon_cfo_, up,
                        up + sps_);
      tags_[k] = offset;
    }
    return up;
  }

  const FracSync& fs_;
  std::span<const cfloat> trace_;
  double t0_, cfo_;
  lora::Workspace& ws_;
  std::size_t sps_;
  double canon_cfo_ = std::numeric_limits<double>::quiet_NaN();
  std::array<std::optional<std::ptrdiff_t>, kOffsetRows> tags_;
};

FracSync::FracSync(lora::Params p) : p_(p), demod_(p) { p_.validate(); }

void FracSync::preamble_spectra(std::span<const cfloat> trace, double start,
                                double cfo, lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  auto& block = ws.iq_scratch(kSlotBlock);
  block.resize(kQWindows * sps);
  for (int m = 0; m < static_cast<int>(lora::kPreambleUpchirps); ++m) {
    extract_window(trace, start + static_cast<double>(m) * static_cast<double>(sps),
                   std::span<cfloat>(block.data() + static_cast<std::size_t>(m) * sps, sps));
  }
  for (int m = 10; m <= 11; ++m) {
    extract_window(trace, start + static_cast<double>(m) * static_cast<double>(sps),
                   std::span<cfloat>(block.data() + static_cast<std::size_t>(m - 2) * sps, sps));
  }
  constexpr std::size_t kUp = lora::kPreambleUpchirps;
  const std::span<cfloat> up_rows(block.data(), kUp * sps);
  const std::span<cfloat> down_rows(block.data() + kUp * sps, 2 * sps);
  demod_.dechirp_fft_batch_into(up_rows, kUp, cfo, /*up=*/true, ws, up_rows);
  demod_.dechirp_fft_batch_into(down_rows, 2, cfo, /*up=*/false, ws,
                                down_rows);
}

void FracSync::coherent_sums(const cfloat* spectra, double cfo,
                             cfloat* up_sum, cfloat* down_sum) const {
  const std::size_t sps = p_.sps();
  std::fill_n(up_sum, sps, cfloat{0.0f, 0.0f});
  std::fill_n(down_sum, sps, cfloat{0.0f, 0.0f});
  for (int m = 0; m < static_cast<int>(lora::kPreambleUpchirps); ++m) {
    rotate_accumulate(spectra + static_cast<std::size_t>(m) * sps, sps,
                      symbol_phase(cfo, m), up_sum);
  }
  for (int m = 10; m <= 11; ++m) {
    rotate_accumulate(spectra + static_cast<std::size_t>(m - 2) * sps, sps,
                      symbol_phase(cfo, m), down_sum);
  }
}

FracSync::QEval FracSync::peak(std::span<const cfloat> up_sum,
                               std::span<const cfloat> down_sum,
                               lora::Workspace& ws) const {
  SignalVector& up_sv = ws.sv_scratch(0);
  SignalVector& down_sv = ws.sv_scratch(1);
  demod_.fold(up_sum, up_sv);
  demod_.fold(down_sum, down_sv);
  const std::size_t up_peak = lora::Demodulator::argmax(up_sv);
  const std::size_t down_peak = lora::Demodulator::argmax(down_sv);
  QEval e;
  e.value = static_cast<double>(up_sv[up_peak]) +
            static_cast<double>(down_sv[down_peak]);
  e.gate_pass = up_peak == 0 && down_peak == 0;
  return e;
}

double FracSync::q(std::span<const cfloat> trace, double t0, double cfo_cycles,
                   double dt, double df, bool gate) const {
  thread_local lora::Workspace tls_ws;
  tls_ws.reserve(p_);
  const QEval e = Objective(*this, trace, t0, cfo_cycles, tls_ws).at(dt, df);
  if (gate && !e.gate_pass) return 0.0;
  return e.value;
}

FracSyncResult FracSync::refine(std::span<const cfloat> trace, double t0,
                                double cfo_cycles) const {
  thread_local lora::Workspace tls_ws;
  return refine(trace, t0, cfo_cycles, tls_ws);
}

FracSyncResult FracSync::refine(std::span<const cfloat> trace, double t0,
                                double cfo_cycles, lora::Workspace& ws) const {
  ws.reserve(p_);
  const std::size_t sps = p_.sps();

  // Phase 1: df along dt = 0, from -1 to 0 in steps of 1/16 (17 points),
  // ungated Q. Finds the correct fractional CFO or one off by +/-1.
  //
  // Optimization: the 10 window spectra are computed once; each df
  // candidate only re-weights them by the inter-symbol phase rotation
  // e^{-j 2 pi df m}, which is the term that makes the coherent sum
  // collapse off the correct-CFO line (the intra-symbol scalloping of df
  // affects all candidates' peaks almost equally and is ignored here;
  // phases 2-3 use the full objective).
  preamble_spectra(trace, t0, cfo_cycles, ws);
  double best_q = -1.0, df_star = 0.0;
  {
    const cfloat* spectra = ws.iq_scratch(kSlotBlock).data();
    auto& up_sum = ws.iq_scratch(kSlotUpSum);
    auto& down_sum = ws.iq_scratch(kSlotDownSum);
    up_sum.resize(sps);
    down_sum.resize(sps);
    for (int i = 0; i <= 16; ++i) {
      const double df = -1.0 + static_cast<double>(i) / 16.0;
      // Same phase-continuity as the Objective: the full correction
      // (coarse + df) determines the inter-symbol rotation.
      coherent_sums(spectra, cfo_cycles + df, up_sum.data(), down_sum.data());
      const double v = peak(up_sum, down_sum, ws).value;
      if (v > best_q) {
        best_q = v;
        df_star = df;
      }
    }
  }

  // Phases 2/3 evaluate the Objective. Both CFO lines (df*, df*+1) share
  // one canonical CFO, so every integer offset's sums serve both.
  Objective objective(*this, trace, t0, cfo_cycles, ws);

  // Phase 2: 10 points of gated Q* on two CFO lines (df*, df*+1), dt from
  // -1 to 1 receiver samples in steps of 1/2. Each point keeps its ungated
  // value and gate verdict, so the gated -> ungated fallback re-reads the
  // grid; the selection scans line-major, as the search is defined.
  std::array<QEval, 10> grid;
  auto grid_dt = [](std::size_t k) {
    return static_cast<double>(k % 5) / 2.0 - 1.0;
  };
  auto grid_df = [&](std::size_t k) {
    return df_star + static_cast<double>(k / 5);
  };
  for (std::size_t k = 0; k < grid.size(); ++k) {
    grid[k] = objective.at(grid_dt(k), grid_df(k));
  }
  double best_q2 = 0.0, dt_hat = 0.0, df_hat = df_star;
  bool gated = false;
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const double v = grid[k].gate_pass ? grid[k].value : 0.0;
    if (v > best_q2) {
      best_q2 = v;
      dt_hat = grid_dt(k);
      df_hat = grid_df(k);
      gated = true;
    }
  }
  if (!gated) {
    // The Q* gate never passed (heavy collision on the preamble): fall
    // back to the ungated objective on the same grid.
    for (std::size_t k = 0; k < grid.size(); ++k) {
      if (grid[k].value > best_q2) {
        best_q2 = grid[k].value;
        dt_hat = grid_dt(k);
        df_hat = grid_df(k);
      }
    }
  }

  // Phase 3: OSF+1 points along dt in [dt_hat - 1/2, dt_hat + 1/2] at the
  // chosen CFO line.
  double best_q3 = best_q2, dt_fin = dt_hat;
  for (unsigned i = 0; i <= p_.osf; ++i) {
    const double dt =
        dt_hat - 0.5 + static_cast<double>(i) / static_cast<double>(p_.osf);
    const QEval e = objective.at(dt, df_hat);
    const double v = gated ? (e.gate_pass ? e.value : 0.0) : e.value;
    if (v > best_q3) {
      best_q3 = v;
      dt_fin = dt;
    }
  }

  FracSyncResult r;
  r.dt = dt_fin;
  r.df = df_hat;
  r.q = best_q3;
  r.gated = gated;
  return r;
}

}  // namespace tnb::rx
