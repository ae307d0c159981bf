#include "core/detect.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "core/window.hpp"
#include "dsp/peak_finder.hpp"
#include "dsp/smoother.hpp"

namespace tnb::rx {
namespace {

/// Noise-floor proxy of a signal vector: its median, kept above a tiny
/// fraction of the maximum so noiseless traces (unit tests, saturated
/// captures) do not make every spectral leak look significant. The median
/// is taken in place on per-thread scratch, so the per-window call
/// allocates nothing once warm.
double noise_floor(std::span<const float> x) {
  thread_local std::vector<double> tmp;
  tmp.assign(x.begin(), x.end());
  const double med = dsp::median_in_place(tmp);
  float mx = 0.0f;
  for (float v : x) mx = std::max(mx, v);
  return std::max({med, static_cast<double>(mx) * 1e-5, 1e-30});
}

/// Cyclic distance between two bins.
double cyclic_dist(double a, double b, double n) {
  return std::abs(wrap_half(a - b, n));
}

/// The bins step 2 reads: the preamble / downchirp bin and the two sync
/// word shifts, in that order.
constexpr std::array<std::size_t, 3> kCheckBins{0, lora::kSyncShift1,
                                                lora::kSyncShift2};

/// One step-2 window of a downchirp hypothesis: its noise floor and the
/// folded energy near each of kCheckBins (max over bin-1..bin+1, cyclic).
/// Keyed by the exact start and chirp direction; the CFO is the
/// hypothesis's, so the list holding these lives for one hypothesis.
struct WindowEnergy {
  double start = 0.0;
  bool up = true;
  double floor = 0.0;
  std::array<double, kCheckBins.size()> energy{};
};

}  // namespace

void DetectMemo::rebase(std::size_t cut) {
  resolved_.clear();
  if (!config_) return;  // nothing scanned yet
  const std::size_t sps = config_->first.sps();
  // Off the sps grid no window survives (a stream's final cut).
  const std::size_t drop =
      cut % sps == 0 ? std::min(cut / sps, windows_.size()) : windows_.size();
  windows_.erase(windows_.begin(),
                 windows_.begin() + static_cast<std::ptrdiff_t>(drop));
}

Detector::Detector(lora::Params params, DetectorOptions opt)
    : p_(params), opt_(opt), demod_(params) {
  p_.validate();
  if (opt_.max_cfo_cycles <= 0.0) {
    opt_.max_cfo_cycles = p_.cfo_hz_to_cycles(4880.0) + 1.0;
  }
}

std::vector<Detector::Candidate> Detector::find_runs(
    std::span<const cfloat> trace, DetectMemo& memo,
    lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  const double n = static_cast<double>(p_.n_bins());
  const std::size_t n_windows = trace.size() / sps;

  struct Run {
    std::size_t first = 0;
    std::size_t last = 0;
    double bin = 0.0;        // running (latest) interpolated location
    double best_frac = 0.0;  // interpolated location of the strongest peak
    double best_power = 0.0;
  };
  std::vector<Run> active;
  std::vector<Candidate> candidates;

  auto finalize = [&](const Run& r) {
    if (r.last - r.first + 1 < opt_.min_run) return;
    candidates.push_back({r.first, r.best_frac});
  };

  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = opt_.max_peaks_per_window;

  // Peak lists the memo lacks are computed in batches of up to 8
  // contiguous windows: full-symbol slices of the trace demodulated at
  // CFO 0, so each batch is one dechirp+FFT invocation (slot 1; slot 0
  // belongs to the later resolve_candidate phase). A batch is
  // bit-identical to single transforms, so a window's peaks do not depend
  // on which call or batch computed them.
  constexpr std::size_t kScanBatch = 8;
  auto& spectra = ws.iq_scratch(1);
  spectra.resize(kScanBatch * sps);
  SignalVector& sv = ws.sv_scratch(0);
  for (std::size_t k0 = 0; k0 < n_windows;) {
    if (memo.windows_[k0].up) {
      ++k0;
      continue;
    }
    std::size_t batch = 1;
    while (batch < kScanBatch && k0 + batch < n_windows &&
           !memo.windows_[k0 + batch].up) {
      ++batch;
    }
    demod_.dechirp_fft_batch_into(
        trace.subspan(k0 * sps, batch * sps), batch, 0.0, /*up=*/true, ws,
        std::span<cfloat>(spectra.data(), batch * sps));
    for (std::size_t j = 0; j < batch; ++j) {
      demod_.fold(std::span<const cfloat>(spectra.data() + j * sps, sps), sv);
      const double floor = noise_floor(sv);
      // Selectivity relative to the noise floor: a weak preamble must stay
      // visible next to a strong collider (>20 dB SNR spread, paper Fig. 10).
      pf.sel = 4.0 * floor;
      pf.use_threshold = true;
      pf.threshold = opt_.peak_floor_ratio * floor;
      memo.windows_[k0 + j].up = dsp::find_peaks(sv, pf);
    }
    k0 += batch;
  }

  // Run tracking walks the windows strictly in order.
  for (std::size_t k = 0; k < n_windows; ++k) {
    for (const dsp::Peak& pk : *memo.windows_[k].up) {
      const double loc = pk.frac_index;
      bool matched = false;
      for (Run& r : active) {
        // Tolerate a single missed window (a collider can mask one peak).
        if (r.last + 2 < k) continue;
        if (r.last == k) continue;  // already extended this window
        if (cyclic_dist(r.bin, loc, n) <= 1.5) {
          r.last = k;
          r.bin = loc;
          if (pk.value > r.best_power) {
            r.best_power = pk.value;
            r.best_frac = loc;
          }
          matched = true;
          break;
        }
      }
      if (!matched) {
        Run r;
        r.first = r.last = k;
        r.bin = loc;
        r.best_frac = loc;
        r.best_power = pk.value;
        active.push_back(r);
      }
    }
    // Retire runs that have missed two consecutive windows.
    std::vector<Run> still;
    for (std::size_t ri = 0; ri < active.size(); ++ri) {
      if (active[ri].last + 2 > k) {
        still.push_back(active[ri]);
      } else {
        finalize(active[ri]);
      }
    }
    active = std::move(still);
  }
  for (const Run& r : active) finalize(r);
  return candidates;
}

DetectMemo::Resolved Detector::resolve_candidate(
    std::span<const cfloat> trace, const Candidate& cand, DetectMemo& memo,
    lora::Workspace& ws) const {
  const std::size_t sps = p_.sps();
  const double n = static_cast<double>(p_.n_bins());
  const double osf = static_cast<double>(p_.osf);
  const double size = static_cast<double>(trace.size());
  DetectMemo::Resolved res;

  // --- Collect downchirp peak hypotheses (x2) after the run. With
  // collided preambles the strongest downchirp in this range can belong to
  // another packet, so every distinct peak location is tried and step-2
  // validation arbitrates. ---
  dsp::PeakFinderOptions pf;
  pf.circular = true;
  pf.max_peaks = 4;
  struct DownHyp {
    double x2 = 0.0;
    double height = 0.0;
  };
  std::vector<DownHyp> hyps;
  const std::size_t k_lo = cand.first_window + 7;
  const std::size_t k_hi = cand.first_window + 13;
  SignalVector& sv = ws.sv_scratch(0);
  for (std::size_t k = k_lo; k <= k_hi; ++k) {
    res.reach = std::max(res.reach, static_cast<double>((k + 1) * sps));
    if ((k + 1) * sps > trace.size()) break;
    std::optional<std::vector<dsp::Peak>>& peaks = memo.windows_[k].down;
    if (!peaks) {
      demod_.signal_vector_into(trace.subspan(k * sps, sps), 0.0,
                                /*up=*/false, ws, sv);
      const double floor = noise_floor(sv);
      pf.use_threshold = true;
      pf.threshold = opt_.peak_floor_ratio * floor;
      peaks = dsp::find_peaks(sv, pf);
    }
    for (const dsp::Peak& pk : *peaks) {
      bool merged = false;
      for (DownHyp& h : hyps) {
        if (cyclic_dist(h.x2, pk.frac_index, n) <= 1.0) {
          if (pk.value > h.height) {
            h.height = pk.value;
            h.x2 = pk.frac_index;
          }
          merged = true;
          break;
        }
      }
      if (!merged) hyps.push_back({pk.frac_index, static_cast<double>(pk.value)});
    }
  }
  if (hyps.empty()) return res;  // no downchirp anywhere: not a LoRa preamble
  std::sort(hyps.begin(), hyps.end(),
            [](const DownHyp& a, const DownHyp& b) { return a.height > b.height; });
  if (hyps.size() > 6) hyps.resize(6);

  // Step 2's check for (shift j, symbol m) reads the window at
  // t0_prelim + (j+m) symbols, so the 5 x 12 checks of one hypothesis
  // share about 20 distinct windows. Each is demodulated once; a start
  // that differs by even one ulp is a separate entry, never approximated.
  std::vector<WindowEnergy> energies;
  const std::int64_t n_bins = static_cast<std::int64_t>(p_.n_bins());
  auto window_energy = [&](double start, double cfo_cycles,
                           bool up) -> WindowEnergy {
    for (const WindowEnergy& w : energies) {
      if (w.start == start && w.up == up) return w;
    }
    auto& window = ws.iq_scratch(0);
    window.resize(sps);
    extract_window(trace, start, window);
    demod_.signal_vector_into(window, cfo_cycles, up, ws, sv);
    WindowEnergy w;
    w.start = start;
    w.up = up;
    w.floor = noise_floor(sv);
    for (std::size_t i = 0; i < kCheckBins.size(); ++i) {
      for (int d = -1; d <= 1; ++d) {
        const std::size_t b = static_cast<std::size_t>(
            floor_mod(static_cast<std::int64_t>(kCheckBins[i]) + d, n_bins));
        w.energy[i] = std::max(w.energy[i], static_cast<double>(sv[b]));
      }
    }
    energies.push_back(w);
    return w;
  };

  for (const DownHyp& hyp : hyps) {
    // --- Step 3: coarse CFO and timing from x1, x2. ---
    // x1 = delta + eps, x2 = -delta + eps (mod N). (x1+x2)/2 gives eps up
    // to a N/2 ambiguity; the CFO bound picks the right branch.
    const double s = floor_mod((cand.x1 + hyp.x2) / 2.0, n / 2.0);
    double eps = wrap_half(s, n / 2.0);
    if (std::abs(eps) > opt_.max_cfo_cycles) {
      const double alt = eps > 0 ? eps - n / 2.0 : eps + n / 2.0;
      if (std::abs(alt) > opt_.max_cfo_cycles) continue;
      eps = alt;
    }
    const double delta = floor_mod(cand.x1 - eps, n);  // chirp samples

    // --- Step 2: validate candidate start times at j*T offsets. ---
    energies.clear();  // entries hold this hypothesis's CFO
    const double w0 = static_cast<double>(cand.first_window * sps);
    const double t0_prelim = w0 - delta * osf;
    for (int j = -2; j <= 2; ++j) {
      const double t0 =
          t0_prelim + static_cast<double>(j) * static_cast<double>(sps);
      if (t0 < -0.5) continue;
      int score = 0;
      double strength = 0.0;
      // `slot` indexes kCheckBins.
      auto check = [&](double sym_idx, std::size_t slot, bool up) {
        const double start = t0 + sym_idx * static_cast<double>(sps);
        const double end = start + static_cast<double>(sps);
        res.reach = std::max(res.reach, end);
        if (end > size) return;
        const WindowEnergy w = window_energy(start, eps, up);
        const double rel = w.energy[slot] / w.floor;
        if (rel >= opt_.peak_floor_ratio) {
          ++score;
          strength += rel;
        }
      };
      for (int m = 0; m < 8; ++m) check(m, 0, true);
      check(8.0, 1, true);
      check(9.0, 2, true);
      check(10.0, 0, false);
      check(11.0, 0, false);
      if (score > res.score ||
          (score == res.score && strength > res.strength)) {
        res.score = score;
        res.t0 = t0;
        res.cfo_cycles = eps;
        res.strength = strength;
      }
      if (res.score == 12) break;  // perfect: no point shifting further
    }
    if (res.score == 12) break;
  }
  return res;
}

std::vector<DetectedPacket> Detector::detect(std::span<const cfloat> trace) const {
  thread_local lora::Workspace tls_ws;
  return detect(trace, tls_ws);
}

std::vector<DetectedPacket> Detector::detect(std::span<const cfloat> trace,
                                             lora::Workspace& ws,
                                             DetectMemo* memo) const {
  ws.reserve(p_);
  DetectMemo local;
  DetectMemo& m = memo != nullptr ? *memo : local;
  DetectorOptions shared = opt_;
  shared.min_validation_score = 0;  // each detector gates on its own
  if (!m.config_) {
    m.config_.emplace(p_, shared);
  } else if (m.config_->first != p_ || m.config_->second != shared) {
    throw std::invalid_argument(
        "Detector::detect: memo was filled under another configuration");
  }
  const std::size_t n_windows = trace.size() / p_.sps();
  if (m.windows_.size() < n_windows) m.windows_.resize(n_windows);

  std::vector<DetectedPacket> out;
  const double size = static_cast<double>(trace.size());
  for (const Candidate& cand : find_runs(trace, m, ws)) {
    const std::pair<std::size_t, double> key{cand.first_window, cand.x1};
    const auto it = m.resolved_.find(key);
    DetectMemo::Resolved r;
    if (it != m.resolved_.end() && it->second.reach <= size) {
      r = it->second;
    } else {
      r = resolve_candidate(trace, cand, m, ws);
      // A result that ran into the trace end depends on where the trace
      // ends, so it is never stored.
      if (r.reach <= size) m.resolved_.insert_or_assign(key, r);
    }
    if (r.score >= 0 && r.score >= opt_.min_validation_score) {
      out.push_back({r.t0, r.cfo_cycles, r.strength, r.score});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DetectedPacket& a, const DetectedPacket& b) {
              return a.t0 < b.t0;
            });
  // Deduplicate detections of the same packet: runs can split on a fade,
  // and the timing/CFO ambiguity (shifting both t0/OSF and the CFO by the
  // same amount leaves the upchirp peaks invariant) produces ghosts along
  // the dt/OSF == dcfo line.
  std::vector<DetectedPacket> dedup;
  const double t_tol = 1.25 * static_cast<double>(p_.sps());
  const double nd = static_cast<double>(p_.n_bins());
  for (const DetectedPacket& pkt : out) {
    bool merged = false;
    for (DetectedPacket& kept : dedup) {
      const double dt_bins = (pkt.t0 - kept.t0) / static_cast<double>(p_.osf);
      const double dcfo = pkt.cfo_cycles - kept.cfo_cycles;
      // Two detections whose (timing, CFO) pairs sit on the same upchirp
      // ambiguity line (wrap(dt/OSF + dcfo) ~ 0) describe the same signal.
      if (std::abs(kept.t0 - pkt.t0) < t_tol &&
          std::abs(wrap_half(dt_bins + dcfo, nd)) < 2.0) {
        if (pkt.validation_score > kept.validation_score ||
            (pkt.validation_score == kept.validation_score &&
             pkt.strength > kept.strength)) {
          kept = pkt;
        }
        merged = true;
        break;
      }
    }
    if (!merged) dedup.push_back(pkt);
  }
  return dedup;
}

}  // namespace tnb::rx
