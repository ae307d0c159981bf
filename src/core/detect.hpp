// Packet detection (paper Section 7, steps 1-3).
//
// Step 1 finds preambles by looking for peaks at the same bin in several
// consecutive symbol-length windows (the 8 preamble upchirps all produce
// the same misalignment peak). Step 3 combines the upchirp peak location x1
// with the downchirp peak location x2 into a coarse timing / CFO estimate
// (timing ~ (x1-x2)/2, CFO ~ (x1+x2)/2, after resolving the half-period
// ambiguity with the CFO bound). Step 2's sanity test slides the start by
// {-2T..2T} and validates that upchirp, sync and downchirp peaks land at
// their expected locations, discarding false preambles.
//
// Step 4 (fractional refinement) lives in frac_sync.hpp.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dsp/peak_finder.hpp"
#include "lora/demodulator.hpp"
#include "lora/params.hpp"

namespace tnb::rx {

/// One detected packet, in receiver-grid coordinates.
struct DetectedPacket {
  double t0 = 0.0;          ///< packet start (fractional receiver sample)
  double cfo_cycles = 0.0;  ///< CFO in cycles per symbol
  double strength = 0.0;    ///< mean preamble peak power (detection score)
  int validation_score = 0; ///< how many of the 12 step-2 checks passed
};

struct DetectorOptions {
  /// A signal-vector peak qualifies as a preamble candidate only if it is
  /// at least this many times the vector's median (noise floor proxy).
  double peak_floor_ratio = 8.0;
  /// Minimum consecutive windows with a matching peak to call a preamble.
  std::size_t min_run = 5;
  /// Maximum |CFO| in cycles per symbol used to resolve the (x1+x2)/2
  /// half-period ambiguity. Defaults to the +/-4.88 kHz bound of the paper.
  double max_cfo_cycles = 0.0;  ///< 0 = derive from 4.88 kHz and params
  /// Minimum step-2 validation checks (out of 12) to accept a preamble.
  int min_validation_score = 8;
  /// Maximum peaks examined per detection window.
  std::size_t max_peaks_per_window = 12;

  friend bool operator==(const DetectorOptions&,
                         const DetectorOptions&) = default;
};

/// Detection work shared by Detector::detect calls over one stream
/// (DESIGN.md §9, "Detector window memo"). Every call handed the same memo
/// must see the same samples at the same trace index — growing prefixes
/// of one stream — until rebase() moves the origin. It holds two kinds of
/// entries, both exact rather than approximations:
///  - per symbol window k of the sps grid: step 1's upchirp peak list and
///    the downchirp (x2) scan's peak list. Both read an integer-aligned
///    window at CFO 0, so they depend on that window's samples alone.
///  - per step-1 candidate, keyed by (first window, x1): its step 2/3
///    result before the validation gate. Only results that read every
///    window they asked for are kept, and a call reuses one only when its
///    trace covers all of those windows.
/// Detectors sharing a memo must agree on the Params and on every
/// DetectorOptions field but min_validation_score (each applies its own
/// gate and dedup to the shared results); detect() throws
/// std::invalid_argument otherwise. Not thread-safe.
class DetectMemo {
 public:
  /// Moves the origin `cut` samples forward: the next call's trace[0] is
  /// the current trace[cut]. Window entries below the cut are dropped (all
  /// of them when `cut` is not a multiple of sps); candidate entries are
  /// cleared, since step 2's starts are doubles in the old origin's frame.
  void rebase(std::size_t cut);

  /// Symbol windows tracked: from the origin to the furthest window scanned.
  std::size_t window_entries() const { return windows_.size(); }
  /// Candidate results held.
  std::size_t candidate_entries() const { return resolved_.size(); }

 private:
  friend class Detector;

  struct Window {
    std::optional<std::vector<dsp::Peak>> up;    ///< step 1 scan
    std::optional<std::vector<dsp::Peak>> down;  ///< x2 scan
  };
  /// Steps 2+3 of one candidate, before the validation gate.
  struct Resolved {
    int score = -1;  ///< best step-2 score; -1 = no hypothesis survived
    double t0 = 0.0;
    double cfo_cycles = 0.0;
    double strength = 0.0;
    /// Trace length that covers every window the resolution asked for;
    /// above the trace length when a window was cut off by its end.
    double reach = 0.0;
  };

  /// Params and options (min_validation_score zeroed) of the first caller.
  std::optional<std::pair<lora::Params, DetectorOptions>> config_;
  std::vector<Window> windows_;  ///< index = window k in the current frame
  std::map<std::pair<std::size_t, double>, Resolved> resolved_;
};

class Detector {
 public:
  Detector(lora::Params params, DetectorOptions opt = {});

  /// Detects all preambles in `trace`. Results are coarse (integer-sample
  /// timing, integer-bin CFO with interpolation refinement); feed them to
  /// FracSync for the paper's step-4 refinement. Sorted by t0. `ws`
  /// supplies all demodulation scratch (general slots 0-1 and SV slot 0
  /// are clobbered); the overload without one uses a per-thread workspace.
  /// Each distinct window is demodulated at most once per call (DESIGN.md
  /// §9, "Detector window memo"); with a `memo`, at most once across the
  /// calls sharing it. The result is bit-identical with and without one.
  std::vector<DetectedPacket> detect(std::span<const cfloat> trace,
                                     lora::Workspace& ws,
                                     DetectMemo* memo = nullptr) const;
  std::vector<DetectedPacket> detect(std::span<const cfloat> trace) const;

 private:
  struct Candidate {
    std::size_t first_window = 0;
    double x1 = 0.0;  ///< interpolated upchirp peak location (bins)
  };

  std::vector<Candidate> find_runs(std::span<const cfloat> trace,
                                   DetectMemo& memo,
                                   lora::Workspace& ws) const;

  /// Steps 2+3 for one candidate, before the validation gate.
  DetectMemo::Resolved resolve_candidate(std::span<const cfloat> trace,
                                         const Candidate& cand,
                                         DetectMemo& memo,
                                         lora::Workspace& ws) const;

  lora::Params p_;
  DetectorOptions opt_;
  lora::Demodulator demod_;
};

}  // namespace tnb::rx
