// Fractional timing / CFO estimation (paper Section 7, step 4).
//
// After coarse synchronization the residual timing error is below one
// receiver sample and the residual CFO below one bin. The estimator
// evaluates Q(dt, df) — the coherent peak energy of the preamble when the
// windows are shifted by dt receiver samples and the CFO correction is
// offset by df cycles — over a three-phase search of 17 + 10 + (OSF+1)
// points, exploiting that Q is high along the correct-CFO line (possibly
// off by +/-1 cycle) and that Q* (Q gated on the peaks being at location 1)
// rejects the off-by-one lines.
//
// Phases 2/3 and q() evaluate Q through its integer-offset decomposition
// (DESIGN.md §9): the coherent up/down sums at a fractional start are the
// linear interpolation of the sums of the windows at the two neighbouring
// integer offsets, and a whole CFO cycle is a one-bin circular shift of
// those sums. Each integer offset therefore costs one 10-window batch of
// transforms, computed lazily at one canonical CFO, and every (dt, df)
// point is a shifted lerp + fold + argmax. The decomposition is exact in
// real arithmetic; in float it agrees with the direct
// extract -> dechirp -> FFT -> rotate-sum evaluation to ~1e-6 relative
// (bounded in tests/test_demod_workspace.cpp). refine() and q() share the
// one evaluation path, so refine() returns exactly what a grid search over
// q() returns, ties resolved in the original search order.
#pragma once

#include <span>

#include "common/types.hpp"
#include "lora/demodulator.hpp"
#include "lora/params.hpp"

namespace tnb::rx {

struct FracSyncResult {
  double dt = 0.0;      ///< timing refinement, receiver samples
  double df = 0.0;      ///< CFO refinement, cycles per symbol
  double q = 0.0;       ///< objective at the chosen point
  bool gated = true;    ///< false if the Q* gate never passed (fallback used)
};

class FracSync {
 public:
  explicit FracSync(lora::Params p);

  /// Refines (t0, cfo) of a coarsely-synchronized packet whose preamble
  /// starts at `t0` in `trace`. Add the returned dt/df to the coarse
  /// values. `ws` supplies all scratch (general slots 0, 2, 3 and 4 and SV
  /// slots 0-1 are clobbered); the overload without one uses a per-thread
  /// workspace. A warm workspace makes the call allocation-free.
  FracSyncResult refine(std::span<const cfloat> trace, double t0,
                        double cfo_cycles, lora::Workspace& ws) const;
  FracSyncResult refine(std::span<const cfloat> trace, double t0,
                        double cfo_cycles) const;

  /// The search objective (exposed for tests and the Fig. 8 bench).
  /// Returns the preamble peak energy; if `gate` is set, returns 0 unless
  /// both the upchirp-sum and downchirp-sum peaks are at bin 0.
  double q(std::span<const cfloat> trace, double t0, double cfo_cycles,
           double dt, double df, bool gate) const;

 private:
  /// One objective evaluation: the ungated value plus the Q* gate
  /// verdict, so a single computation serves both gatings.
  struct QEval {
    double value = 0.0;
    bool gate_pass = false;
  };

  /// Q(dt, df) around one coarse estimate, from lazily computed
  /// integer-offset preamble sums (defined in frac_sync.cpp).
  class Objective;

  /// Extracts the 10 preamble windows (8 up, 2 down) starting at `start`
  /// and dechirps + transforms them in place at CFO `cfo` into the
  /// workspace block (two batched invocations, split on chirp direction).
  void preamble_spectra(std::span<const cfloat> trace, double start,
                        double cfo, lora::Workspace& ws) const;

  /// Zeroes `up_sum`/`down_sum` (sps each) and accumulates the block's
  /// 8 upchirp / 2 downchirp spectra into them with the inter-symbol phase
  /// rotation of CFO `cfo`.
  void coherent_sums(const cfloat* spectra, double cfo, cfloat* up_sum,
                     cfloat* down_sum) const;

  /// Peak energy (ungated) and gate verdict of one pair of coherent sums.
  QEval peak(std::span<const cfloat> up_sum, std::span<const cfloat> down_sum,
             lora::Workspace& ws) const;

  lora::Params p_;
  lora::Demodulator demod_;
};

}  // namespace tnb::rx
