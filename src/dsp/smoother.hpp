// Moving-average smoothing and robust deviation statistics.
//
// Thrive's history cost fits a smooth curve through the peak heights a node
// has produced so far (the paper uses MATLAB `smoothdata`, whose default
// method is a centered moving mean with a data-driven window). The fitted
// value extrapolated one symbol ahead gives the expected peak height A, and
// the median absolute deviation between data and fit gives the spread D.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tnb::dsp {

/// Centered moving average with window `window` (forced odd). Near the
/// edges the window shrinks symmetrically, matching MATLAB `movmean`
/// semantics. `window` <= 1 returns the input unchanged.
std::vector<double> smooth_moving(std::span<const double> data,
                                  std::size_t window);

/// Heuristic smoothing window for n samples, mirroring `smoothdata`'s
/// "small fraction of the data, at least a few samples" behaviour.
std::size_t default_smooth_window(std::size_t n);

/// smooth_moving with the default window for the data length.
std::vector<double> smooth_fit(std::span<const double> data);

/// Median of a sequence (copies; n == 0 returns 0).
double median_of(std::span<const double> data);

/// Median of `scratch`, reordering it in place instead of copying: the
/// allocation-free form for callers that already hold a private copy.
/// Returns exactly what median_of returns on the same values.
double median_in_place(std::span<double> scratch);

/// Median of |data[i] - fit[i]|. Sizes must match.
double median_abs_dev(std::span<const double> data,
                      std::span<const double> fit);

}  // namespace tnb::dsp
