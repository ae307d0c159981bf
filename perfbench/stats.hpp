// The benchmark's own arithmetic, kept free of I/O so tests/test_logic.cpp
// can pin it: summary statistics, the capped percentile rule, the open-loop
// 1x schedule, ground-truth matching of decoded packets, trace coverage and
// input fingerprints.
#pragma once
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/trace_builder.hpp"

namespace perfbench {

/// Median of a non-empty sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A percentile reported with the evidence behind it.
struct Percentile {
  bool ok = false;       ///< false: fewer than min_beyond + 1 samples
  double q = 0.0;        ///< percentile actually reported, rank / n
  double value = 0.0;
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples strictly above the reported rank
};

/// Nearest-rank percentile capped so that at least `min_beyond` samples lie
/// beyond it: rank k = min(ceil(q * n), n - min_beyond). With n = 100 the
/// p90 is the 90th value and has 10 samples beyond it; with n = 50 the
/// request for p90 falls back to p80, the highest percentile that still has
/// 10. Never reports a tail value that rests on fewer than `min_beyond`
/// samples (a single-sample "p90" equal to the p50 is what this prevents).
inline Percentile capped_percentile(std::vector<double> v, double q,
                                    std::size_t min_beyond = 10) {
  Percentile p;
  p.n = v.size();
  if (p.n <= min_beyond) return p;
  std::sort(v.begin(), v.end());
  const auto want = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n) - 1e-9));
  const std::size_t k = std::max<std::size_t>(
      1, std::min(want, p.n - min_beyond));
  p.ok = true;
  p.value = v[k - 1];
  p.q = static_cast<double>(k) / static_cast<double>(p.n);
  p.beyond = p.n - k;
  return p;
}

/// The open-loop 1x schedule of a capture: sample i is due once it has been
/// fully received, at start + (i + 1) / rate seconds. The schedule never
/// waits for the decoder, the way a radio delivers samples.
struct Schedule {
  double rate_hz = 1.0;  ///< receiver sample rate

  /// Seconds after the schedule start at which sample `i` is due.
  double due_s(std::size_t i) const {
    return static_cast<double>(i + 1) / rate_hz;
  }
  /// Release time of the chunk [begin, end): when its last sample is due.
  double chunk_release_s(std::size_t end) const {
    return end == 0 ? 0.0 : due_s(end - 1);
  }
  /// How late an event at `now_s` (seconds after the schedule start) is
  /// against sample `i`; never negative.
  double lateness_s(double now_s, std::size_t i) const {
    return std::max(0.0, now_s - due_s(i));
  }
};

/// Index of the last receiver sample a transmitted packet occupies: the
/// packet covers [start, start + n_samples), clamped to the capture.
inline std::size_t last_air_sample(const tnb::sim::TxPacketRecord& tx,
                                   std::size_t capture_len) {
  const double end = tx.start_sample + static_cast<double>(tx.n_samples);
  const auto last = static_cast<std::size_t>(std::max(0.0, std::ceil(end) - 1));
  return capture_len == 0 ? last : std::min(last, capture_len - 1);
}

/// Ground truth keyed by (node id, seq), the identity the paper's packet
/// format embeds in every payload.
class TruthIndex {
 public:
  explicit TruthIndex(std::span<const tnb::sim::TxPacketRecord> truth)
      : truth_(truth) {
    for (std::size_t i = 0; i < truth.size(); ++i) {
      by_id_.emplace(std::make_pair(truth[i].node_id, truth[i].seq), i);
    }
  }
  /// Index of the transmitted packet a decoded one reproduces exactly (id
  /// parsed from the payload, and every payload byte equal); -1 otherwise.
  long match(const tnb::sim::DecodedPacket& pkt) const {
    std::uint16_t node = 0, seq = 0;
    if (!tnb::sim::parse_app_payload(pkt.payload, node, seq)) return -1;
    const auto it = by_id_.find({node, seq});
    if (it == by_id_.end()) return -1;
    if (truth_[it->second].app_payload != pkt.payload) return -1;
    return static_cast<long>(it->second);
  }
  std::size_t size() const { return truth_.size(); }
  const tnb::sim::TxPacketRecord& at(std::size_t i) const { return truth_[i]; }

 private:
  std::span<const tnb::sim::TxPacketRecord> truth_;
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::size_t> by_id_;
};

/// prr and output_precision of one decode output against ground truth.
struct Score {
  std::size_t transmitted = 0;
  std::size_t outputs = 0;    ///< CRC-passing packets the decoder emitted
  std::size_t correct = 0;    ///< outputs that match ground truth
  std::size_t recovered = 0;  ///< distinct ground-truth packets matched
  double prr() const {
    return transmitted == 0 ? 0.0
                            : static_cast<double>(recovered) /
                                  static_cast<double>(transmitted);
  }
  double precision() const {
    return outputs == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(outputs);
  }
};

inline Score score(const TruthIndex& truth,
                   std::span<const tnb::sim::DecodedPacket> decoded) {
  Score s;
  s.transmitted = truth.size();
  s.outputs = decoded.size();
  std::set<long> seen;
  for (const tnb::sim::DecodedPacket& p : decoded) {
    const long m = truth.match(p);
    if (m < 0) continue;
    ++s.correct;
    seen.insert(m);
  }
  s.recovered = seen.size();
  return s;
}

/// The timed layer calls of a traced pass over the wall of the untraced
/// Receiver::decode pass paired with it. Close to 1 means the calls account
/// for the decode; well below 1 means time went somewhere no layer timer
/// sees; above 1 is the tracing's own cost or the host's drift.
inline double coverage(std::span<const double> layer_s, double pass_wall_s) {
  if (pass_wall_s <= 0.0) return 0.0;
  double sum = 0.0;
  for (double s : layer_s) sum += s;
  return sum / pass_wall_s;
}

/// FNV-1a, 64-bit: the input fingerprint printed with every run.
class Fnv1a {
 public:
  void add(const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
