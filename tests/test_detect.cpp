#include "core/detect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "channel/awgn.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/frac_sync.hpp"
#include "core/window.hpp"
#include "dsp/smoother.hpp"
#include "lora/demodulator.hpp"
#include "lora/frame.hpp"
#include "lora/modulator.hpp"

namespace tnb::rx {
namespace {

lora::Params test_params() {
  return lora::Params{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 4};
}

/// Builds a trace with one packet at the given placement.
IqBuffer one_packet_trace(const lora::Params& p, double start, double cfo_hz,
                          double amplitude, double noise_power, Rng& rng,
                          std::size_t trace_len = 0) {
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x5A);
  const auto symbols = lora::make_packet_symbols(p, app);
  lora::WaveformOptions wopt;
  wopt.cfo_hz = cfo_hz;
  wopt.amplitude = amplitude;
  const double start_floor = std::floor(start);
  wopt.frac_delay = start - start_floor;
  const IqBuffer pkt = mod.synthesize(symbols, wopt);

  if (trace_len == 0) trace_len = pkt.size() + 8 * p.sps();
  IqBuffer trace(trace_len, cfloat{0.0f, 0.0f});
  const std::size_t s0 = static_cast<std::size_t>(start_floor);
  for (std::size_t i = 0; i < pkt.size() && s0 + i < trace.size(); ++i) {
    trace[s0 + i] += pkt[i];
  }
  chan::add_awgn(trace, noise_power, rng);
  return trace;
}

TEST(Detector, FindsCleanPacket) {
  const lora::Params p = test_params();
  Rng rng(1);
  const double t0 = 3000.0;
  const IqBuffer trace = one_packet_trace(p, t0, 0.0, 1.0, 0.0, rng);
  const Detector det(p);
  const auto found = det.detect(trace);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, t0, 2.0 * p.osf);  // within ~2 chirp samples
  EXPECT_NEAR(found[0].cfo_cycles, 0.0, 1.0);
  EXPECT_GE(found[0].validation_score, 10);
}

class DetectorCfo : public ::testing::TestWithParam<double> {};

TEST_P(DetectorCfo, EstimatesCfoWithinOneBin) {
  const lora::Params p = test_params();
  const double cfo_hz = GetParam();
  Rng rng(static_cast<std::uint64_t>(std::abs(cfo_hz)) + 7);
  const double t0 = 5000.0;
  const IqBuffer trace = one_packet_trace(p, t0, cfo_hz, 1.0, 0.5, rng);
  const Detector det(p);
  const auto found = det.detect(trace);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].cfo_cycles, p.cfo_hz_to_cycles(cfo_hz), 1.0);
  EXPECT_NEAR(found[0].t0, t0, 2.0 * p.osf);
}

INSTANTIATE_TEST_SUITE_P(CfoSweep, DetectorCfo,
                         ::testing::Values(-4000.0, -1500.0, 0.0, 800.0, 3000.0,
                                           4800.0));

TEST(Detector, FindsPacketAtFractionalOffset) {
  const lora::Params p = test_params();
  Rng rng(2);
  const double t0 = 4321.625;
  const IqBuffer trace = one_packet_trace(p, t0, 1234.0, 1.0, 0.5, rng);
  const Detector det(p);
  const auto found = det.detect(trace);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, t0, 2.0 * p.osf);
}

TEST(Detector, FindsPacketInNoise) {
  const lora::Params p = test_params();
  Rng rng(3);
  // SNR 0 dB: amplitude 1 with in-band noise power 1.
  const IqBuffer trace = one_packet_trace(p, 6000.0, -2000.0, 1.0,
                                          chan::fullband_noise_power(p.osf), rng);
  const Detector det(p);
  const auto found = det.detect(trace);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(found[0].t0, 6000.0, 2.0 * p.osf);
}

TEST(Detector, EmptyTraceNoDetections) {
  const lora::Params p = test_params();
  Rng rng(4);
  IqBuffer trace(40 * p.sps(), cfloat{0.0f, 0.0f});
  chan::add_awgn(trace, chan::fullband_noise_power(p.osf), rng);
  const Detector det(p);
  EXPECT_TRUE(det.detect(trace).empty());
}

TEST(Detector, TwoSeparatedPackets) {
  const lora::Params p = test_params();
  Rng rng(5);
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x11);
  const auto symbols = lora::make_packet_symbols(p, app);
  const IqBuffer pkt = mod.synthesize(symbols);
  IqBuffer trace(3 * pkt.size() + 20 * p.sps(), cfloat{0.0f, 0.0f});
  const double t0a = 2000.0, t0b = static_cast<double>(pkt.size() + 10 * p.sps());
  for (std::size_t i = 0; i < pkt.size(); ++i) {
    trace[static_cast<std::size_t>(t0a) + i] += pkt[i];
    trace[static_cast<std::size_t>(t0b) + i] += pkt[i];
  }
  chan::add_awgn(trace, 0.5, rng);
  const Detector det(p);
  const auto found = det.detect(trace);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[0].t0, t0a, 2.0 * p.osf);
  EXPECT_NEAR(found[1].t0, t0b, 2.0 * p.osf);
}

/// One packet of a multi-packet trace.
struct Placement {
  double start = 0.0;  ///< fractional receiver sample
  double cfo_hz = 0.0;
  double amplitude = 1.0;
};

/// Superimposes one packet per placement on a `len`-sample trace plus AWGN.
IqBuffer multi_packet_trace(const lora::Params& p,
                            const std::vector<Placement>& placements,
                            std::size_t len, double noise_power, Rng& rng) {
  const lora::Modulator mod(p);
  std::vector<std::uint8_t> app(14, 0x77);
  const auto symbols = lora::make_packet_symbols(p, app);
  IqBuffer trace(len, cfloat{0.0f, 0.0f});
  for (const Placement& pl : placements) {
    lora::WaveformOptions w;
    w.cfo_hz = pl.cfo_hz;
    w.amplitude = pl.amplitude;
    const double start_floor = std::floor(pl.start);
    w.frac_delay = pl.start - start_floor;
    const IqBuffer pkt = mod.synthesize(symbols, w);
    const std::size_t s0 = static_cast<std::size_t>(start_floor);
    for (std::size_t i = 0; i < pkt.size() && s0 + i < len; ++i) {
      trace[s0 + i] += pkt[i];
    }
  }
  chan::add_awgn(trace, noise_power, rng);
  return trace;
}

/// Two packets offset by ~3.5 symbols with different CFOs, so their
/// preambles overlap.
IqBuffer collided_trace(const lora::Params& p, double t0a, Rng& rng) {
  const double sps = static_cast<double>(p.sps());
  const std::size_t pkt_len = lora::Modulator(p).synthesize(
      lora::make_packet_symbols(p, std::vector<std::uint8_t>(14, 0x77))).size();
  return multi_packet_trace(
      p, {{t0a, 1000.0, 1.0}, {t0a + 3.5 * sps, -2500.0, 1.0}},
      pkt_len + 12 * p.sps(), 0.5, rng);
}

TEST(Detector, CollidedPreamblesBothFound) {
  // Two packets offset by ~3.5 symbols with different CFOs: preambles
  // overlap, both must be detected.
  const lora::Params p = test_params();
  Rng rng(6);
  const double t0a = 2000.0;
  const double t0b = t0a + 3.5 * static_cast<double>(p.sps());
  const IqBuffer trace = collided_trace(p, t0a, rng);
  const Detector det(p);
  const auto found = det.detect(trace);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NEAR(found[0].t0, t0a, 2.0 * p.osf);
  EXPECT_NEAR(found[1].t0, t0b, 2.0 * p.osf);
}

struct DirectValidation {
  int score = 0;
  double strength = 0.0;
};

/// Step 2's 12 checks (paper Section 7) at one (t0, CFO), each window
/// demodulated on its own with nothing shared between checks: the
/// preamble upchirps at bin 0, the two sync words at their shifts, the
/// two downchirps at bin 0. A check passes when the energy near its bin
/// (max over bin-1..bin+1) reaches `ratio` times the window's noise floor
/// (median, kept above 1e-5 of the maximum).
DirectValidation validate_directly(const lora::Params& p,
                                   std::span<const cfloat> trace, double t0,
                                   double cfo_cycles, double ratio) {
  const lora::Demodulator demod(p);
  lora::Workspace ws(p);
  const std::size_t sps = p.sps();
  const auto n = static_cast<std::int64_t>(p.n_bins());
  std::vector<cfloat> window(sps);
  SignalVector sv;
  DirectValidation v;
  auto check = [&](int sym, std::uint32_t bin, bool up) {
    const double start = t0 + sym * static_cast<double>(sps);
    if (start + static_cast<double>(sps) > static_cast<double>(trace.size())) {
      return;
    }
    extract_window(trace, start, window);
    demod.signal_vector_into(window, cfo_cycles, up, ws, sv);
    const std::vector<double> bins(sv.begin(), sv.end());
    const float mx = *std::max_element(sv.begin(), sv.end());
    const double floor = std::max(
        {dsp::median_of(bins), static_cast<double>(mx) * 1e-5, 1e-30});
    double e = 0.0;
    for (int d = -1; d <= 1; ++d) {
      const auto b = floor_mod(static_cast<std::int64_t>(bin) + d, n);
      e = std::max(e, static_cast<double>(sv[static_cast<std::size_t>(b)]));
    }
    const double rel = e / floor;
    if (rel >= ratio) {
      ++v.score;
      v.strength += rel;
    }
  };
  for (int m = 0; m < 8; ++m) check(m, 0, true);
  check(8, lora::kSyncShift1, true);
  check(9, lora::kSyncShift2, true);
  check(10, 0, false);
  check(11, 0, false);
  return v;
}

TEST(Detector, ValidationMatchesDirectEvaluation) {
  // The detector shares demodulated windows across step-2 checks; every
  // detection's score and strength must equal the checks evaluated one
  // window at a time.
  struct Case {
    lora::Params p;
    IqBuffer trace;
    std::size_t min_found;
  };
  std::vector<Case> cases;
  {
    Rng rng(6);
    const lora::Params p = test_params();
    cases.push_back({p, collided_trace(p, 2000.0, rng), 2});
  }
  for (unsigned sf : {7u, 8u, 12u}) {
    for (unsigned osf : {1u, 8u}) {
      const lora::Params p{
          .sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = osf};
      Rng rng(10 * sf + osf);
      const double t0a = 1.95 * static_cast<double>(p.sps()) + 0.37 * osf;
      cases.push_back({p, collided_trace(p, t0a, rng), 2});
    }
  }
  {
    // Dense: eight packets within ~two packet lengths, random placement,
    // CFO and a 10 dB amplitude spread.
    const lora::Params p{.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 8};
    Rng rng(31);
    const double sps = static_cast<double>(p.sps());
    std::vector<Placement> placements;
    for (int i = 0; i < 8; ++i) {
      placements.push_back({rng.uniform(0.5, 60.0) * sps,
                            rng.uniform(-4000.0, 4000.0),
                            std::pow(10.0, rng.uniform(-0.25, 0.25))});
    }
    const IqBuffer trace =
        multi_packet_trace(p, placements, 110 * p.sps(), 0.5, rng);
    cases.push_back({p, trace, 6});
  }

  const double ratio = DetectorOptions{}.peak_floor_ratio;
  for (const Case& c : cases) {
    SCOPED_TRACE("sf=" + std::to_string(c.p.sf) +
                 " osf=" + std::to_string(c.p.osf));
    const auto found = Detector(c.p).detect(c.trace);
    ASSERT_GE(found.size(), c.min_found);
    for (const DetectedPacket& pkt : found) {
      const DirectValidation v =
          validate_directly(c.p, c.trace, pkt.t0, pkt.cfo_cycles, ratio);
      EXPECT_EQ(pkt.validation_score, v.score) << "t0=" << pkt.t0;
      EXPECT_EQ(pkt.strength, v.strength) << "t0=" << pkt.t0;
    }
  }
}

/// Bit-for-bit equality of two detection lists, field by field.
void expect_same_detections(const std::vector<DetectedPacket>& got,
                            const std::vector<DetectedPacket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t0, want[i].t0) << "detection " << i;
    EXPECT_EQ(got[i].cfo_cycles, want[i].cfo_cycles) << "detection " << i;
    EXPECT_EQ(got[i].strength, want[i].strength) << "detection " << i;
    EXPECT_EQ(got[i].validation_score, want[i].validation_score)
        << "detection " << i;
  }
}

TEST(DetectMemo, StreamingReplayMatchesMemolessDetect) {
  // The streaming gateway's pattern: a relaxed-gate scan over a growing
  // window, now and then a strict-gate detect over a prefix of it (the
  // segment decode), then a cut at an sps multiple. Every call through the
  // shared memo must equal a memo-less detect of the same span.
  for (unsigned sf : {7u, 8u, 12u}) {
    for (unsigned osf : {1u, 8u}) {
      const lora::Params p{
          .sf = sf, .cr = 4, .bandwidth_hz = 125e3, .osf = osf};
      SCOPED_TRACE("sf=" + std::to_string(sf) + " osf=" + std::to_string(osf));
      const std::size_t sps = p.sps();
      Rng rng(100 + 10 * sf + osf);
      const double t0a = 1.95 * static_cast<double>(sps) + 0.37 * osf;
      const IqBuffer trace = collided_trace(p, t0a, rng);
      const std::span<const cfloat> all(trace);

      DetectorOptions relaxed_opt;
      relaxed_opt.min_validation_score = 6;
      const Detector relaxed(p, relaxed_opt);
      const Detector strict(p);
      DetectMemo memo;
      lora::Workspace ws(p);
      std::size_t base = 0;
      std::size_t end = 0;
      std::size_t held = 0;  // most candidate results the memo held at once
      std::size_t found = 0;
      // Steps off the symbol grid, so prefixes end mid-window and cut
      // preambles and validation spans short.
      const std::size_t step = 5 * sps + sps / 3 + 1;
      for (int call = 1; end < trace.size(); ++call) {
        end = std::min(trace.size(), end + step);
        const auto window = all.subspan(base, end - base);
        const auto dets = relaxed.detect(window, ws, &memo);
        expect_same_detections(dets, relaxed.detect(window, ws));
        found += dets.size();
        held = std::max(held, memo.candidate_entries());
        if (call % 3 != 0) continue;
        const std::size_t cut = (window.size() * 2 / 3) / sps * sps;
        if (cut == 0) continue;
        expect_same_detections(strict.detect(window.first(cut), ws, &memo),
                               strict.detect(window.first(cut), ws));
        memo.rebase(cut);
        base += cut;
        EXPECT_EQ(memo.candidate_entries(), 0u);
        EXPECT_LE(memo.window_entries(), (end - base) / sps);
      }
      const auto rest = all.subspan(base);
      expect_same_detections(strict.detect(rest, ws, &memo),
                             strict.detect(rest, ws));
      EXPECT_GT(found, 0u);
      EXPECT_GT(held, 0u) << "no candidate result was ever kept";
    }
  }
}

TEST(DetectMemo, RejectsAnotherConfiguration) {
  const lora::Params p = test_params();
  Rng rng(6);
  const IqBuffer trace = collided_trace(p, 2000.0, rng);
  lora::Workspace ws(p);
  DetectMemo memo;
  ASSERT_FALSE(Detector(p).detect(trace, ws, &memo).empty());

  // Only the validation gate may differ between detectors sharing a memo.
  DetectorOptions gate;
  gate.min_validation_score = 4;
  EXPECT_NO_THROW(Detector(p, gate).detect(trace, ws, &memo));

  std::vector<DetectorOptions> others(4);
  others[0].peak_floor_ratio = 6.0;
  others[1].min_run = 4;
  others[2].max_cfo_cycles = 3.0;
  others[3].max_peaks_per_window = 8;
  for (const DetectorOptions& opt : others) {
    EXPECT_THROW(Detector(p, opt).detect(trace, ws, &memo),
                 std::invalid_argument);
  }
  lora::Params other = p;
  other.cr = 2;
  lora::Workspace other_ws(other);
  EXPECT_THROW(Detector(other).detect(trace, other_ws, &memo),
               std::invalid_argument);
  // A rebase keeps the configuration.
  memo.rebase(4 * p.sps());
  EXPECT_THROW(Detector(p, others[0]).detect(trace, ws, &memo),
               std::invalid_argument);
}

TEST(FracSync, RefinesFractionalCfo) {
  const lora::Params p = test_params();
  Rng rng(7);
  // True CFO = 3.4 bins; coarse estimate 3.0 -> residual 0.4.
  const double cfo_hz = p.cfo_cycles_to_hz(3.4);
  const double t0 = 4096.0;
  const IqBuffer trace = one_packet_trace(p, t0, cfo_hz, 1.0, 0.1, rng);
  const FracSync fs(p);
  const FracSyncResult r = fs.refine(trace, t0, 3.0);
  EXPECT_NEAR(3.0 + r.df, 3.4, 0.1);
  EXPECT_NEAR(r.dt, 0.0, 1.0);
  EXPECT_TRUE(r.gated);
}

TEST(FracSync, RefinesFractionalTiming) {
  const lora::Params p = test_params();
  Rng rng(8);
  const double true_t0 = 4096.6;
  const IqBuffer trace = one_packet_trace(p, true_t0, 500.0, 1.0, 0.1, rng);
  const double coarse_t0 = 4096.0;
  const FracSync fs(p);
  const FracSyncResult r =
      fs.refine(trace, coarse_t0, p.cfo_hz_to_cycles(500.0));
  EXPECT_NEAR(coarse_t0 + r.dt, true_t0, 0.5);
}

TEST(FracSync, QPeaksAtTruth) {
  const lora::Params p = test_params();
  Rng rng(9);
  const double t0 = 4096.0;
  const IqBuffer trace = one_packet_trace(p, t0, 0.0, 1.0, 0.0, rng);
  const FracSync fs(p);
  const double q_true = fs.q(trace, t0, 0.0, 0.0, 0.0, false);
  // Off by half a cycle of CFO: markedly lower.
  const double q_cfo = fs.q(trace, t0, 0.0, 0.0, 0.5, false);
  EXPECT_GT(q_true, 2.0 * q_cfo);
  // Off by 2 receiver samples of timing: lower.
  const double q_dt = fs.q(trace, t0, 0.0, 4.0, 0.0, false);
  EXPECT_GT(q_true, q_dt);
}

TEST(FracSync, GateRejectsOffByOneCfo) {
  const lora::Params p = test_params();
  Rng rng(10);
  const double t0 = 4096.0;
  const IqBuffer trace = one_packet_trace(p, t0, 0.0, 1.0, 0.0, rng);
  const FracSync fs(p);
  // With df = 1 the peak sits at bin 1 (not 0): Q* must gate it to zero.
  EXPECT_EQ(fs.q(trace, t0, 0.0, 0.0, 1.0, true), 0.0);
  EXPECT_GT(fs.q(trace, t0, 0.0, 0.0, 0.0, true), 0.0);
}

}  // namespace
}  // namespace tnb::rx
