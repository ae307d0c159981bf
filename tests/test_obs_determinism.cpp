// Instrumentation must not perturb decoding: the same trace decoded with a
// live obs registry and with the registry disabled must produce
// bit-identical packets, for both the offline Receiver and the streaming
// gateway. This is the guarantee that lets tnb_streamd always run with
// metrics on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "obs/stage_timer.hpp"
#include "sim/trace_builder.hpp"
#include "stream/streaming_receiver.hpp"

namespace tnb {
namespace {

// Same small-FFT trade as test_streaming / test_concurrency.
lora::Params test_params() {
  return {.sf = 8, .cr = 4, .bandwidth_hz = 125e3, .osf = 2};
}

sim::Trace collision_trace(double duration_s, double load_pps,
                           std::uint64_t seed) {
  Rng rng(seed);
  sim::TraceOptions opt;
  opt.duration_s = duration_s;
  opt.load_pps = load_pps;
  opt.nodes = {{1, 20.0, 900.0}, {2, 15.0, -1800.0}, {3, 12.0, 400.0}};
  return sim::build_trace(test_params(), opt, rng);
}

/// Bit-for-bit packet equality: payload bytes plus every numeric field,
/// compared through memcmp of the doubles so even sign-of-zero or NaN
/// differences would fail.
void expect_identical(const std::vector<sim::DecodedPacket>& a,
                      const std::vector<sim::DecodedPacket>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(a[i].payload, b[i].payload);
    EXPECT_EQ(std::memcmp(&a[i].start_sample, &b[i].start_sample,
                          sizeof a[i].start_sample), 0);
    EXPECT_EQ(std::memcmp(&a[i].snr_db, &b[i].snr_db, sizeof a[i].snr_db), 0);
    EXPECT_EQ(std::memcmp(&a[i].cfo_hz, &b[i].cfo_hz, sizeof a[i].cfo_hz), 0);
  }
}

TEST(ObsDeterminism, ReceiverDecodeIsBitIdenticalWithMetricsOn) {
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(2.0, 8.0, 97);

  ASSERT_EQ(obs::Registry::global(), nullptr);
  rx::Receiver off(p);  // null global: instrumentation fully disabled
  Rng rng_off(1);
  rx::ReceiverStats stats_off;
  const auto decoded_off = off.decode(trace.iq, rng_off, &stats_off);
  ASSERT_GE(decoded_off.size(), 2u) << "trace too quiet to be meaningful";

  obs::Registry reg;
  rx::ReceiverOptions ropt;
  ropt.metrics = &reg;
  rx::Receiver on(p, ropt);
  Rng rng_on(1);
  rx::ReceiverStats stats_on;
  const auto decoded_on = on.decode(trace.iq, rng_on, &stats_on);

  expect_identical(decoded_off, decoded_on);
  EXPECT_EQ(stats_off.to_json(), stats_on.to_json());

  // The instrumented run actually recorded: every decode enters detect,
  // frac_sync, sigcalc, assign and header at least once.
  const obs::Snapshot snap = reg.snapshot();
  for (const char* stage : {obs::kStageDetect, obs::kStageFracSync,
                            obs::kStageSigCalc, obs::kStageAssign,
                            obs::kStageHeader}) {
    const obs::Snapshot::Metric* m =
        snap.find(obs::kStageMetricName, {{"stage", stage}});
    ASSERT_NE(m, nullptr) << stage;
    EXPECT_GT(m->count, 0u) << stage;
  }
  // frac_sync is timed per refine: one observation per detection (one
  // antenna, so every detection was refined once).
  EXPECT_EQ(snap.find(obs::kStageMetricName, {{"stage", obs::kStageFracSync}})
                ->count,
            stats_on.detected);
  // All seven registered regardless of whether the trace exercised them.
  EXPECT_NE(snap.find(obs::kStageMetricName, {{"stage", obs::kStageBec}}),
            nullptr);
  EXPECT_NE(
      snap.find(obs::kStageMetricName, {{"stage", obs::kStageSecondPass}}),
      nullptr);
  EXPECT_GT(snap.find("tnb_rx_detected_total")->value, 0.0);
}

TEST(ObsDeterminism, StreamingDecodeIsBitIdenticalWithGlobalRegistry) {
  const lora::Params p = test_params();
  const sim::Trace trace = collision_trace(2.0, 8.0, 98);

  ASSERT_EQ(obs::Registry::global(), nullptr);
  stream::StreamingOptions sopt;
  sopt.window_symbols = 256;
  sopt.rng_seed = 1;

  stream::StreamingReceiver off(p, {}, sopt);
  stream::BufferSource src_off(trace.iq);
  off.consume(src_off, std::size_t{1} << p.sf);
  ASSERT_GE(off.packets().size(), 2u) << "trace too quiet to be meaningful";

  obs::Registry reg;
  obs::Registry::set_global(&reg);
  stream::StreamingReceiver on(p, {}, sopt);
  obs::Registry::set_global(nullptr);  // handles already resolved
  stream::BufferSource src_on(trace.iq);
  on.consume(src_on, std::size_t{1} << p.sf);

  expect_identical(off.packets(), on.packets());
  EXPECT_EQ(off.stats().to_json(), on.stats().to_json());

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("tnb_stream_packets_emitted_total")->value,
            static_cast<double>(on.packets().size()));
  EXPECT_EQ(snap.find("tnb_stream_samples_in_total")->value,
            static_cast<double>(trace.iq.size()));
  EXPECT_GT(snap.find("tnb_stream_segment_decode_seconds")->count, 0u);
}

}  // namespace
}  // namespace tnb
