#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "channel/awgn.hpp"
#include "common/rng.hpp"
#include "core/detect.hpp"
#include "core/frac_sync.hpp"
#include "core/receiver.hpp"
#include "fleet/channelizer.hpp"
#include "fleet/fleet.hpp"
#include "lora/demodulator.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "sim/deployment.hpp"
#include "sim/ground_truth.hpp"
#include "sim/trace_builder.hpp"
#include "sim/trace_io.hpp"
#include "stats.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/streaming_receiver.hpp"

namespace perfbench {
namespace {

using namespace tnb;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num / den as a ratio of counts; 0 when nothing was counted.
double share(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// Workload definitions. Every sim::TraceOptions field is set explicitly in
// synthesize(), so a later change to a simulator default cannot silently
// change a workload; the printed fingerprints catch a change to the
// deployment preset or the modulator.

enum class Path { kOffline, kStream, kFleet };

struct Spec {
  const char* name;
  Path path;
  unsigned sf;
  double load_pps;     ///< per channel
  double duration_s;   ///< seconds of air in the capture
  unsigned channels;   ///< 1 = narrowband capture
};

constexpr Spec kSpecs[] = {
    {"sf12-offline", Path::kOffline, 12, 8.0, 4.0, 1},
    {"sf8-dense", Path::kOffline, 8, 25.0, 8.0, 1},
    {"stream-sf8", Path::kStream, 8, 8.0, 16.0, 1},
    {"fleet-8ch", Path::kFleet, 8, 4.0, 2.0, 8},
};

constexpr std::uint64_t kDecodeSeed = 7;  ///< BEC sampling fallback RNG
constexpr unsigned kFleetLanes = 2;
constexpr std::size_t kFleetChunk = std::size_t{1} << 16;  ///< wideband
constexpr std::size_t kStreamChunk = 4096;  ///< samples per radio delivery
constexpr double kRingSeconds = 4.0;        ///< ring capacity, in air
/// setup_s is the median of this many complete set-ups in one run.
constexpr unsigned kSetupRepeats = 3;

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

lora::Params params_for(const Spec& s) {
  lora::Params p;
  p.sf = s.sf;
  p.cr = 4;
  p.bandwidth_hz = 125e3;
  p.osf = 8;
  p.ldro = false;
  return p;
}

rx::ReceiverOptions receiver_options(obs::Registry* reg) {
  rx::ReceiverOptions o;  // the program's defaults: paper format, TnB
  o.metrics = reg;
  return o;
}

stream::StreamingOptions streaming_options() {
  stream::StreamingOptions o;
  o.rng_seed = 1;
  o.keep_packets = false;  // the benchmark's callback owns the packets
  return o;
}

fleet::FleetOptions fleet_options(const Spec& s, obs::Registry* reg) {
  fleet::FleetOptions o;
  o.n_channels = s.channels;
  o.sfs = {s.sf};
  o.lanes = static_cast<int>(kFleetLanes);
  o.dispatch_samples = 0;
  o.lane_queue_chunks = 4;
  o.taps = 1;
  o.stream = streaming_options();
  o.receiver = receiver_options(reg);
  return o;
}

// ---------------------------------------------------------------------------
// Set-up: seeded synthesis, the int16 capture round trip of the
// tnb_gen -> tnb_eval/tnb_streamd path, decoder construction.

struct Capture {
  lora::Params params;   ///< per-channel PHY
  IqBuffer iq;           ///< as read back from the int16 file
  double rate_hz = 0.0;  ///< sample rate of `iq`
  double air_s = 0.0;
  std::vector<sim::TxPacketRecord> truth;  ///< every channel
  std::uint64_t capture_fp = 0;
  std::uint64_t truth_fp = 0;
};

struct SetupTimes {
  double build_s = 0.0;
  double write_s = 0.0;
  double read_s = 0.0;
  double construct_s = 0.0;
};

sim::TraceOptions trace_options(const Spec& s, std::uint64_t traffic_seed) {
  sim::TraceOptions opt;
  opt.duration_s = s.duration_s;
  opt.load_pps = s.load_pps;
  Rng population(traffic_seed);
  opt.nodes = sim::indoor_deployment().draw_nodes(population);
  opt.channel = nullptr;
  opt.add_noise = false;  // synthesize() adds it from the workload seed
  opt.app_payload_bytes = 14;
  opt.n_antennas = 1;
  opt.implicit_header = false;
  opt.shift_encoder = nullptr;
  opt.traffic = std::nullopt;
  opt.impairments = {};
  return opt;
}

/// The traffic seed draws the node population (per-node SNR and CFO,
/// Indoor preset), arrival times, payloads and per-packet offsets; the
/// workload seed draws the receiver noise.
Capture synthesize(const Spec& s, const RunConfig& cfg, SetupTimes& t) {
  Capture cap;
  cap.params = params_for(s);
  const sim::TraceOptions opt = trace_options(s, cfg.traffic_seed);
  Rng traffic(cfg.traffic_seed);
  Rng noise(cfg.seed);
  const double noise_power = chan::fullband_noise_power(cap.params.osf);
  const std::string prefix = cfg.scratch_dir + "/" + s.name + "." +
                             std::to_string(::getpid());
  double scale = 1024.0;

  auto t0 = Clock::now();
  IqBuffer air;
  if (s.channels == 1) {
    sim::Trace tr = sim::build_trace(cap.params, opt, traffic);
    air = std::move(tr.iq);
    cap.truth = std::move(tr.packets);
    chan::add_awgn(air, noise_power, noise);
  } else {
    std::vector<sim::Trace> traces =
        sim::build_multichannel_traces(cap.params, opt, s.channels, traffic);
    std::vector<IqBuffer> per_channel;
    for (sim::Trace& tr : traces) {
      chan::add_awgn(tr.iq, noise_power, noise);  // channel order
      per_channel.push_back(std::move(tr.iq));
      cap.truth.insert(cap.truth.end(), tr.packets.begin(), tr.packets.end());
    }
    air = fleet::mix_channels(per_channel, s.channels);
    // tnb_gen's rule: shrink the int16 scale when the composite would clip.
    float peak = 0.0f;
    for (const cfloat& v : air) {
      peak = std::max({peak, std::abs(v.real()), std::abs(v.imag())});
    }
    if (peak * scale > 30000.0) scale = 30000.0 / peak;
  }
  t.build_s = since(t0);

  t0 = Clock::now();
  sim::write_trace_i16(prefix + ".bin", air, scale);
  sim::write_ground_truth_csv(prefix + ".csv", cap.truth);
  t.write_s = since(t0);
  air = IqBuffer{};

  t0 = Clock::now();
  cap.iq = sim::read_trace_i16(prefix + ".bin", scale);
  cap.truth = sim::read_ground_truth_csv(prefix + ".csv");
  t.read_s = since(t0);

  std::ifstream csv(prefix + ".csv", std::ios::binary);
  const std::string csv_bytes((std::istreambuf_iterator<char>(csv)),
                              std::istreambuf_iterator<char>());
  std::filesystem::remove(prefix + ".bin");
  std::filesystem::remove(prefix + ".csv");

  cap.rate_hz = cap.params.sample_rate_hz() * s.channels;
  cap.air_s = static_cast<double>(cap.iq.size()) / cap.rate_hz;
  Fnv1a iq_fp, truth_fp;
  iq_fp.add(cap.iq.data(), cap.iq.size() * sizeof(cfloat));
  truth_fp.add(csv_bytes.data(), csv_bytes.size());
  cap.capture_fp = iq_fp.value();
  cap.truth_fp = truth_fp.value();
  return cap;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The input fingerprint line (FNV-1a of the read-back capture samples and
/// of the ground-truth CSV).
std::string fingerprint(const Capture& cap) {
  return "fingerprint capture=" + hex64(cap.capture_fp) +
         " truth=" + hex64(cap.truth_fp) +
         " samples=" + std::to_string(cap.iq.size()) +
         " transmitted=" + std::to_string(cap.truth.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Decoder outputs and the correctness gate.

/// A decoder output as the gate compares it: payload and detected start.
using PacketSet = std::vector<std::pair<std::vector<std::uint8_t>, double>>;

PacketSet packet_set(const std::vector<sim::DecodedPacket>& pkts) {
  PacketSet s;
  for (const auto& p : pkts) s.emplace_back(p.payload, p.start_sample);
  std::sort(s.begin(), s.end());
  return s;
}

struct Gate {
  RunResult& res;
  std::optional<PacketSet> reference;

  /// Every pass must decode the set the first pass decoded.
  void same_set(const PacketSet& s, const std::string& what) {
    ++res.attempted;
    if (!reference) {
      reference = s;
      return;
    }
    if (s != *reference) {
      ++res.failed;
      res.failures.push_back(what + ": decoded " + std::to_string(s.size()) +
                             " packets, first pass decoded " +
                             std::to_string(reference->size()));
    }
  }
  void require(bool ok, const std::string& what) {
    if (!ok) res.failures.push_back(what);
  }
};

void add(RunResult& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics.push_back({name, value, unit});
}

/// Appends one latency sample per recovered ground-truth packet (its first
/// emission): emit_s(i), the time output i came out, minus the time the
/// packet's last air sample was due on the 1x schedule of a channel of
/// `len` samples.
template <typename EmitTime>
void add_latencies(const TruthIndex& truth, const Schedule& sched,
                   std::size_t len, const std::vector<sim::DecodedPacket>& out,
                   EmitTime emit_s, std::vector<double>& lat) {
  std::set<long> seen;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const long m = truth.match(out[i]);
    if (m < 0 || !seen.insert(m).second) continue;
    const std::size_t last =
        last_air_sample(truth.at(static_cast<std::size_t>(m)), len);
    lat.push_back(emit_s(i) - sched.due_s(last));
  }
}

/// The batch path (record the capture, then decode it) emits every packet
/// when the decode returns: a packet waits for the rest of the capture to
/// arrive on the 1x schedule, then for the whole pass. So this latency is
/// a constant per packet plus 1/rtf of the capture. One sample per
/// recovered packet, whatever the number of passes.
void batch_latencies(const Capture& cap, std::size_t samples_per_channel,
                     const TruthIndex& truth,
                     const std::vector<sim::DecodedPacket>& out,
                     double pass_s, std::vector<double>& lat) {
  const Schedule sched{cap.params.sample_rate_hz()};
  const double emitted = sched.due_s(samples_per_channel - 1) + pass_s;
  add_latencies(truth, sched, samples_per_channel, out,
                [emitted](std::size_t) { return emitted; }, lat);
}

void add_latency(RunResult& r, const std::vector<double>& lat, Gate& gate) {
  const Percentile p50 = capped_percentile(lat, 0.50);
  const Percentile p90 = capped_percentile(lat, 0.90);
  gate.require(p50.ok && p90.ok,
               "emit latency: " + std::to_string(lat.size()) +
                   " samples, need more than 10");
  add(r, "emit_latency_p50_s", p50.value, "s");
  add(r, "emit_latency_p90_s", p90.value, "s");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "emit_latency samples=%zu p50: q=%.3f beyond=%zu  "
                "p90: q=%.3f beyond=%zu",
                lat.size(), p50.q, p50.beyond, p90.q, p90.beyond);
  r.notes.push_back(buf);
}

void add_score(RunResult& r, const Score& s) {
  add(r, "prr", s.prr(), "ratio");
  add(r, "output_precision", s.precision(), "ratio");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "packets transmitted=%zu recovered=%zu outputs=%zu "
                "correct=%zu",
                s.transmitted, s.recovered, s.outputs, s.correct);
  r.notes.push_back(buf);
}

// ---------------------------------------------------------------------------
// Streaming: a generator thread replays the capture into the ring on the 1x
// schedule (try_push, the radio's overrun policy); the calling thread pops
// and decodes.

struct StreamRun {
  std::vector<sim::DecodedPacket> out;
  std::vector<double> emit_s;  ///< callback time after the schedule start
  double busy_s = 0.0;         ///< inside push_chunk / finish
  double scan_only_s = 0.0;    ///< push_chunk calls that cut no segment
  double segment_s = 0.0;      ///< push_chunk calls that cut one or more
  double max_lateness_s = 0.0;  ///< generator behind its schedule
  stream::StreamingStats stats;
  stream::RingStats ring;
};

StreamRun run_stream(const Capture& cap, stream::StreamingReceiver& srx) {
  StreamRun run;
  const Schedule sched{cap.rate_hz};
  const auto ring_capacity =
      static_cast<std::size_t>(kRingSeconds * cap.rate_hz);
  stream::IqRing ring(ring_capacity);
  Clock::time_point start;
  srx.set_packet_callback([&](const sim::DecodedPacket& p) {
    run.emit_s.push_back(since(start));
    run.out.push_back(p);
  });

  start = Clock::now();
  // jthread: joined on every exit path, also when push_chunk throws.
  std::jthread generator([&] {
    const std::span<const cfloat> all(cap.iq);
    for (std::size_t b = 0; b < all.size(); b += kStreamChunk) {
      const std::size_t e = std::min(all.size(), b + kStreamChunk);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          sched.chunk_release_s(e))));
      run.max_lateness_s =
          std::max(run.max_lateness_s, sched.lateness_s(since(start), e - 1));
      ring.try_push(all.subspan(b, e - b));
    }
    ring.close();
  });

  IqBuffer chunk;
  while (ring.pop(chunk, 16 * kStreamChunk) > 0) {
    const std::size_t segments = srx.stats().segments;
    const auto t0 = Clock::now();
    srx.push_chunk(chunk);
    const double dt = since(t0);
    (srx.stats().segments == segments ? run.scan_only_s : run.segment_s) += dt;
  }
  const auto t0 = Clock::now();
  srx.finish();
  run.segment_s += since(t0);
  generator.join();
  srx.set_packet_callback(nullptr);  // it captures this frame's locals
  run.busy_s = run.scan_only_s + run.segment_s;
  run.stats = srx.stats();
  run.ring = ring.stats();
  return run;
}

// ---------------------------------------------------------------------------
// Fleet.

struct FleetRun {
  std::vector<sim::DecodedPacket> out;
  double wall_s = 0.0;
  double push_s = 0.0;
  double finish_s = 0.0;
  fleet::FleetStats stats;
};

FleetRun run_fleet(const Spec& s, const Capture& cap, obs::Registry* reg) {
  FleetRun run;
  const auto t0 = Clock::now();
  fleet::Fleet f(cap.params, fleet_options(s, reg));
  const std::span<const cfloat> all(cap.iq);
  for (std::size_t b = 0; b < all.size(); b += kFleetChunk) {
    const auto tp = Clock::now();
    f.push_wideband(all.subspan(b, std::min(kFleetChunk, all.size() - b)));
    run.push_s += since(tp);
  }
  const auto tf = Clock::now();
  f.finish();
  run.finish_s = since(tf);
  run.wall_s = since(t0);
  for (const fleet::LedgerEntry& e : f.ledger()) run.out.push_back(e.pkt);
  run.stats = f.stats();
  return run;
}

/// The fleet lanes' input: the capture split by the same channelizer.
std::vector<IqBuffer> channelize(const Spec& s, const Capture& cap,
                                 double* seconds) {
  fleet::Channelizer ch({s.channels, 1});
  std::vector<IqBuffer> out(s.channels);
  const std::span<const cfloat> all(cap.iq);
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < all.size(); b += kFleetChunk) {
    ch.push(all.subspan(b, std::min(kFleetChunk, all.size() - b)), out);
  }
  if (seconds != nullptr) *seconds = since(t0);
  return out;
}

// ---------------------------------------------------------------------------
// The traced decode: Receiver::decode rebuilt from its public pieces, each
// call timed from outside.

/// Sum of the `stage` series of tnb_stage_duration_seconds that carry every
/// label in `extra` (a fleet lane's {channel, sf}).
double stage_sum(const obs::Snapshot& snap, const char* stage,
                 const obs::Labels& extra = {}) {
  double sum = 0.0;
  for (const auto& m : snap.metrics) {
    const auto has = [&m](const std::pair<std::string, std::string>& l) {
      return std::find(m.labels.begin(), m.labels.end(), l) != m.labels.end();
    };
    if (m.name == obs::kStageMetricName && has({"stage", stage}) &&
        std::all_of(extra.begin(), extra.end(), has)) {
      sum += m.sum;
    }
  }
  return sum;
}

struct SplitPass {
  std::vector<sim::DecodedPacket> out;
  double wall_s = 0.0;
  double detect_s = 0.0;
  double refine_s = 0.0;
  double decode_s = 0.0;
  std::size_t candidates = 0;
  std::size_t refine_calls = 0;
  std::size_t gated = 0;
  rx::ReceiverStats stats;
  std::map<std::string, double> stages;  ///< inclusive stage sums

  SplitPass& operator+=(const SplitPass& o) {
    out.insert(out.end(), o.out.begin(), o.out.end());
    wall_s += o.wall_s;
    detect_s += o.detect_s;
    refine_s += o.refine_s;
    decode_s += o.decode_s;
    candidates += o.candidates;
    refine_calls += o.refine_calls;
    gated += o.gated;
    stats += o.stats;
    for (const auto& [k, v] : o.stages) stages[k] += v;
    return *this;
  }
};

/// The traced pass's wall starts where Receiver::decode's would: it builds
/// the Detector, FracSync and Workspace of every call, so those count.
SplitPass split_decode(const lora::Params& p, std::span<const cfloat> iq) {
  SplitPass r;
  obs::Registry reg;
  const rx::Receiver rx(p, receiver_options(&reg));
  Rng rng(kDecodeSeed);

  const auto t0 = Clock::now();
  const rx::Detector detector(p, rx.options().detector);
  const rx::FracSync fsync(p);
  lora::Workspace ws(p);
  const auto td = Clock::now();
  std::vector<rx::DetectedPacket> dets = detector.detect(iq, ws);
  r.detect_s = since(td);
  r.candidates = dets.size();
  if (rx.options().use_frac_sync) {
    const auto t1 = Clock::now();
    for (rx::DetectedPacket& det : dets) {
      const rx::FracSyncResult fr = fsync.refine(iq, det.t0, det.cfo_cycles, ws);
      ++r.refine_calls;
      if (fr.gated) {
        ++r.gated;
        det.t0 += fr.dt;
        det.cfo_cycles += fr.df;
      }
    }
    r.refine_s = since(t1);
  }
  const auto t2 = Clock::now();
  r.out = rx.decode_with_detections({iq}, std::move(dets), rng, &r.stats);
  r.decode_s = since(t2);
  r.wall_s = since(t0);

  const obs::Snapshot snap = reg.snapshot();
  for (const char* st : {obs::kStageSigCalc, obs::kStageAssign,
                         obs::kStageHeader, obs::kStageBec,
                         obs::kStageSecondPass}) {
    r.stages[st] = stage_sum(snap, st);
  }
  return r;
}

struct OfflinePass {
  std::vector<sim::DecodedPacket> out;
  double wall_s = 0.0;
};

OfflinePass offline_decode(const rx::Receiver& rx,
                           std::span<const cfloat> iq) {
  OfflinePass r;
  Rng rng(kDecodeSeed);
  const auto t0 = Clock::now();
  r.out = rx.decode(iq, rng);
  r.wall_s = since(t0);
  return r;
}

// ---------------------------------------------------------------------------
// End-to-end run.

std::string pass_note(const std::vector<double>& walls) {
  std::string note = "passes=" + std::to_string(walls.size()) + " pass_s=";
  for (std::size_t i = 0; i < walls.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", i > 0 ? "," : "", walls[i]);
    note += buf;
  }
  return note;
}

/// Runs `pass` back to back while another pass of median length still fits
/// in the budget, and at least twice, so that every run compares passes.
/// Returns the pass walls.
template <typename Pass>
std::vector<double> closed_loop(double seconds, Pass&& pass) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (walls.size() < 2 || since(t0) + median(walls) <= seconds) {
    walls.push_back(pass());
  }
  return walls;
}

RunResult run_e2e(const Spec& s, const RunConfig& cfg) {
  RunResult res;
  Gate gate{res, std::nullopt};
  std::vector<double> setups;
  Capture cap;
  std::optional<rx::Receiver> rx;
  std::optional<stream::StreamingReceiver> srx;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> fp;
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    SetupTimes t;
    const auto t0 = Clock::now();
    cap = synthesize(s, cfg, t);
    // The last set-up's decoder is the one measured; the fleet builds one
    // per pass, so this one only times the construction.
    if (s.path == Path::kOffline) {
      rx.emplace(cap.params, receiver_options(nullptr));
    } else if (s.path == Path::kStream) {
      srx.emplace(cap.params, receiver_options(nullptr), streaming_options());
    } else {
      const fleet::Fleet f(cap.params, fleet_options(s, nullptr));
    }
    setups.push_back(since(t0));
    const std::pair<std::uint64_t, std::uint64_t> got{cap.capture_fp,
                                                      cap.truth_fp};
    gate.require(!fp || *fp == got,
                 "set-up is not deterministic: input fingerprint changed");
    fp = got;
  }
  res.notes.push_back(fingerprint(cap));
  const TruthIndex truth(cap.truth);
  std::vector<double> lat;
  Score sc;
  double rtf = 0.0;

  std::vector<sim::DecodedPacket> out;  // of the last pass
  if (s.path == Path::kOffline) {
    const std::vector<double> walls = closed_loop(cfg.seconds, [&] {
      OfflinePass p = offline_decode(*rx, cap.iq);
      gate.same_set(packet_set(p.out), "offline pass");
      out = std::move(p.out);
      return p.wall_s;
    });
    sc = score(truth, out);
    batch_latencies(cap, cap.iq.size(), truth, out, median(walls), lat);
    rtf = cap.air_s / median(walls);
    res.notes.push_back(pass_note(walls));
  } else if (s.path == Path::kStream) {
    const StreamRun run = run_stream(cap, *srx);
    ++res.attempted;
    gate.require(run.ring.dropped == 0,
                 "ring dropped " + std::to_string(run.ring.dropped) +
                     " samples");
    sc = score(truth, run.out);
    add_latencies(truth, Schedule{cap.rate_hz}, cap.iq.size(), run.out,
                  [&](std::size_t i) { return run.emit_s[i]; }, lat);
    rtf = cap.air_s / run.busy_s;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "stream busy_s=%.4f segments=%zu forced_cuts=%zu "
                  "ring_high_water=%zu generator_max_late_s=%.4f",
                  run.busy_s, run.stats.segments, run.stats.forced_cuts,
                  run.ring.high_water, run.max_lateness_s);
    res.notes.push_back(buf);
  } else {
    const std::size_t per_channel = cap.iq.size() / s.channels;
    const std::vector<double> walls = closed_loop(cfg.seconds, [&] {
      FleetRun run = run_fleet(s, cap, nullptr);
      gate.same_set(packet_set(run.out), "fleet pass");
      out = std::move(run.out);
      return run.wall_s;
    });
    sc = score(truth, out);
    batch_latencies(cap, per_channel, truth, out, median(walls), lat);
    rtf = cap.air_s / median(walls);
    res.notes.push_back(pass_note(walls));
  }

  gate.require(sc.recovered > 0, "no packet decoded");
  add(res, "rtf", rtf, "x");
  add_score(res, sc);
  add_latency(res, lat, gate);
  add(res, "setup_s", median(setups), "s");
  add(res, "peak_rss_mb", peak_rss_mib(), "MiB");
  return res;
}

// ---------------------------------------------------------------------------
// Traced run.

RunResult run_traced(const Spec& s, const RunConfig& cfg) {
  RunResult res;
  Gate gate{res, std::nullopt};
  SetupTimes st;
  Capture cap = synthesize(s, cfg, st);
  res.notes.push_back(fingerprint(cap));
  {
    const auto t0 = Clock::now();
    const rx::Receiver rx(cap.params, receiver_options(nullptr));
    st.construct_s = since(t0);
  }
  const auto budget_start = Clock::now();

  // Narrowband inputs of the offline split: the capture itself, or the
  // channelized lanes of a wideband one.
  std::vector<IqBuffer> channels;
  double channelizer_s = 0.0;
  if (s.channels > 1) channels = channelize(s, cap, &channelizer_s);
  const std::vector<std::span<const cfloat>> inputs =
      s.channels > 1 ? std::vector<std::span<const cfloat>>(channels.begin(),
                                                            channels.end())
                     : std::vector<std::span<const cfloat>>{cap.iq};

  // Alternate untraced Receiver::decode and the traced split path; both
  // must decode the identical packet set, on every round.
  const rx::Receiver plain(cap.params, receiver_options(nullptr));
  std::vector<SplitPass> traced;
  std::vector<double> untraced_walls;
  std::vector<double> coverages;  // per round, against the untraced wall
  const double split_budget = s.path == Path::kOffline ? cfg.seconds : 0.0;
  while (traced.empty() || since(budget_start) + 2.0 * median(untraced_walls) <=
                               split_budget) {
    OfflinePass u;
    SplitPass t;
    for (const auto& in : inputs) {
      OfflinePass one = offline_decode(plain, in);
      u.wall_s += one.wall_s;
      u.out.insert(u.out.end(), one.out.begin(), one.out.end());
      t += split_decode(cap.params, in);
    }
    untraced_walls.push_back(u.wall_s);
    const double calls[] = {t.detect_s, t.refine_s, t.decode_s};
    coverages.push_back(coverage(calls, u.wall_s));
    gate.same_set(packet_set(u.out), "untraced pass");
    ++res.attempted;
    if (packet_set(t.out) != packet_set(u.out)) {
      ++res.failed;
      res.failures.push_back("traced split path decoded " +
                             std::to_string(t.out.size()) +
                             " packets, Receiver::decode " +
                             std::to_string(u.out.size()));
    }
    traced.push_back(std::move(t));
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const SplitPass& t : traced) v.push_back(field(t));
    return median(v);
  };
  const SplitPass& first = traced.front();
  const rx::ReceiverStats& rs = first.stats;
  const double untraced_wall = median(untraced_walls);

  add(res, "detect.scan_s", med([](const SplitPass& t) { return t.detect_s; }), "s");
  add(res, "detect.candidates", static_cast<double>(first.candidates), "count");
  add(res, "frac_sync.refine_s", med([](const SplitPass& t) { return t.refine_s; }), "s");
  add(res, "frac_sync.calls", static_cast<double>(first.refine_calls), "count");
  add(res, "frac_sync.gated_ratio", share(first.gated, first.refine_calls),
      "ratio");
  add(res, "rx.decode_s", med([](const SplitPass& t) { return t.decode_s; }), "s");
  for (const auto& [stage, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {obs::kStageSigCalc, "rx.sigcalc_s"},
           {obs::kStageAssign, "rx.assign_s"},
           {obs::kStageHeader, "rx.header_s"},
           {obs::kStageBec, "rx.bec_s"},
           {obs::kStageSecondPass, "rx.second_pass_s"}}) {
    add(res, metric,
        med([&](const SplitPass& t) { return t.stages.at(stage); }), "s");
  }
  add(res, "rx.detected", static_cast<double>(rs.detected), "count");
  add(res, "rx.crc_ok", static_cast<double>(rs.crc_ok), "count");
  add(res, "rx.yield", share(rs.crc_ok, rs.detected), "ratio");
  add(res, "rx.decoded_second_pass",
      static_cast<double>(rs.decoded_second_pass), "count");
  add(res, "bec.crc_checks", static_cast<double>(rs.bec.crc_checks), "count");
  add(res, "bec.crc_checks_per_packet",
      share(rs.bec.crc_checks, rs.detected), "1/packet");
  add(res, "bec.candidate_blocks",
      static_cast<double>(rs.bec.candidate_blocks), "count");
  add(res, "bec.delta2", static_cast<double>(rs.bec.delta2), "count");
  add(res, "bec.delta3", static_cast<double>(rs.bec.delta3), "count");

  // Streaming layer: the open-loop run of the stream workload. The other
  // workloads never call it and report zeros.
  StreamRun sr;
  if (s.path == Path::kStream) {
    stream::StreamingReceiver srx(cap.params, receiver_options(nullptr),
                                  streaming_options());
    sr = run_stream(cap, srx);
    ++res.attempted;
    gate.require(sr.ring.dropped == 0,
                 "ring dropped " + std::to_string(sr.ring.dropped) +
                     " samples");
  }
  add(res, "stream.busy_s", sr.busy_s, "s");
  add(res, "stream.scan_only_s", sr.scan_only_s, "s");
  add(res, "stream.segment_s", sr.segment_s, "s");
  add(res, "stream.segments", static_cast<double>(sr.stats.segments), "count");
  add(res, "stream.forced_cuts", static_cast<double>(sr.stats.forced_cuts),
      "count");
  add(res, "stream.high_water_samples",
      static_cast<double>(sr.stats.high_water_samples), "samples");
  add(res, "stream.overhead_ratio",
      s.path == Path::kStream ? sr.busy_s / untraced_wall : 0.0, "ratio");
  add(res, "ring.high_water_samples", static_cast<double>(sr.ring.high_water),
      "samples");
  add(res, "ring.dropped", static_cast<double>(sr.ring.dropped), "samples");

  // Fleet layer: an untraced and a traced fleet pass (lane stage sums come
  // from a registry), plus the channelizer alone over the same capture.
  FleetRun fr;
  double lane_skew = 0.0;
  if (s.path == Path::kFleet) {
    const FleetRun plain_run = run_fleet(s, cap, nullptr);
    obs::Registry reg;
    fr = run_fleet(s, cap, &reg);
    res.attempted += 2;
    if (packet_set(fr.out) != packet_set(plain_run.out)) {
      ++res.failed;
      res.failures.push_back("traced fleet pass decoded a different set");
    }
    const obs::Snapshot snap = reg.snapshot();
    std::vector<double> lanes;
    for (unsigned c = 0; c < s.channels; ++c) {
      const obs::Labels lane{{"channel", std::to_string(c)},
                             {"sf", std::to_string(s.sf)}};
      double sum = 0.0;
      // Non-nesting stages only: second_pass contains assign/header/bec.
      for (const char* st : {obs::kStageDetect, obs::kStageFracSync,
                             obs::kStageAssign, obs::kStageHeader,
                             obs::kStageBec}) {
        sum += stage_sum(snap, st, lane);
      }
      lanes.push_back(sum);
    }
    double mean = 0.0;
    for (double v : lanes) mean += v / static_cast<double>(lanes.size());
    lane_skew = mean > 0.0 ? *std::max_element(lanes.begin(), lanes.end()) / mean
                           : 0.0;
  }
  add(res, "channelizer.s", channelizer_s, "s");
  add(res, "fleet.push_s", fr.push_s, "s");
  add(res, "fleet.blocked_s",
      s.path == Path::kFleet ? fr.push_s - channelizer_s : 0.0, "s");
  add(res, "fleet.finish_s", fr.finish_s, "s");
  add(res, "fleet.steals", static_cast<double>(fr.stats.steals), "count");
  add(res, "fleet.lane_skew", lane_skew, "ratio");
  add(res, "fleet.resident_iq_high_water",
      static_cast<double>(fr.stats.resident_iq_high_water), "samples");
  add(res, "ledger.entries", static_cast<double>(fr.out.size()), "count");

  add(res, "sim.build_trace_s", st.build_s, "s");
  add(res, "trace_io.write_s", st.write_s, "s");
  add(res, "trace_io.read_s", st.read_s, "s");
  add(res, "rx.construct_s", st.construct_s, "s");

  add(res, "trace.coverage", median(coverages), "ratio");
  add(res, "trace.overhead",
      med([](const SplitPass& t) { return t.wall_s; }) / untraced_wall,
      "ratio");
  res.notes.push_back("traced rounds=" + std::to_string(traced.size()) +
                      " untraced_pass_s=" + std::to_string(untraced_wall));
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : kSpecs) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

RunResult run_workload(const RunConfig& cfg) {
  const Spec& s = find_spec(cfg.workload);
  std::filesystem::create_directories(cfg.scratch_dir);
  return cfg.trace ? run_traced(s, cfg) : run_e2e(s, cfg);
}

}  // namespace perfbench
