// Tests of the benchmark's own arithmetic (perfbench/stats.hpp): the capped
// percentile rule, the open-loop schedule, ground-truth matching of decoded
// packets and the trace-coverage share. Self-contained, no test framework:
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "sim/trace_builder.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12) {
  return std::abs(a - b) <= tol;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the rule must sort
}

void test_percentile_rule() {
  using perfbench::capped_percentile;
  // 100 samples: p90 is the 90th value, with exactly 10 beyond it.
  auto p = capped_percentile(one_to(100), 0.90);
  CHECK(p.ok);
  CHECK(p.value == 90.0);
  CHECK(p.beyond == 10);
  CHECK(near(p.q, 0.90));
  CHECK(p.n == 100);
  // 50 samples: p90 would rest on 5 samples; the rule falls back to p80.
  p = capped_percentile(one_to(50), 0.90);
  CHECK(p.ok);
  CHECK(p.value == 40.0);
  CHECK(p.beyond == 10);
  CHECK(near(p.q, 0.80));
  // The median is unaffected while it has 10 samples beyond it.
  p = capped_percentile(one_to(50), 0.50);
  CHECK(p.value == 25.0 && p.beyond == 25);
  // 15 samples: the p50 itself is capped to the 5th value.
  p = capped_percentile(one_to(15), 0.50);
  CHECK(p.ok && p.value == 5.0 && p.beyond == 10);
  // Ten samples or fewer: no percentile has 10 beyond it.
  CHECK(!capped_percentile(one_to(10), 0.50).ok);
  CHECK(!capped_percentile({}, 0.50).ok);
  // 11 samples: only the minimum qualifies.
  p = capped_percentile(one_to(11), 0.90);
  CHECK(p.ok && p.value == 1.0 && p.beyond == 10);
  // A non-integral rank rounds up (nearest rank): 0.9 * 101 = 90.9 -> 91.
  p = capped_percentile(one_to(101), 0.90);
  CHECK(p.value == 91.0 && p.beyond == 10);
}

void test_median() {
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_schedule() {
  const perfbench::Schedule s{1e6};  // 1 Msps, the SF8/OSF 8 rate
  // Sample i is due once received: at (i + 1) / rate.
  CHECK(near(s.due_s(0), 1e-6));
  CHECK(near(s.due_s(999'999), 1.0));
  // A chunk is released when its last sample is due.
  CHECK(near(s.chunk_release_s(4096), 4096e-6));
  CHECK(s.chunk_release_s(0) == 0.0);
  // Lateness is measured against the due time and never negative.
  CHECK(near(s.lateness_s(1.25, 999'999), 0.25));
  CHECK(s.lateness_s(0.5, 999'999) == 0.0);
  // The schedule does not depend on how fast anything else runs: release
  // times of consecutive chunks are evenly spaced.
  CHECK(near(s.chunk_release_s(8192) - s.chunk_release_s(4096), 4096e-6));
}

tnb::sim::TxPacketRecord tx(std::uint16_t node, std::uint16_t seq,
                            double start, std::size_t n, tnb::Rng& rng) {
  tnb::sim::TxPacketRecord r;
  r.node_id = node;
  r.seq = seq;
  r.app_payload = tnb::sim::make_app_payload(node, seq, 14, rng);
  r.start_sample = start;
  r.n_samples = n;
  return r;
}

void test_matching() {
  tnb::Rng rng(1);
  const std::vector<tnb::sim::TxPacketRecord> truth = {
      tx(1, 0, 100.5, 1000, rng), tx(2, 0, 300.0, 1000, rng),
      tx(1, 1, 5000.0, 1000, rng)};
  const perfbench::TruthIndex idx(truth);

  // Matched by the (node, seq) in the payload, not by position.
  tnb::sim::DecodedPacket d;
  d.payload = truth[2].app_payload;
  d.start_sample = 123.0;  // a wrong start does not matter
  CHECK(idx.match(d) == 2);
  // A payload that parses to a known id but differs elsewhere is false.
  d.payload.back() ^= 1;
  CHECK(idx.match(d) == -1);
  // An unknown id is false.
  tnb::Rng other(9);
  d.payload = tnb::sim::make_app_payload(7, 3, 14, other);
  CHECK(idx.match(d) == -1);

  // Last air sample: the packet covers [start, start + n).
  CHECK(perfbench::last_air_sample(truth[0], 0) == 1100);   // ceil(1100.5)-1
  CHECK(perfbench::last_air_sample(truth[1], 0) == 1299);
  CHECK(perfbench::last_air_sample(truth[2], 5500) == 5499);  // clamped

  // prr counts distinct packets; precision counts every output.
  std::vector<tnb::sim::DecodedPacket> out(4);
  out[0].payload = truth[0].app_payload;
  out[1].payload = truth[0].app_payload;  // duplicate emission
  out[2].payload = truth[1].app_payload;
  out[3].payload = d.payload;             // false accept
  const perfbench::Score sc = perfbench::score(idx, out);
  CHECK(sc.transmitted == 3 && sc.outputs == 4);
  CHECK(sc.correct == 3 && sc.recovered == 2);
  CHECK(near(sc.prr(), 2.0 / 3.0));
  CHECK(near(sc.precision(), 0.75));
}

void test_coverage() {
  const double calls[] = {0.25, 0.5, 0.2};
  CHECK(near(perfbench::coverage(calls, 1.0), 0.95));
  CHECK(near(perfbench::coverage(calls, 0.95), 1.0));
  CHECK(perfbench::coverage(calls, 0.0) == 0.0);
  CHECK(perfbench::coverage({}, 2.0) == 0.0);
}

void test_fingerprint() {
  perfbench::Fnv1a a;
  CHECK(a.value() == 0xcbf29ce484222325ull);  // FNV-1a offset basis
  a.add("a", 1);
  CHECK(a.value() == 0xaf63dc4c8601ec8cull);  // published FNV-1a("a")
}

}  // namespace

int main() {
  test_percentile_rule();
  test_median();
  test_schedule();
  test_matching();
  test_coverage();
  test_fingerprint();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
