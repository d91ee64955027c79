// Tests of the benchmark's own logic: the percentile rule, the latency
// histogram, and failed_ratio accounting. Exits non-zero on the first
// failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void percentile_rule() {
  // p50 needs 10 samples above it: 20 samples is the smallest sample.
  expect(!perfbench::supported(19, 0.50), "p50 of 19 samples is refused");
  expect(perfbench::supported(20, 0.50), "p50 of 20 samples is reported");
  expect(!perfbench::supported(999, 0.99), "p99 of 999 samples is refused");
  expect(perfbench::supported(1000, 0.99), "p99 of 1000 samples is reported");
  expect(!perfbench::supported(199, 0.95), "p95 of 199 samples is refused");
  expect(perfbench::supported(200, 0.95), "p95 of 200 samples is reported");
  expect(perfbench::rank_of(1000, 0.99).beyond == 10, "10 samples beyond p99");
  expect(!perfbench::supported(0, 0.5), "an empty sample has no median");

  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  expect(perfbench::percentile(v, 0.5) == 10.0, "nearest-rank p50 of 1..20");
  expect(std::isnan(perfbench::percentile(v, 0.95)), "p95 of 20 is null");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void histogram() {
  perfbench::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add_ns(i * 1000);  // 1..1000 us
  expect(h.count() == 1000, "histogram counts every sample");
  const double p50 = h.quantile_us(0.5);
  const double p99 = h.quantile_us(0.99);
  expect(std::fabs(p50 - 500.0) / 500.0 < 0.01, "histogram p50 within 1 %");
  expect(std::fabs(p99 - 990.0) / 990.0 < 0.01, "histogram p99 within 1 %");
  expect(std::isnan(h.quantile_us(0.999)), "p99.9 of 1000 is null");
  perfbench::LatencyHistogram small;
  for (int i = 0; i < 19; ++i) small.add_ns(100 + i);
  expect(std::isnan(small.quantile_us(0.5)), "histogram applies the rule");
  perfbench::LatencyHistogram merged;
  merged.merge(h);
  merged.merge(small);
  expect(merged.count() == 1019, "merge adds counts");
}

void tally() {
  perfbench::Tally t;
  for (int i = 0; i < 9; ++i) t.ok();
  t.record(false, "planted wrong answer");
  expect(t.attempted() == 10 && t.failed() == 1, "a wrong answer counts");
  expect(t.failed_ratio() == 0.1, "failed_ratio = failed / attempted");
  t.flag("later check of a counted operation");
  expect(t.attempted() == 10 && t.failed() == 2, "flag adds a failure only");
  perfbench::Tally other;
  other.fail("threw");
  t.merge(other);
  expect(t.attempted() == 11 && t.failed() == 3, "merge sums both counts");
  expect(t.reasons().size() == 3, "reasons are kept");
  perfbench::Tally empty;
  expect(empty.failed_ratio() == 0.0, "no operations, no failures");
}

}  // namespace

int main() {
  percentile_rule();
  histogram();
  tally();
  if (failures == 0) std::puts("perfbench_selftest: all expectations hold");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
