// Checks perfbench/stats.h on samples with known answers. Exits non-zero
// on the first mismatch; run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank over 1..10, given shuffled.
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 5, 4, 6};
  Expect(Near(Quantile(ten, 0.5), 5), "p50 of 1..10 is 5");
  Expect(Near(Quantile(ten, 0.9), 9), "p90 of 1..10 is 9");
  Expect(Near(Quantile(ten, 0.91), 10), "p91 of 1..10 is 10");
  Expect(Near(Quantile(ten, 1.0), 10), "p100 is the maximum");
  Expect(Near(Quantile(ten, 0.0), 1), "p0 is the minimum");
  Expect(Near(Median(ten), 5), "median of 1..10 is 5");
  Expect(Near(Mean(ten), 5.5), "mean of 1..10 is 5.5");

  // 1..100: p90 is the 90th order statistic, with 10 samples beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Near(Quantile(hundred, 0.9), 90), "p90 of 1..100 is 90");
  Expect(Near(Quantile(hundred, 0.99), 99), "p99 of 1..100 is 99");
  Expect(SamplesBeyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  Expect(SamplesBeyond(200, 0.9) == 20, "20 samples beyond p90 of 200");
  Expect(SamplesBeyond(0, 0.9) == 0, "empty sample has none beyond");

  // Percentiles are samples, not interpolations or bucket edges.
  const std::vector<double> skewed = {0.001, 0.0011, 0.0012, 0.5};
  Expect(Near(Quantile(skewed, 0.5), 0.0011), "p50 is a sample");
  Expect(Near(Quantile(skewed, 0.9), 0.5), "p90 of 4 is the maximum");
  Expect(Near(Quantile({}, 0.5), 0), "empty sample reads 0");
  Expect(Near(Quantile({3.5}, 0.9), 3.5), "single sample");

  // Open-loop accounting: latency runs from the due time, lateness is
  // the generator's own delay and never negative.
  OpenLoopLog log;
  log.Record(/*due=*/10.0, /*released=*/10.0, /*done=*/10.25);
  log.Record(/*due=*/11.0, /*released=*/11.5, /*done=*/11.75);
  log.Record(/*due=*/12.0, /*released=*/11.999, /*done=*/12.5);
  Expect(Near(log.latency[0], 0.25), "on-time op latency");
  Expect(Near(log.latency[1], 0.75), "late op charged from its due time");
  Expect(Near(log.lateness[1], 0.5), "generator lateness recorded");
  Expect(Near(log.lateness[2], 0.0), "early release is not lateness");
  Expect(Near(Quantile(log.latency, 0.9), 0.75), "p90 over the log");

  const double due = Now() + 0.002;
  const double released = WaitUntil(due);
  Expect(released >= due, "WaitUntil never releases early");

  ThreadBudget budget{4, 3, 0};
  Expect(budget.total() == 4 && budget.ok(), "4 threads fit 4 cpus");
  budget = ThreadBudget{4, 1, 2};
  Expect(budget.total() == 4 && budget.ok(), "wire budget fits");
  budget = ThreadBudget{4, 4, 0};
  Expect(!budget.ok(), "5 threads refused on 4 cpus");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
