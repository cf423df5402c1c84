// Self-test of the benchmark's own arithmetic (ledger_math.h): the
// nearest-rank percentile every latency metric uses, the sample counts a
// percentile needs, and the ledger remainder. Exits non-zero when any
// check fails. Run with `python3 perfbench/run.py --selftest`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ledger_math.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using perfbench::MinSamplesFor;
  using perfbench::NearestRank;
  using perfbench::Percentile;
  using perfbench::SamplesBeyond;
  using perfbench::Unattributed;

  // Nearest rank: the smallest r with r / n >= q.
  Expect(NearestRank(100, 0.50) == 50, "rank p50 of 100");
  Expect(NearestRank(101, 0.50) == 51, "rank p50 of 101");
  Expect(NearestRank(1000, 0.99) == 990, "rank p99 of 1000 (no FP drift)");
  Expect(NearestRank(1001, 0.99) == 991, "rank p99 of 1001");
  Expect(NearestRank(10, 0.90) == 9, "rank p90 of 10");
  Expect(NearestRank(1, 0.99) == 1, "rank of a single sample");
  Expect(NearestRank(5, 1.0) == 5, "rank p100 is the maximum");

  // The percentile is a sample, taken from unsorted input.
  std::vector<double> shuffled;
  for (int i = 100; i >= 1; --i) shuffled.push_back(i * 3 % 101);
  std::vector<double> ordered = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Expect(Near(Percentile(ordered, 0.5), 5), "p50 of 1..10 is 5");
  Expect(Near(Percentile(ordered, 0.9), 9), "p90 of 1..10 is 9");
  Expect(Near(Percentile(ordered, 0.99), 10), "p99 of 1..10 is 10");
  Expect(Near(Percentile({7.5}, 0.5), 7.5), "p50 of one sample");
  Expect(Near(Percentile({}, 0.5), 0.0), "p50 of no samples");
  std::vector<double> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  Expect(Near(Percentile(shuffled, 0.5), sorted[49]),
         "p50 of shuffled input equals the sorted rank");
  Expect(Near(Percentile({3, 1, 2, 2}, 0.5), 2), "p50 with ties");

  // Samples beyond a percentile, and the minimum run length that keeps ten
  // beyond each reported one.
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Expect(MinSamplesFor(0.99, 10) == 1000, "p99 needs 1000 samples");
  Expect(MinSamplesFor(0.90, 10) == 100, "p90 needs 100 samples");
  Expect(MinSamplesFor(0.50, 10) == 20, "p50 needs 20 samples");

  // The ledger remainder: whole minus the sum of its timed parts.
  Expect(Near(Unattributed(100.0, {10.0, 20.0, 30.0}), 40.0),
         "remainder of a partly attributed call");
  Expect(Near(Unattributed(50.0, {}), 50.0), "nothing attributed");
  Expect(Near(Unattributed(50.0, {30.0, 25.0}), -5.0),
         "over-attribution reads negative");
  Expect(Near(perfbench::Mean({1.0, 2.0, 6.0}), 3.0), "mean");

  if (failures > 0) return 1;
  std::printf("selftest: ok\n");
  return 0;
}
