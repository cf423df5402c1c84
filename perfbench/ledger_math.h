// The benchmark's own arithmetic, kept apart so selftest.cc can check it:
// the percentile definition every reported latency uses, the rule for how
// many samples a percentile needs, and the ledger remainder.
#ifndef XCRYPT_PERFBENCH_LEDGER_MATH_H_
#define XCRYPT_PERFBENCH_LEDGER_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile `q` (0 < q <= 1) among `n` samples:
/// the smallest rank r with r / n >= q. The tolerance keeps products such
/// as 0.99 * 1000 (990.0000000000001 in binary) on the intended rank.
inline size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile: the smallest sample that at least a share `q`
/// of all samples are at or below. Always one of the samples, never an
/// interpolation. 0 when there are no samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples ranked strictly above the percentile's own rank.
inline size_t SamplesBeyond(size_t n, double q) {
  return n - NearestRank(n, q);
}

/// Fewest samples for which quantile `q` has at least `beyond` samples
/// past it — the count a run must reach before it may report `q`.
inline size_t MinSamplesFor(double q, size_t beyond) {
  size_t n = beyond + 1;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

/// The ledger remainder: mean wall time of a whole call minus the summed
/// means of the layer calls that make it up. Negative when the timed
/// layers together took longer than the untimed whole (timer noise, or
/// work the traced variant repeats).
inline double Unattributed(double wall_mean_us,
                           const std::vector<double>& layer_means_us) {
  return wall_mean_us - std::accumulate(layer_means_us.begin(),
                                        layer_means_us.end(), 0.0);
}

}  // namespace perfbench

#endif  // XCRYPT_PERFBENCH_LEDGER_MATH_H_
