// The benchmark's own arithmetic: percentiles with their support rule, span
// self time, and the handoff residual. Kept free of product types so the
// self-test (SelfTest in main.cc) can drive every function with synthetic
// input.

#ifndef DMXBENCH_STATS_H_
#define DMXBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmxbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and the tail is a handful of outliers, not a quantile.
inline constexpr size_t kSamplesBeyond = 10;

/// Nearest-rank index of quantile `q` (0 < q < 1) among `n` sorted samples.
inline size_t RankIndex(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// True when `n` samples leave at least kSamplesBeyond above quantile `q`.
inline bool Supports(size_t n, double q) {
  return n > 0 && n - 1 - RankIndex(n, q) >= kSamplesBeyond;
}

/// Nearest-rank quantile of already sorted samples (n > 0).
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  return sorted[RankIndex(sorted.size(), q)];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The highest of a fixed ladder of percentiles that `n` samples support,
/// or 0 when even the median lacks kSamplesBeyond samples above it.
inline double HighestSupportedPercentile(size_t n) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.95,
                                       0.9,    0.75,  0.5};
  for (double q : kLadder) {
    if (Supports(n, q)) return q;
  }
  return 0;
}

/// One traced call into a layer, recorded by the benchmark around the call.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< Index of the causing span in the same log.
  int32_t session = -1;  ///< Session index; -1 for the decomposition pass.
  int64_t ordinal = -1;  ///< Statement ordinal within the session.
};

/// A span's self time: its duration minus the part of it that the union of
/// its children covers (children may overlap each other or stick out).
inline int64_t SelfTimeNs(const Span& span, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  int64_t covered = 0;
  int64_t cursor = span.start_ns;
  for (const Span& child : children) {
    int64_t lo = std::max(child.start_ns, cursor);
    int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (span.end_ns - span.start_ns) - covered;
}

/// Round trip left over once the measured layers are subtracted: the time
/// spent handing the statement between client, pipe and session threads.
/// A negative residual means the layer timings do not describe the round
/// trip they are subtracted from; it is reported as measured and flagged.
struct Residual {
  double us = 0;
  bool negative = false;
};

inline Residual HandoffResidual(double round_trip_us, double execute_us,
                                double encode_us, double decode_us) {
  Residual r;
  r.us = round_trip_us - (execute_us + encode_us + decode_us);
  r.negative = r.us < 0;
  return r;
}

/// FNV-1a, folded over the text of result cells to digest a rowset.
inline uint64_t Fnv1a(uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;

/// Deterministic generator for workload inputs (splitmix64): the same seed
/// gives the same statements on every platform and library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

}  // namespace dmxbench

#endif  // DMXBENCH_STATS_H_
