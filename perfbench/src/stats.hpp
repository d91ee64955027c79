// Statistics and outcome accounting of the benchmark: the percentile rule,
// a log-linear latency histogram, and the attempted/failed tally that feeds
// failed_ratio.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave above it before it is reported.
inline constexpr std::uint64_t kMinBeyond = 10;

/// Nearest-rank position of quantile q in n sorted samples (1-based), and
/// how many samples lie strictly beyond it.
struct Rank {
  std::uint64_t rank = 0;
  std::uint64_t beyond = 0;
};

inline Rank rank_of(std::uint64_t n, double q) {
  if (n == 0) return {};
  auto r = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  r = std::clamp<std::uint64_t>(r, 1, n);
  return {r, n - r};
}

/// The percentile rule: quantile q of n samples is reported only when at
/// least kMinBeyond samples lie beyond it.
inline bool supported(std::uint64_t n, double q) {
  return n > 0 && rank_of(n, q).beyond >= kMinBeyond;
}

inline constexpr double kUnsupported = std::numeric_limits<double>::quiet_NaN();

/// Quantile q of `v` (nearest rank), or NaN when the rule forbids it.
inline double percentile(std::vector<double> v, double q) {
  if (!supported(v.size(), q)) return kUnsupported;
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), q).rank - 1];
}

/// Plain median (mean of the middle pair), for per-cell medians over rounds
/// and set-up repetitions, where the sample is small by design.
inline double median(std::vector<double> v) {
  if (v.empty()) return kUnsupported;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return kUnsupported;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Latency histogram over nanoseconds: 128 linear sub-buckets per power of
/// two (0.8 % resolution), so millions of reads cost a fixed 32 KiB and a
/// percentile is interpolated inside its bucket by rank.
class LatencyHistogram {
 public:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 32;  // up to 2^32 ns; longer ones clamp

  void add_ns(std::int64_t ns) {
    if (ns < 1) ns = 1;
    ++counts_[index(static_cast<std::uint64_t>(ns))];
    ++n_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// Quantile q in microseconds, NaN when the percentile rule forbids it.
  [[nodiscard]] double quantile_us(double q) const {
    if (!supported(n_, q)) return kUnsupported;
    const std::uint64_t r = rank_of(n_, q).rank;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (cum + counts_[i] >= r) {
        const double frac = (static_cast<double>(r - cum) - 0.5) /
                            static_cast<double>(counts_[i]);
        const double lo = lower(i), hi = lower(i + 1);
        return (lo + frac * (hi - lo)) / 1e3;
      }
      cum += counts_[i];
    }
    return kUnsupported;
  }

 private:
  static std::size_t index(std::uint64_t ns) {
    const int width = 64 - __builtin_clzll(ns);  // ns in [2^(w-1), 2^w)
    if (width <= 7) return static_cast<std::size_t>(ns);  // exact below 128
    const int octave = width - 7;
    if (octave >= kOctaves) return static_cast<std::size_t>(kSub) * kOctaves - 1;
    const std::uint64_t sub = (ns >> (width - 8)) & (kSub - 1);
    return static_cast<std::size_t>(octave) * kSub + static_cast<std::size_t>(sub);
  }
  // Smallest ns value of bucket i (inverse of index()).
  static double lower(std::size_t i) {
    const std::size_t octave = i / kSub, sub = i % kSub;
    if (octave == 0) return static_cast<double>(sub);
    return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(octave) - 1);
  }

  std::array<std::uint64_t, static_cast<std::size_t>(kSub) * kOctaves> counts_{};
  std::uint64_t n_ = 0;
};

/// Operations attempted and failed. A failure is an operation that threw,
/// returned a non-exact fidelity, or failed its output check; `flag` marks
/// an already counted operation whose output failed a later, off-clock
/// check.
class Tally {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& why) {
    ++attempted_;
    flag(why);
  }
  void record(bool good, const std::string& why) { good ? ok() : fail(why); }
  void flag(const std::string& why) {
    ++failed_;
    if (reasons_.size() < kMaxReasons) reasons_.push_back(why);
  }
  void merge(const Tally& o) {
    attempted_ += o.attempted_;
    failed_ += o.failed_;
    for (const std::string& r : o.reasons_)
      if (reasons_.size() < kMaxReasons) reasons_.push_back(r);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double failed_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  static constexpr std::size_t kMaxReasons = 20;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

}  // namespace perfbench
