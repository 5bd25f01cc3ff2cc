#include "host_speed.h"

#include <algorithm>

#include "harness.h"

namespace perfbench {

namespace {

/// Sampling interval: the kernel costs about 1.5% of the run.
constexpr std::int64_t kIntervalNs = 10'000'000;
/// Samples whose median gives the factor at a point in time (about 90 ms
/// of the run around it).
constexpr std::size_t kWindow = 9;

constexpr int kDim = 32;
constexpr int kEliminations = 3;
constexpr std::size_t kKeys = 1024;

}  // namespace

HostSpeed::HostSpeed()
    : matrix_(kDim * kDim), scratch_(kDim * kDim), keys_(kKeys) {
  // Fixed data from a fixed linear congruential sequence.
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (int r = 0; r < kDim; ++r)
    for (int c = 0; c < kDim; ++c)
      matrix_[r * kDim + c] = (next() % 2001) / 1000.0 - 1.0 +
                              (r == c ? 2.0 * kDim : 0.0);
  for (auto& key : keys_) key = next();
  samples_.reserve(1 << 14);
}

void HostSpeed::kernel() {
  for (int k = 0; k < kEliminations; ++k) {
    scratch_ = matrix_;
    double* m = scratch_.data();
    for (int c = 0; c < kDim; ++c)
      for (int r = c + 1; r < kDim; ++r) {
        const double f = m[r * kDim + c] / m[c * kDim + c];
        for (int j = c; j < kDim; ++j) m[r * kDim + j] -= f * m[c * kDim + j];
      }
    sink_ = sink_ + m[kDim * kDim - 1];
  }
  sorted_ = keys_;
  std::sort(sorted_.begin(), sorted_.end());
  sink_ = sink_ + sorted_[kKeys / 2];
}

void HostSpeed::sample() {
  Sample s;
  s.begin_ns = now_ns();
  kernel();  // warm: the timed run finds its data in L1
  const std::int64_t timed = now_ns();
  kernel();
  s.end_ns = now_ns();
  s.kernel_us = (s.end_ns - timed) / 1e3;
  samples_.push_back(s);
}

void HostSpeed::tick() {
  if (samples_.empty() || now_ns() - samples_.back().end_ns >= kIntervalNs)
    sample();
}

double HostSpeed::factor_at(std::int64_t t_ns) const {
  if (samples_.empty()) return 1.0;
  const auto after = std::lower_bound(
      samples_.begin(), samples_.end(), t_ns,
      [](const Sample& s, std::int64_t t) { return s.begin_ns < t; });
  const std::size_t n = samples_.size();
  const std::size_t width = std::min(kWindow, n);
  const std::size_t at = static_cast<std::size_t>(after - samples_.begin());
  const std::size_t first =
      std::min(at >= width / 2 ? at - width / 2 : 0, n - width);
  double window[kWindow];
  for (std::size_t i = 0; i < width; ++i)
    window[i] = samples_[first + i].kernel_us;
  std::nth_element(window, window + width / 2, window + width);
  return kReferenceKernelUs / window[width / 2];
}

double HostSpeed::work_seconds(std::int64_t begin_ns,
                               std::int64_t end_ns) const {
  std::int64_t ns = end_ns - begin_ns;
  for (const auto& s : samples_)
    if (s.begin_ns >= begin_ns && s.end_ns <= end_ns)
      ns -= s.end_ns - s.begin_ns;
  return ns / 1e9;
}

double HostSpeed::scaled_seconds(std::int64_t begin_ns,
                                 std::int64_t end_ns) const {
  double seconds = 0.0;
  std::int64_t from = begin_ns;
  const auto stretch = [&](std::int64_t to) {
    if (to > from) seconds += (to - from) / 1e9 * factor_at((from + to) / 2);
  };
  for (const auto& s : samples_) {
    if (s.begin_ns < begin_ns || s.end_ns > end_ns) continue;
    stretch(s.begin_ns);
    from = s.end_ns;
  }
  stretch(end_ns);
  return seconds;
}

double HostSpeed::median_kernel_us() const {
  std::vector<double> times;
  times.reserve(samples_.size());
  for (const auto& s : samples_) times.push_back(s.kernel_us);
  if (times.empty()) return 0.0;
  std::nth_element(times.begin(), times.begin() + times.size() / 2,
                   times.end());
  return times[times.size() / 2];
}

}  // namespace perfbench
