#pragma once

// Host-speed reference for the timings. On a shared host, co-tenant load
// slows a run's work by up to 60% for minutes at a time, longer than a
// run, so two runs of the same code at different moments disagree by more
// than a code change should be allowed to move them.
//
// HostSpeed runs a fixed reference kernel (dense elimination and a sort
// over L1-resident data; benchmark code, independent of the library) every
// few milliseconds between the workload's ops, outside their timings. A
// stretch of wall time is then converted to reference time: multiplied by
// kReferenceKernelUs over the median kernel time of the samples nearest
// to it. A slowdown of the host slows the kernel too and cancels out; a
// change to the library does not touch the kernel and shows in full.

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// A constant within the kernel's range of times on one core of a
  /// 4-vCPU 2.0 GHz x86-64 host (50-80 us, with co-tenant load). It fixes
  /// only the unit of reference time.
  static constexpr double kReferenceKernelUs = 75.0;

  HostSpeed();

  /// Run the reference kernel once and record its time.
  void sample();
  /// Sample if the last sample is older than the sampling interval.
  void tick();

  /// Reference time per wall time at `t_ns`: kReferenceKernelUs over the
  /// median kernel time of the samples nearest to it.
  double factor_at(std::int64_t t_ns) const;
  /// Wall seconds of [begin_ns, end_ns), kernel runs inside it excluded.
  double work_seconds(std::int64_t begin_ns, std::int64_t end_ns) const;
  /// work_seconds() converted to reference time, each stretch between
  /// kernel runs at the factor of its midpoint.
  double scaled_seconds(std::int64_t begin_ns, std::int64_t end_ns) const;
  /// Median kernel time over the run, in microseconds.
  double median_kernel_us() const;

 private:
  struct Sample {
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    double kernel_us = 0.0;
  };
  void kernel();

  std::vector<Sample> samples_;
  std::vector<double> matrix_, scratch_;
  std::vector<std::uint32_t> keys_, sorted_;
  volatile double sink_ = 0.0;
};

/// Tick `host` unless it is null (traced passes take no samples).
inline void tick(HostSpeed* host) {
  if (host) host->tick();
}

}  // namespace perfbench
