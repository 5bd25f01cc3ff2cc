#pragma once

// Shared machinery of the end-to-end benchmark driver: options, the
// in-memory span tracer, the pass loop that turns a workload into
// end-to-end or per-layer metrics, and the result line.
//
// A workload is a fixed, seed-determined sequence of ops (one "pass").
// The harness runs a fixed number of passes, --seconds divided by the
// workload's nominal pass time: every pass replays the same inputs, so the
// quality metrics of a run are those of pass 0 and every later pass must
// reproduce them bitwise. Timings are converted to reference time (see
// host_speed.h) and keep each op's fastest untraced replay.
// With --trace 1 the harness alternates untraced and traced passes; the
// traced ones record spans at each layer call, and the untraced ones give
// the baseline of the tracing overhead.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host_speed.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced run: where spans are written
};

/// In-memory span recorder for one thread. Spans nest: a span opened while
/// another is open becomes its child. Every span carries the id of the op
/// (or set-up step) it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::int64_t op = -1;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Start a new op: root spans opened from now on carry a fresh op id.
  void next_op() { ++op_; }

  int open(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t op_ = -1;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// What one pass reports back to the harness.
struct PassStats {
  long long ops = 0;
  /// Wall-clock interval of each op, in op order (on traffic_stream of
  /// each admit() call). The harness converts them to reference time.
  std::vector<std::int64_t> op_begin_ns, op_end_ns;
  /// False when op intervals cover only part of each op; ops_per_s then
  /// comes from the pass interval below.
  bool whole_op_latency = true;
  std::int64_t begin_ns = 0, end_ns = 0;  ///< the pass's timed interval
  long long failed = 0;  ///< ops that failed an output check

  void add_op(std::int64_t begin, std::int64_t end) {
    op_begin_ns.push_back(begin);
    op_end_ns.push_back(end);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed output check: `ops` ops count as failed and the run
  /// is marked incorrect.
  void fail(long long ops, const std::string& why);
};

/// Quality metrics of pass 0. Each is deterministic for a given seed. A
/// metric a workload has no analogue for stays empty and prints as the
/// constant 1 (the result line must carry every metric on every workload).
struct Quality {
  std::optional<double> fidelity;
  std::optional<double> paper_throughput;
  std::optional<double> admitted_per_slot;
  std::optional<double> blocking_probability;
  std::optional<double> logical_error_rate;
};

/// Deterministic work counters of one traced pass. A workload fills the
/// ones its layers touch; the rest print as 0.
struct LayerCounters {
  // routing: the batch LP router (and the simplex the incremental router
  // shares with it).
  double lp_pivots = 0;
  double lp_solves = 0;
  double lp_refactorizations = 0;
  double greedy_fallbacks = 0;
  double codes_scheduled = 0;
  // routing.incremental: IncrementalRouter::stats().
  double greedy_admits = 0;
  double warm_admits = 0;
  double cold_admits = 0;
  double lp_rejects = 0;
  double saturation_skips = 0;
  double infeasible_skips = 0;
  double warm_solves = 0;
  double cold_solves = 0;
  double warm_pivots = 0;
  double cold_pivots = 0;
  // netsim: simulator outcomes and the traffic engine's tallies.
  double codes_delivered = 0;
  double corrections = 0;
  double timeouts = 0;
  double offered_per_slot = 0;
  double blocked_by[4] = {0, 0, 0, 0};  ///< load, capacity, fidelity, deadline
};

/// One workload behind the harness.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One-line name of the workload by its configured parameters.
  virtual std::string describe() const = 0;
  /// Nominal wall time of one pass, a constant. A run makes
  /// --seconds / pass_seconds() passes whatever the program's speed, so a
  /// faster build keeps its fastest replay out of as many replays as a
  /// slower one.
  virtual double pass_seconds() const = 0;
  /// Build every input and piece of fixed state the passes run on. Called
  /// several times; the harness reports the median as setup_s.
  virtual void setup(Tracer* tracer) = 0;
  /// Run the op sequence once and check its outputs. `tracer` is null on
  /// untraced passes, `host` on traced ones; the workload ticks `host`
  /// between ops, outside their timings.
  virtual PassStats run_pass(Tracer* tracer, HostSpeed* host) = 0;
  virtual Quality quality() const = 0;
  /// Counters of the last traced pass.
  virtual LayerCounters counters() const = 0;
};

/// The three workloads (see perfbench/README.md for why each exists).
std::unique_ptr<Workload> make_batch_pipeline(const Options& options);
std::unique_ptr<Workload> make_traffic_stream(const Options& options);
std::unique_ptr<Workload> make_decode_fig8(const Options& options);

/// Drive a workload per the options and return its result.
Result run_workload(Workload& workload, const Options& options);

/// Print the human-readable metric lines and the final JSON result line.
void print_result(const Result& result);

}  // namespace perfbench
