#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

/// Per-name totals of a trace. Self time is a span's duration minus the
/// time its direct children cover.
struct SpanTotals {
  long long calls = 0;
  double self_ms = 0.0;
  std::vector<double> durations_us;
};

struct TraceSummary {
  /// Keyed by span name; root spans ("op", "setup") included.
  std::map<std::string, SpanTotals> by_name;
  double op_ms = 0.0;            ///< summed duration of the "op" roots
  double unattributed_ms = 0.0;  ///< self time of the "op" roots
  long long spans = 0;

  /// Totals of one span name (empty when it never occurred).
  const SpanTotals& get(const std::string& name) const {
    static const SpanTotals empty;
    const auto it = by_name.find(name);
    return it == by_name.end() ? empty : it->second;
  }
};

constexpr int kSetupRepeats = 15;

/// A run starts no further pass once its passes have taken this many times
/// --seconds, so that a drastically slower build or host still ends within
/// the benchmark's time limits.
constexpr double kMaxRunFactor = 1.5;

/// Layer spans must cover at least this share of op wall time.
constexpr double kMinCoverage = 0.95;

/// Layer spans: the share of op wall time each one's self time takes is
/// printed per workload; `percentiles` adds per-call latency percentiles.
struct LayerSpan {
  const char* name;
  bool percentiles;
};
constexpr LayerSpan kLayerSpans[] = {
    {"routing.route", true},
    {"routing.incremental.admit", true},
    {"routing.incremental.release", false},
    {"routing.incremental.reoptimize", false},
    {"netsim.sim", false},
    {"netsim.workload", false},
    {"decoder.decode", true},
    {"qec.sample_eval", false},
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void add_quality(Result& result, const Quality& q) {
  const auto add = [&](const char* name, const std::optional<double>& value) {
    // No analogue on this workload: the constant 1 (see Quality).
    if (!value) std::printf("%s n/a on this workload (reported as 1)\n", name);
    result.add(name, value.value_or(1.0), "fraction");
  };
  add("fidelity", q.fidelity);
  add("paper_throughput", q.paper_throughput);
  add("blocking_probability", q.blocking_probability);
  add("logical_error_rate", q.logical_error_rate);
  if (!q.admitted_per_slot)
    std::printf("admitted_per_slot n/a on this workload (reported as 1)\n");
  result.add("admitted_per_slot", q.admitted_per_slot.value_or(1.0),
             "admits/slot");
}

void add_counters(Result& result, const LayerCounters& c) {
  result.add("routing.lp.pivots", c.lp_pivots, "count");
  result.add("routing.lp.solves", c.lp_solves, "count");
  result.add("routing.lp.refactorizations", c.lp_refactorizations, "count");
  result.add("routing.greedy_fallbacks", c.greedy_fallbacks, "count");
  result.add("routing.codes_scheduled", c.codes_scheduled, "count");
  const std::string inc = "routing.incremental.";
  result.add(inc + "greedy_admits", c.greedy_admits, "count");
  result.add(inc + "warm_admits", c.warm_admits, "count");
  result.add(inc + "cold_admits", c.cold_admits, "count");
  result.add(inc + "lp_rejects", c.lp_rejects, "count");
  result.add(inc + "saturation_skips", c.saturation_skips, "count");
  result.add(inc + "infeasible_skips", c.infeasible_skips, "count");
  result.add(inc + "warm_solves", c.warm_solves, "count");
  result.add(inc + "cold_solves", c.cold_solves, "count");
  result.add(inc + "warm_pivots", c.warm_pivots, "count");
  result.add(inc + "cold_pivots", c.cold_pivots, "count");
  // Useful LP work: LP-sourced admits per LP solve, printed with its base.
  const double lp_admits = c.warm_admits + c.cold_admits;
  const double lp_solves = c.warm_solves + c.cold_solves;
  std::printf("lp_useful_ratio %.0f LP admits / %.0f LP solves\n", lp_admits,
              lp_solves);
  result.add(inc + "lp_useful_ratio",
             lp_solves > 0 ? lp_admits / lp_solves : 0.0, "fraction");
  result.add("netsim.sim.codes_delivered", c.codes_delivered, "count");
  result.add("netsim.sim.corrections", c.corrections, "count");
  result.add("netsim.sim.timeouts", c.timeouts, "count");
  result.add("netsim.workload.offered_per_slot", c.offered_per_slot,
             "arrivals/slot");
  const char* reasons[] = {"load", "capacity", "fidelity", "deadline"};
  for (int r = 0; r < 4; ++r)
    result.add(std::string("netsim.workload.blocked_by.") + reasons[r],
               c.blocked_by[r], "count");
}

TraceSummary summarize(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& span : spans)
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;

  TraceSummary summary;
  summary.spans = static_cast<long long>(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    const double duration_ms = (span.end_ns - span.start_ns) / 1e6;
    const double self_ms = duration_ms - child_ns[i] / 1e6;
    auto& entry = summary.by_name[span.name];
    ++entry.calls;
    entry.self_ms += self_ms;
    entry.durations_us.push_back(duration_ms * 1e3);
    if (span.parent < 0 && std::string_view(span.name) == "op") {
      summary.op_ms += duration_ms;
      summary.unattributed_ms += self_ms;
    }
  }
  return summary;
}

/// Write every span as one JSON object per line.
void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Wall seconds of a pass, host-speed samples taken inside it excluded.
double pass_wall_seconds(const PassStats& pass, const HostSpeed& host) {
  if (!pass.whole_op_latency)
    return host.work_seconds(pass.begin_ns, pass.end_ns);
  double seconds = 0.0;
  for (std::size_t i = 0; i < pass.op_begin_ns.size(); ++i)
    seconds += (pass.op_end_ns[i] - pass.op_begin_ns[i]) / 1e9;
  return seconds;
}

}  // namespace

void Result::fail(long long ops, const std::string& why) {
  failed += ops;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

Result run_workload(Workload& workload, const Options& options) {
  Result result;
  std::printf("workload %s\n", workload.describe().c_str());

  // Timings are taken in wall time and converted to reference time at the
  // end of the run, when the host-speed samples around each one are known.
  HostSpeed host;

  // Set-up runs once before pass 0 and the remaining repetitions a few
  // after each pass, in a warm process (the first repetition also pays for
  // the process's first page faults). Each is bracketed by host-speed
  // samples. The traced run traces the last one, so set-up layers
  // (topology generation) show in the per-layer metrics.
  Tracer tracer;
  std::vector<std::pair<std::int64_t, std::int64_t>> setups;
  const auto timed_setup = [&](Tracer* t) {
    host.sample();
    const std::int64_t begin = now_ns();
    {
      if (t) t->next_op();
      ScopedSpan span(t, "setup");
      workload.setup(t);
    }
    setups.emplace_back(begin, now_ns());
    host.sample();
  };
  timed_setup(nullptr);

  // A fixed number of passes, set by --seconds and the workload's nominal
  // pass time, not by how fast the passes run; the traced run alternates
  // an untraced pass with a traced one and needs at least one of each.
  //
  // Every pass replays the same inputs, so op i of one pass is the same
  // work as op i of any other. The timings keep each op's fastest replay
  // in reference time, and the fastest pass.
  const int min_passes = options.trace ? 2 : 1;
  const int planned_passes = std::max(
      min_passes,
      static_cast<int>(std::lround(options.seconds / workload.pass_seconds())));
  const double max_run_seconds = kMaxRunFactor * options.seconds;
  std::vector<PassStats> untraced;
  int traced_passes = 0;
  double best_traced_rate = 0.0;  ///< wall-clock ops per second
  int passes = 0;
  double rss_mb = 0.0;
  const std::int64_t start = now_ns();
  while (passes < planned_passes &&
         (passes < min_passes || (now_ns() - start) / 1e9 < max_run_seconds)) {
    const bool traced = options.trace && passes % 2 == 1;
    if (!traced) host.sample();
    PassStats pass = workload.run_pass(traced ? &tracer : nullptr,
                                       traced ? nullptr : &host);
    if (!traced) host.sample();
    const double wall = pass_wall_seconds(pass, host);
    std::printf("pass %d%s: %lld ops in %.6f s\n", passes,
                traced ? " (traced)" : "", pass.ops, wall);
    result.attempted += pass.ops;
    if (pass.failed > 0)
      result.fail(pass.failed, "pass " + std::to_string(passes) + ": " +
                                   std::to_string(pass.failed) +
                                   " ops failed an output check");
    if (traced) {
      ++traced_passes;
      best_traced_rate = std::max(best_traced_rate, pass.ops / wall);
    } else {
      untraced.push_back(std::move(pass));
    }
    // Memory is read after pass 0, before the harness's own bookkeeping
    // of later passes.
    if (passes == 0) rss_mb = peak_rss_mb();
    ++passes;
    // Set-up rebuilds the same inputs, so later passes still replay pass 0.
    const int setups_due =
        1 + ((kSetupRepeats - 1) * passes + planned_passes - 1) /
                planned_passes;
    while (static_cast<int>(setups.size()) < setups_due) {
      const bool last = static_cast<int>(setups.size()) == kSetupRepeats - 1;
      timed_setup(options.trace && last ? &tracer : nullptr);
    }
  }

  // Per op, the fastest replay in reference time; per pass, the rate.
  std::vector<double> best_us;
  double best_rate = 0.0, best_wall_rate = 0.0;
  for (const PassStats& pass : untraced) {
    const std::size_t n = pass.op_begin_ns.size();
    if (best_us.empty()) best_us.assign(n, HUGE_VAL);
    double scaled = 0.0;
    for (std::size_t i = 0; i < n && i < best_us.size(); ++i) {
      const std::int64_t b = pass.op_begin_ns[i], e = pass.op_end_ns[i];
      const double us = (e - b) / 1e3 * host.factor_at(b + (e - b) / 2);
      best_us[i] = std::min(best_us[i], us);
      scaled += us / 1e6;
    }
    if (!pass.whole_op_latency)
      scaled = host.scaled_seconds(pass.begin_ns, pass.end_ns);
    best_rate = std::max(best_rate, pass.ops / scaled);
    best_wall_rate =
        std::max(best_wall_rate, pass.ops / pass_wall_seconds(pass, host));
  }
  std::printf("host reference kernel median %.3f us (reference %.1f us)\n",
              host.median_kernel_us(), HostSpeed::kReferenceKernelUs);

  if (!options.trace) {
    const bool whole_op_latency =
        untraced.empty() || untraced.front().whole_op_latency;
    double best_seconds = 0.0;
    for (const double us : best_us) best_seconds += us / 1e6;
    result.add("ops_per_s",
               whole_op_latency && best_seconds > 0.0
                   ? static_cast<double>(best_us.size()) / best_seconds
                   : best_rate,
               "op/s");
    result.add("op_us_p50", percentile(best_us, 0.50), "us");
    result.add("op_us_p99", percentile(best_us, 0.99), "us");
    std::printf("op latency samples %zu (fastest of %d of %d planned "
                "replays each); fastest pass %.6g op/s in wall time\n",
                best_us.size(), passes, planned_passes, best_wall_rate);
    std::vector<double> setup_seconds;
    for (const auto& [b, e] : setups)
      setup_seconds.push_back((e - b) / 1e9 * host.factor_at(b + (e - b) / 2));
    result.add("setup_s", median(setup_seconds), "s");
    result.add("peak_rss_mb", rss_mb, "MB");
    add_quality(result, workload.quality());
    std::printf("failed_share %.17g fraction\n",
                result.attempted > 0
                    ? static_cast<double>(result.failed) / result.attempted
                    : 0.0);
    return result;
  }

  // Traced run: per-layer metrics are per traced pass.
  const TraceSummary trace = summarize(tracer);
  if (!options.spans_out.empty()) write_spans(tracer, options.spans_out);
  const double per_pass = 1.0 / traced_passes;
  for (const auto& layer : kLayerSpans) {
    const SpanTotals& totals = trace.get(layer.name);
    const std::string name = layer.name;
    const double share =
        trace.op_ms > 0.0 ? totals.self_ms / trace.op_ms : 0.0;
    result.add(name + ".calls", totals.calls * per_pass, "count");
    result.add(name + ".self_ms", totals.self_ms * per_pass, "ms");
    result.add(name + ".share", share, "fraction");
    if (layer.percentiles) {
      result.add(name + ".us_p50", percentile(totals.durations_us, 0.50),
                 "us");
      result.add(name + ".us_p99", percentile(totals.durations_us, 0.99),
                 "us");
    }
    if (totals.calls > 0)
      std::printf("layer %-32s share %6.2f%%  self %10.3f ms/pass\n",
                  layer.name, 100.0 * share, totals.self_ms * per_pass);
  }
  result.add("netsim.topology.self_ms",
             trace.get("netsim.topology").self_ms, "ms");
  add_counters(result, workload.counters());

  const double unattributed =
      trace.op_ms > 0.0 ? trace.unattributed_ms / trace.op_ms : 1.0;
  std::printf("layer %-32s share %6.2f%%\n", "unattributed",
              100.0 * unattributed);
  result.add("unattributed.share", unattributed, "fraction");
  // Fastest traced pass against fastest untraced pass, both in wall time.
  result.add("obs.trace_overhead_pct",
             100.0 * (1.0 - best_traced_rate / best_wall_rate), "%");
  result.add("obs.spans", trace.spans * per_pass, "count");
  if (1.0 - unattributed < kMinCoverage)
    result.fail(0, "layer spans cover " + std::to_string(1.0 - unattributed) +
                       " of op wall time (need >= 0.95)");
  return result;
}

void print_result(const Result& result) {
  for (const auto& m : result.metrics)
    std::printf("metric %-44s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
