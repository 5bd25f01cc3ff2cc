// batch_pipeline: the paper's method end to end. One op is one paper
// trial, the steps of core::run_trial for the SurfNet design: route a
// random Barabasi-Albert network's batch of 6 requests with routing::route
// (Auto: LP relaxation plus rounding, greedy fallback), then execute the
// schedule on the event engine with the SurfNet Decoder at d=4. Ops cycle
// through the six facility x quality scenarios of Fig. 6(a)/7.
//
// The topology and the request batch are the op's inputs: set-up draws
// them from the seed exactly as run_trial does and keeps the RNG state, so
// the op continues the same random stream. Pass 0 re-runs its first ops
// through core::run_trial and must match bitwise.

#include <cstdio>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "harness.h"
#include "netsim/event_simulator.h"
#include "obs/metrics.h"
#include "routing/router.h"
#include "timed_decoder.h"

namespace perfbench {

namespace {

using namespace surfnet;

/// Trials per pass, 400 per scenario: enough distinct networks that the
/// pass-0 quality metrics and the latency tail are steady from seed to
/// seed, few enough that a run replays each of them several times.
constexpr int kOpsPerPass = 2400;
/// Nominal pass time (a pass takes 9-11 s on one core of a 4-vCPU x86-64
/// host): 3 passes at --seconds 30.
constexpr double kPassSeconds = 10.0;
/// Ops of pass 0 re-run through core::run_trial (one per scenario).
constexpr int kFacadeChecks = 6;

struct Input {
  int scenario = 0;
  std::uint64_t seed = 0;
  netsim::Topology topology;
  std::vector<netsim::Request> requests;
  util::Rng rng;  ///< stream state after topology and requests
};

/// Everything an op produces that must replay bitwise.
struct Outcome {
  double fidelity = 0.0;
  double latency = 0.0;
  double throughput = 0.0;
  int requested = 0;
  int scheduled = 0;
  int delivered = 0;
  int succeeded = 0;
  int corrections = 0;
  int timeouts = 0;
  bool operator==(const Outcome&) const = default;
};

/// Eq. (3)/(5) check of a schedule from outside the router: every path is
/// a src..dst walk over existing fibers, no request gets more codes than
/// it asked for, and the storage each node holds and the entangled pairs
/// each fiber carries stay within the topology's capacities (the demand
/// model of routing::CapacityTracker, dual channel).
bool schedule_fits(const netsim::Topology& topology,
                   const std::vector<netsim::Request>& requests,
                   const routing::RoutingParams& params,
                   const netsim::Schedule& schedule) {
  const auto is_walk = [&](const std::vector<int>& path, int src, int dst) {
    if (path.size() < 2 || path.front() != src || path.back() != dst)
      return false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      if (topology.fiber_between(path[i], path[i + 1]) < 0) return false;
    return true;
  };
  std::vector<double> storage(static_cast<std::size_t>(topology.num_nodes()));
  std::vector<double> pairs(static_cast<std::size_t>(topology.num_fibers()));
  std::vector<int> granted(requests.size(), 0);
  for (const auto& s : schedule.scheduled) {
    if (s.request_index < 0 ||
        s.request_index >= static_cast<int>(requests.size()) || s.codes < 1)
      return false;
    const auto& request = requests[static_cast<std::size_t>(s.request_index)];
    granted[static_cast<std::size_t>(s.request_index)] += s.codes;
    if (!is_walk(s.support_path, request.src, request.dst)) return false;
    if (!s.core_path.empty() && !is_walk(s.core_path, request.src, request.dst))
      return false;
    double core_unit = params.core_qubits;
    double support_unit = params.support_qubits;
    if (s.code_distance > 0) {
      core_unit = routing::RoutingParams::core_qubits_for(s.code_distance);
      support_unit =
          routing::RoutingParams::total_qubits_for(s.code_distance) -
          (s.core_path.empty() ? 0.0 : core_unit);
    }
    for (std::size_t i = 1; i + 1 < s.support_path.size(); ++i)
      storage[static_cast<std::size_t>(s.support_path[i])] +=
          support_unit * s.codes;
    for (std::size_t i = 1; i + 1 < s.core_path.size(); ++i)
      storage[static_cast<std::size_t>(s.core_path[i])] += core_unit * s.codes;
    for (std::size_t i = 0; i + 1 < s.core_path.size(); ++i)
      pairs[static_cast<std::size_t>(
          topology.fiber_between(s.core_path[i], s.core_path[i + 1]))] +=
          core_unit * s.codes;
  }
  constexpr double kTol = 1e-6;
  for (std::size_t k = 0; k < requests.size(); ++k)
    if (granted[k] > requests[k].codes) return false;
  for (int v = 0; v < topology.num_nodes(); ++v)
    if (storage[static_cast<std::size_t>(v)] >
        topology.node(v).storage_capacity + kTol)
      return false;
  for (int e = 0; e < topology.num_fibers(); ++e)
    if (pairs[static_cast<std::size_t>(e)] >
        topology.fiber(e).entanglement_capacity + kTol)
      return false;
  return true;
}

class BatchPipeline final : public Workload {
 public:
  explicit BatchPipeline(const Options& options)
      : seed_(options.seed),
        timed_(decoder_),
        simulator_(netsim::make_simulator(netsim::NetworkDesign::SurfNet,
                                          timed_, netsim::SimEngine::Event)) {
    for (const auto level :
         {core::FacilityLevel::Abundant, core::FacilityLevel::Sufficient,
          core::FacilityLevel::Insufficient})
      for (const auto quality :
           {core::ConnectionQuality::Good, core::ConnectionQuality::Poor}) {
        auto params = core::make_scenario(level, quality);
        params.routing.dual_channel = true;  // the SurfNet design
        scenarios_.push_back(params);
      }
  }

  std::string describe() const override {
    return "batch_pipeline[surfnet_d4_requests6_scenarios6_ops" +
           std::to_string(kOpsPerPass) + "]";
  }
  double pass_seconds() const override { return kPassSeconds; }

  void setup(Tracer* tracer) override {
    inputs_.clear();
    inputs_.reserve(kOpsPerPass);
    util::Rng seeder(seed_);
    for (int i = 0; i < kOpsPerPass; ++i) {
      Input input;
      input.scenario = i % static_cast<int>(scenarios_.size());
      input.seed = seeder();
      input.rng = util::Rng(input.seed);
      const auto& params = scenarios_[static_cast<std::size_t>(input.scenario)];
      ScopedSpan span(tracer, "netsim.topology");
      input.topology = netsim::make_random_topology(params.topology, input.rng);
      input.requests = netsim::random_requests(
          input.topology, params.num_requests, params.max_codes_per_request,
          input.rng);
      inputs_.push_back(std::move(input));
    }
  }

  PassStats run_pass(Tracer* tracer, HostSpeed* host) override {
    PassStats stats;
    timed_.attach(tracer);
    obs::MetricsRegistry registry;
    LayerCounters counters;
    std::vector<Outcome> outcomes;
    outcomes.reserve(inputs_.size());
    for (const auto& input : inputs_) {
      const auto& params = scenarios_[static_cast<std::size_t>(input.scenario)];
      routing::RoutingParams routing = params.routing;
      if (tracer) routing.sink.metrics = &registry;
      util::Rng rng = input.rng;

      tick(host);
      if (tracer) tracer->next_op();
      const std::int64_t begin = now_ns();
      routing::RouteResult routed;
      netsim::SimulationResult sim;
      {
        ScopedSpan op(tracer, "op");
        {
          ScopedSpan span(tracer, "routing.route");
          routed = routing::route(input.topology, input.requests, routing, rng);
        }
        ScopedSpan span(tracer, "netsim.sim");
        sim = simulator_->run(input.topology, routed.schedule,
                              params.simulation, rng);
      }
      stats.add_op(begin, now_ns());
      ++stats.ops;

      Outcome outcome;
      outcome.fidelity = sim.fidelity();
      outcome.latency = sim.avg_latency();
      outcome.throughput = routed.schedule.throughput();
      outcome.requested = routed.schedule.requested_codes;
      outcome.scheduled = routed.schedule.scheduled_codes();
      outcome.delivered = sim.codes_delivered;
      outcome.succeeded = sim.codes_succeeded;
      for (const auto& code : sim.codes) {
        outcome.corrections += code.corrections;
        if (code.outcome == netsim::CodeOutcome::TimedOut) ++outcome.timeouts;
      }
      const bool fits = schedule_fits(input.topology, input.requests, routing,
                                      routed.schedule) &&
                        sim.codes_delivered <= sim.codes_scheduled &&
                        sim.codes_scheduled == outcome.scheduled;
      const bool replays =
          reference_.empty() || reference_[outcomes.size()] == outcome;
      if (!fits || !replays) ++stats.failed;
      outcomes.push_back(outcome);

      counters.lp_pivots +=
          static_cast<double>(routed.cold_iterations + routed.warm_iterations);
      counters.greedy_fallbacks += routed.greedy_fallback ? 1 : 0;
      counters.codes_scheduled += outcome.scheduled;
      counters.codes_delivered += outcome.delivered;
      counters.corrections += outcome.corrections;
      counters.timeouts += outcome.timeouts;
    }
    timed_.attach(nullptr);

    if (reference_.empty()) {
      reference_ = outcomes;
      stats.failed += check_facade();
    }
    if (tracer) {
      counters.lp_solves = static_cast<double>(registry.counter("lp.solves"));
      counters.lp_refactorizations =
          static_cast<double>(registry.counter("lp.refactorizations"));
      counters_ = counters;
    }
    return stats;
  }

  Quality quality() const override {
    double fidelity = 0.0, throughput = 0.0;
    long long with_delivery = 0, requested = 0, scheduled = 0, delivered = 0,
              succeeded = 0;
    for (const auto& o : reference_) {
      // Paper aggregation (core::run_trials): fidelity averages over trials
      // that delivered something, throughput over every trial.
      if (o.delivered > 0) {
        fidelity += o.fidelity;
        ++with_delivery;
      }
      throughput += o.throughput;
      requested += o.requested;
      scheduled += o.scheduled;
      delivered += o.delivered;
      succeeded += o.succeeded;
    }
    Quality q;
    q.fidelity = with_delivery > 0 ? fidelity / with_delivery : 0.0;
    q.paper_throughput =
        reference_.empty() ? 0.0 : throughput / reference_.size();
    q.blocking_probability =
        requested > 0 ? 1.0 - static_cast<double>(scheduled) / requested : 0.0;
    q.logical_error_rate =
        delivered > 0 ? static_cast<double>(delivered - succeeded) / delivered
                      : 0.0;
    return q;
  }

  LayerCounters counters() const override { return counters_; }

 private:
  /// Replay the first ops through the library's own trial facade; each
  /// mismatch counts as a failed op.
  long long check_facade() const {
    long long mismatches = 0;
    for (int i = 0; i < kFacadeChecks && i < kOpsPerPass; ++i) {
      const auto& input = inputs_[static_cast<std::size_t>(i)];
      const auto& o = reference_[static_cast<std::size_t>(i)];
      const auto facade = core::run_trial(
          scenarios_[static_cast<std::size_t>(input.scenario)],
          core::NetworkDesign::SurfNet, input.seed);
      if (facade.fidelity != o.fidelity || facade.latency != o.latency ||
          facade.throughput != o.throughput ||
          facade.codes_scheduled != o.scheduled ||
          facade.codes_delivered != o.delivered) {
        std::fprintf(stderr, "op %d differs from core::run_trial\n", i);
        ++mismatches;
      }
    }
    return mismatches;
  }

  std::uint64_t seed_;
  std::vector<core::ScenarioParams> scenarios_;
  decoder::SurfNetDecoder decoder_;
  TimedDecoder timed_;
  std::unique_ptr<netsim::Simulator> simulator_;
  std::vector<Input> inputs_;
  std::vector<Outcome> reference_;  ///< pass 0, replayed by later passes
  LayerCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_batch_pipeline(const Options& options) {
  return std::make_unique<BatchPipeline>(options);
}

}  // namespace perfbench
