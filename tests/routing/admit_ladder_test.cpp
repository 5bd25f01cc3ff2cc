// The certified-first admit ladder (routing/incremental.h) against the
// oracles it replaced (tests/support):
//
//   * plan_code — one Dijkstra per distinct leg and a per-call fiber-noise
//     memo — returns bitwise the PlannedCode of reference_plan_code on
//     partially committed trackers;
//   * no_path_can_pass never certifies a pair that some simple path
//     passes (exhaustive enumeration on small topologies);
//   * with a residual filter on a partly committed tracker, it never
//     certifies a pair that some simple path passes and fits;
//   * IncrementalRouter, which rejects certified pairs before planning
//     and skips LP assists the residual certificate rules out, makes
//     bitwise the admit/block decisions of GreedyFirstRouter, which plans
//     on the live tracker before reading any flag and solves every
//     assist, on random 24- and 48-node streams with and without
//     degradation windows; both premises (a certified pair has no live
//     plan; a residually certified admit admits nothing) hold at every
//     admit;
//   * the pristine-plan flag is not such a certificate: pinned streams
//     where greedy admits a pair whose pristine plan fails;
//   * the planner's work counters ("route.greedy.dijkstras",
//     "route.greedy.relaxations") are pinned for one fixed stream.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/surfnet.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/metrics.h"
#include "proptest.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "support/greedy_first_router.h"
#include "support/reference_plan_code.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

using netsim::AdmittedRoute;
using netsim::Topology;

void expect_plans_equal(const std::optional<PlannedCode>& got,
                        const std::optional<PlannedCode>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->path, want->path);
  EXPECT_EQ(got->ec_servers, want->ec_servers);
  EXPECT_EQ(got->distance, want->distance);
}

/// Random routing configuration over the traffic scenarios' parameters.
RoutingParams random_params(util::Rng& rng) {
  const auto level = proptest::pick(
      rng, std::vector<core::FacilityLevel>{
               core::FacilityLevel::Abundant, core::FacilityLevel::Sufficient,
               core::FacilityLevel::Insufficient});
  const auto quality = proptest::chance(rng, 0.5)
                           ? core::ConnectionQuality::Good
                           : core::ConnectionQuality::Poor;
  RoutingParams params = core::make_traffic_scenario(level, quality).routing;
  params.dual_channel = proptest::chance(rng, 0.75);
  params.adaptive_code_distance = proptest::chance(rng, 0.5);
  return params;
}

// ---------------------------------------------------------------------------
// plan_code vs the pre-memo planner.

TEST(PlanCodeOracle, MatchesReferenceOnPartiallyCommittedTrackers) {
  int plans = 0;
  int failures = 0;
  int detours = 0;
  proptest::check("plan_code_matches_reference", {.iterations = 24},
                  [&](util::Rng& rng) {
    netsim::TopologySpec spec;
    spec.num_nodes = proptest::pick(rng, std::vector<int>{24, 48});
    spec.num_servers = proptest::pick(rng, std::vector<int>{3, 5});
    spec.fidelity_lo = proptest::real_in(rng, 0.5, 0.9);
    const Topology topology = netsim::make_random_topology(spec, rng);
    const RoutingParams params = random_params(rng);
    const auto users = topology.users();
    ASSERT_GE(users.size(), 2u);

    // Commit a random prefix of greedy plans so later plans see a
    // partially drained network, comparing every plan on the way.
    CapacityTracker tracker(topology, params);
    const int requests = proptest::int_in(rng, 10, 60);
    for (int r = 0; r < requests; ++r) {
      const int src = proptest::pick(rng, users);
      const int dst = proptest::pick(rng, users);
      if (src == dst) continue;
      const auto got = plan_code(topology, tracker, params, src, dst);
      const auto want =
          reference_plan_code(topology, tracker, params, src, dst);
      expect_plans_equal(got, want);
      if (::testing::Test::HasFailure()) return;
      ++plans;
      if (!got) {
        ++failures;
        continue;
      }
      if (got->path.size() > 2 && !got->ec_servers.empty()) ++detours;
      if (tracker.path_feasible(got->path)) tracker.commit(got->path);
    }
  });
  // The comparison covered both outcomes.
  EXPECT_GT(plans, 0);
  EXPECT_GT(failures, 0);
  EXPECT_GT(detours, 0);
}

// ---------------------------------------------------------------------------
// no_path_can_pass vs exhaustive path enumeration.

/// Per-code demands of a code of `distance` (0 = configuration default).
double node_demand_for(const RoutingParams& params, int distance) {
  return distance > 0 ? RoutingParams::total_qubits_for(distance)
                      : params.total_qubits();
}
double pair_demand_for(const RoutingParams& params, int distance) {
  return distance > 0 ? RoutingParams::core_qubits_for(distance)
                      : params.core_qubits;
}

/// The residual filter IncrementalRouter hands no_path_can_pass before an
/// LP assist: the smallest per-code demands a route could commit.
ResidualFilter residual_filter(const CapacityTracker& tracker,
                               const RoutingParams& params, int codes) {
  const int smallest = params.adaptive_code_distance ? 3 : 0;
  return {&tracker, node_demand_for(params, smallest) * codes,
          pair_demand_for(params, smallest) * codes};
}

/// Does any simple src -> dst path through switches/servers pass
/// check_path (and, given a tracker, fit `codes` codes of the distance
/// check_path chose)? Depth-first over every such path.
bool some_path_passes(const Topology& topology, const RoutingParams& params,
                      int src, int dst,
                      const CapacityTracker* tracker = nullptr,
                      int codes = 1) {
  auto passes = [&](const std::vector<int>& path) {
    const auto plan = check_path(topology, params, path);
    return plan.has_value() &&
           (tracker == nullptr ||
            tracker->path_feasible(
                path, node_demand_for(params, plan->distance) * codes,
                pair_demand_for(params, plan->distance) * codes));
  };
  std::vector<int> path{src};
  std::vector<char> on_path(static_cast<std::size_t>(topology.num_nodes()),
                            0);
  on_path[static_cast<std::size_t>(src)] = 1;
  std::function<bool()> extend = [&]() {
    const int u = path.back();
    for (int e : topology.incident(u)) {
      const int v = topology.other_end(e, u);
      if (on_path[static_cast<std::size_t>(v)]) continue;
      if (v == dst) {
        path.push_back(v);
        const bool found = passes(path);
        path.pop_back();
        if (found) return true;
        continue;
      }
      if (!topology.is_switch_or_server(v)) continue;
      path.push_back(v);
      on_path[static_cast<std::size_t>(v)] = 1;
      const bool found = extend();
      on_path[static_cast<std::size_t>(v)] = 0;
      path.pop_back();
      if (found) return true;
    }
    return false;
  };
  return extend();
}

TEST(NoPathCanPass, CertifiedPairsHaveNoPassingPath) {
  long long certified = 0;
  long long unroutable = 0;
  // With the residual filter on a partly committed tracker: certified
  // pairs, and of those the ones the pristine certificate misses.
  long long residual_certified = 0;
  long long load_certified = 0;
  long long unfit = 0;
  proptest::check("no_path_can_pass_is_sound", {.iterations = 300},
                  [&](util::Rng& rng) {
    netsim::TopologySpec spec;
    spec.num_nodes = proptest::int_in(rng, 9, 13);
    spec.num_servers = proptest::int_in(rng, 1, 4);
    spec.num_switches = proptest::int_in(rng, 2, 4);
    spec.fidelity_lo = proptest::real_in(rng, 0.4, 0.9);
    const Topology topology = netsim::make_random_topology(spec, rng);
    const RoutingParams params = random_params(rng);
    const auto users = topology.users();
    for (const int src : users)
      for (const int dst : users) {
        if (src == dst) continue;
        const bool passes = some_path_passes(topology, params, src, dst);
        const bool certificate = no_path_can_pass(topology, params, src, dst);
        if (!passes) ++unroutable;
        if (!certificate) continue;
        ++certified;
        ASSERT_FALSE(passes) << "certified pair " << src << "->" << dst
                             << " has a path that passes Eq. (6)";
      }

    // Drain the network with greedy plans of random pairs, committed at
    // their chosen distance, then certify again against what is left.
    CapacityTracker tracker(topology, params);
    const int requests = proptest::int_in(rng, 5, 40);
    for (int r = 0; r < requests; ++r) {
      const int src = proptest::pick(rng, users);
      const int dst = proptest::pick(rng, users);
      if (src == dst) continue;
      const auto plan = plan_code(topology, tracker, params, src, dst);
      if (!plan) continue;
      const int codes = proptest::int_in(rng, 1, 3);
      const double node_demand =
          node_demand_for(params, plan->distance) * codes;
      const double pair_demand =
          pair_demand_for(params, plan->distance) * codes;
      if (tracker.path_feasible(plan->path, node_demand, pair_demand))
        tracker.commit(plan->path, node_demand, pair_demand);
    }
    for (const int src : users)
      for (const int dst : users) {
        if (src == dst) continue;
        const int codes = proptest::int_in(rng, 1, 2);
        const bool passes =
            some_path_passes(topology, params, src, dst, &tracker, codes);
        if (!passes) ++unfit;
        if (!no_path_can_pass(topology, params, src, dst,
                              residual_filter(tracker, params, codes)))
          continue;
        ++residual_certified;
        if (!no_path_can_pass(topology, params, src, dst)) ++load_certified;
        ASSERT_FALSE(passes)
            << "residually certified pair " << src << "->" << dst << " ("
            << codes << " codes) has a path that passes Eq. (6) and fits";
      }
  });
  // Not vacuous, and not a restatement of the enumeration either: the
  // certificate is a bound, so it misses some unroutable pairs.
  EXPECT_GT(certified, 0);
  EXPECT_LT(certified, unroutable);
  // The residual filter certified pairs the load-independent certificate
  // cannot, and is still only a bound.
  EXPECT_GT(load_certified, 0);
  EXPECT_LT(residual_certified, unfit);
}

// ---------------------------------------------------------------------------
// Certified-first ladder vs the greedy-first oracle.

/// One provider call as the traffic engine made it.
struct Decision {
  int src = 0;
  int dst = 0;
  int codes = 0;
  std::optional<AdmittedRoute> route;
};

/// Forwards every RouteProvider call to `router` and logs the admits;
/// `before_admit(src, dst, codes)` runs ahead of each forwarded admit.
template <typename Router>
class Recording final : public netsim::RouteProvider {
 public:
  explicit Recording(Router& router,
                     std::function<void(int, int, int)> before_admit = {})
      : router_(router), before_admit_(std::move(before_admit)) {}

  std::optional<AdmittedRoute> admit(int src, int dst, int codes) override {
    if (before_admit_) before_admit_(src, dst, codes);
    auto route = router_.admit(src, dst, codes);
    log.push_back({src, dst, codes, route});
    return route;
  }
  void release(const AdmittedRoute& route) override {
    router_.release(route);
  }
  double reoptimize() override { return router_.reoptimize(); }
  void set_noise_scale(double scale) override {
    router_.set_noise_scale(scale);
  }

  std::vector<Decision> log;

 private:
  Router& router_;
  std::function<void(int, int, int)> before_admit_;
};

// Case seeds of random_stream where greedy admits a pair whose pristine
// plan fails (PristinePlanFailureIsNotACertificate).
constexpr std::uint64_t kFixedDistanceMissSeed = 15693844527472246649ULL;
constexpr std::uint64_t kAdaptiveDistanceMissSeed = 12511073493850131815ULL;

/// The router against the oracle. Every rung counts the same, except that
/// an assist the residual certificate rejects is an LP reject in the
/// oracle, which solved it. So the router solves no more often, and the
/// Warm/Cold split of LP admits may move: a commodity whose earlier
/// assists were all certified cold-solves on its first real solve.
void expect_stats_agree(const IncrementalRouter::Stats& router,
                        const IncrementalRouter::Stats& oracle) {
  EXPECT_EQ(router.greedy_admits, oracle.greedy_admits);
  EXPECT_EQ(router.warm_admits + router.cold_admits,
            oracle.warm_admits + oracle.cold_admits);
  EXPECT_EQ(router.residual_skips + router.lp_rejects, oracle.lp_rejects);
  EXPECT_EQ(router.saturation_skips, oracle.saturation_skips);
  EXPECT_EQ(router.infeasible_skips, oracle.infeasible_skips);
  EXPECT_EQ(router.profile_changes, oracle.profile_changes);
  EXPECT_LE(router.cold_solves + router.warm_solves,
            oracle.cold_solves + oracle.warm_solves);
}

bool lp_sourced(const AdmittedRoute& route) {
  return route.source != netsim::AdmitSource::Greedy;
}

void expect_logs_equal(const std::vector<Decision>& got,
                       const std::vector<Decision>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "admit call " << i);
    const auto& a = got[i];
    const auto& b = want[i];
    ASSERT_EQ(a.src, b.src);
    ASSERT_EQ(a.dst, b.dst);
    ASSERT_EQ(a.codes, b.codes);
    ASSERT_EQ(a.route.has_value(), b.route.has_value());
    if (!a.route) continue;
    EXPECT_EQ(a.route->path, b.route->path);
    EXPECT_EQ(a.route->ec_servers, b.route->ec_servers);
    EXPECT_EQ(a.route->noise, b.route->noise);  // bitwise
    EXPECT_EQ(a.route->codes, b.route->codes);
    EXPECT_EQ(a.route->distance, b.route->distance);
    EXPECT_EQ(lp_sourced(*a.route), lp_sourced(*b.route));
    if (::testing::Test::HasFailure()) return;
  }
}

/// One random traffic stream: a 24- or 48-node topology, a routing
/// configuration, and a workload that, half the time, opens a noise
/// degradation window mid-stream.
struct Stream {
  Topology topology;
  RoutingParams params;
  netsim::WorkloadParams workload;
  std::uint64_t seed = 0;  ///< arrival-stream seed
};

Stream random_stream(util::Rng& rng) {
  netsim::TopologySpec spec;
  spec.num_nodes = proptest::pick(rng, std::vector<int>{24, 48});
  spec.fidelity_lo = proptest::real_in(rng, 0.5, 0.9);
  Stream stream{netsim::make_random_topology(spec, rng), random_params(rng),
                {}, 0};
  auto& workload = stream.workload;
  workload.arrival_rate = proptest::real_in(rng, 0.5, 2.0);
  workload.max_requests = proptest::int_in(rng, 300, 900);
  workload.horizon_slots = 100000;
  workload.reoptimize_every = 64;
  workload.classes = {{.weight = 3.0, .codes = 1},
                      {.weight = 1.0, .codes = 2}};
  if (proptest::chance(rng, 0.5)) {
    workload.degrade_from_slot = proptest::int_in(rng, 20, 150);
    workload.degrade_until_slot =
        workload.degrade_from_slot + proptest::int_in(rng, 20, 200);
    workload.degrade_noise_scale = proptest::real_in(rng, 1.3, 3.0);
  }
  stream.seed = rng();
  return stream;
}

/// Greedy admits on the live tracker: a plan that also fits it. A live
/// plan alone is not enough: a detour may pass a server with no storage
/// left (a leg's endpoint is never capacity-filtered), and such a plan
/// fails the fit check and falls through to the rest of the ladder.
bool greedy_admits(const GreedyFirstRouter& oracle,
                   const RoutingParams& params, int src, int dst,
                   int codes) {
  const auto live = reference_plan_code(oracle.routing_topology(),
                                        oracle.tracker(), params, src, dst);
  if (!live) return false;
  return oracle.tracker().path_feasible(
      live->path, node_demand_for(params, live->distance) * codes,
      pair_demand_for(params, live->distance) * codes);
}

/// Admits for which greedy succeeds on the live tracker although the
/// pair's pristine plan fails, over the greedy-first oracle's run of
/// `stream`.
int pristine_flag_misses(const Stream& stream) {
  GreedyFirstRouter oracle(stream.topology, stream.params);
  const CapacityTracker pristine(stream.topology, stream.params);
  int misses = 0;
  Recording<GreedyFirstRouter> provider(
      oracle, [&](int src, int dst, int codes) {
        if (greedy_admits(oracle, stream.params, src, dst, codes) &&
            !reference_plan_code(oracle.routing_topology(), pristine,
                                 stream.params, src, dst))
          ++misses;
      });
  util::Rng rng(stream.seed);
  netsim::run_traffic(stream.topology, provider, stream.workload, rng);
  return misses;
}

/// Runs `stream` through the greedy-first oracle and the router and
/// expects identical provider calls, routes and results, and agreeing
/// Stats (expect_stats_agree). Before every oracle admit it checks both
/// premises of the router's reorder on the oracle's live tracker: a pair
/// the load-independent certificate rules out under the current noise
/// profile has no plan, and a pair the residual certificate rules out is
/// not admitted at all (a greedy admit's path would survive the filter
/// too). Returns the router's Stats; `certified` counts the first premise
/// checks, `residual_certified` the second.
IncrementalRouter::Stats expect_ladders_agree(const Stream& stream,
                                              long long& certified,
                                              long long& residual_certified) {
  const auto& params = stream.params;
  GreedyFirstRouter oracle(stream.topology, params);
  std::vector<char> residually_certified;
  Recording<GreedyFirstRouter> expected(
      oracle, [&](int src, int dst, int codes) {
        residually_certified.push_back(no_path_can_pass(
            oracle.routing_topology(), params, src, dst,
            residual_filter(oracle.tracker(), params, codes)));
        if (!no_path_can_pass(oracle.routing_topology(), params, src, dst))
          return;
        ++certified;
        EXPECT_FALSE(reference_plan_code(oracle.routing_topology(),
                                         oracle.tracker(), params, src, dst)
                         .has_value())
            << "certified pair " << src << "->" << dst
            << " has a plan on the live tracker";
      });
  util::Rng oracle_rng(stream.seed);
  const auto want = netsim::run_traffic(stream.topology, expected,
                                        stream.workload, oracle_rng);
  for (std::size_t i = 0; i < expected.log.size(); ++i) {
    if (!residually_certified[i]) continue;
    ++residual_certified;
    EXPECT_FALSE(expected.log[i].route.has_value())
        << "admit call " << i << ": residually certified pair "
        << expected.log[i].src << "->" << expected.log[i].dst
        << " was admitted";
  }

  IncrementalRouter router(stream.topology, params);
  Recording<IncrementalRouter> actual(router);
  util::Rng router_rng(stream.seed);
  const auto got = netsim::run_traffic(stream.topology, actual,
                                       stream.workload, router_rng);

  expect_logs_equal(actual.log, expected.log);
  expect_stats_agree(router.stats(), oracle.stats());
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.blocked, want.blocked);
  EXPECT_EQ(got.last_slot, want.last_slot);
  EXPECT_EQ(router_rng(), oracle_rng());
  return router.stats();
}

TEST(AdmitLadder, CertifiedFirstMatchesTheGreedyFirstOracle) {
  IncrementalRouter::Stats total;
  long long certified = 0;
  long long residual_certified = 0;
  proptest::check("certified_first_matches_greedy_first",
                  {.iterations = 32}, [&](util::Rng& rng) {
    const auto s = expect_ladders_agree(random_stream(rng), certified,
                                        residual_certified);
    total.greedy_admits += s.greedy_admits;
    total.warm_admits += s.warm_admits + s.cold_admits;
    total.infeasible_skips += s.infeasible_skips;
    total.unroutable_skips += s.unroutable_skips;
    total.saturation_skips += s.saturation_skips;
    total.residual_skips += s.residual_skips;
    total.lp_rejects += s.lp_rejects;
    total.profile_changes += s.profile_changes;
  });
  // Every rung of the ladder was exercised, and the certificate rejected
  // most infeasible arrivals before any search.
  EXPECT_EQ(certified, total.unroutable_skips);
  EXPECT_GT(total.unroutable_skips, total.infeasible_skips / 2);
  EXPECT_LT(total.unroutable_skips, total.infeasible_skips);
  EXPECT_GT(total.greedy_admits, 0);
  EXPECT_GT(total.warm_admits, 0);
  EXPECT_GT(total.saturation_skips, 0);
  EXPECT_GT(total.residual_skips, 0);
  EXPECT_GT(total.lp_rejects, 0);
  EXPECT_GT(total.profile_changes, 0);
  // The residual certificate also fires ahead of admits the router never
  // takes to the LP rung (an unroutable pair, say), so it fired at least
  // as often as the router skipped on it.
  EXPECT_GE(residual_certified, total.residual_skips);
}

TEST(AdmitLadder, PristinePlanFailureIsNotACertificate) {
  // Why the pristine-plan flag is read only after greedy: plan_code is a
  // heuristic (minimum-noise legs, simple composites only) and check_path
  // is not monotone in noise, so greedy on a partly loaded network can
  // admit a pair whose pristine plan fails. Reading that flag first would
  // block these admits. Streams found by the property above, one with
  // fixed and one with adaptive code distance; the router must still
  // match the oracle on them.
  for (const std::uint64_t seed :
       {kFixedDistanceMissSeed, kAdaptiveDistanceMissSeed}) {
    SCOPED_TRACE(::testing::Message() << "stream seed " << seed);
    util::Rng rng(seed);
    const Stream stream = random_stream(rng);
    EXPECT_GT(pristine_flag_misses(stream), 0);
    long long certified = 0;
    long long residual_certified = 0;
    expect_ladders_agree(stream, certified, residual_certified);
  }
}

// ---------------------------------------------------------------------------
// Work counters.

TEST(AdmitLadder, GreedyWorkCountersArePinnedForAFixedStream) {
  // bench_traffic's rate2.0_n48 topology and stream, cut to 2000
  // arrivals, with the router kept for its stats.
  core::TrafficScenario scenario = core::make_traffic_scenario(
      core::FacilityLevel::Sufficient, core::ConnectionQuality::Good);
  scenario.topology.num_nodes = 48;
  scenario.workload.arrival_rate = 2.0;
  scenario.workload.max_requests = 2000;
  obs::MetricsRegistry metrics;
  RoutingParams params = scenario.routing;
  params.sink.metrics = &metrics;
  util::Rng rng(20240607);
  const auto topology = netsim::make_random_topology(scenario.topology, rng);
  IncrementalRouter router(topology, params);
  const auto result =
      netsim::run_traffic(topology, router, scenario.workload, rng);
  ASSERT_EQ(result.arrivals, 2000);
  EXPECT_EQ(result.admitted, 227);
  EXPECT_EQ(router.stats().infeasible_skips, 1292);
  EXPECT_EQ(router.stats().unroutable_skips, 1255);
  EXPECT_EQ(metrics.counter("route.greedy.dijkstras"), 8674);
  EXPECT_EQ(metrics.counter("route.greedy.relaxations"), 147954);
}

TEST(AdmitLadder, FailingPlanSearchesEachServerLegOnce) {
  // user(0) - sw(1) - user(2), servers 3, 4, 5 hanging off the switch.
  // Every fiber is so noisy that no route passes Eq. (6), and every
  // detour revisits the switch, so the plan fails after trying them all.
  std::vector<netsim::Node> nodes(6);
  nodes[1] = {netsim::NodeRole::Switch, 1000};
  for (int s : {3, 4, 5}) nodes[static_cast<std::size_t>(s)] =
      {netsim::NodeRole::Server, 1000};
  std::vector<netsim::Fiber> fibers{{0, 1, 0.3, 50}, {1, 2, 0.3, 50},
                                    {1, 3, 0.3, 50}, {1, 4, 0.3, 50},
                                    {1, 5, 0.3, 50}};
  const Topology topology(std::move(nodes), std::move(fibers));
  RoutingParams params;
  const CapacityTracker tracker(topology, params);
  ASSERT_FALSE(reference_plan_code(topology, tracker, params, 0, 2));

  // The direct search, then per server its (src -> server) leg and its
  // two (server -> other) legs: 1 + 3 * 3, plus the three
  // (server -> dst) legs once each — 13 searches where the pre-memo
  // planner ran 1 + 3 * (2 + 2 * 2) = 19.
  obs::MetricsRegistry metrics;
  params.sink.metrics = &metrics;
  EXPECT_FALSE(plan_code(topology, tracker, params, 0, 2));
  EXPECT_EQ(metrics.counter("route.greedy.dijkstras"), 13);
  EXPECT_GT(metrics.counter("route.greedy.relaxations"), 0);

  // Without a sink nothing is counted anywhere.
  params.sink.metrics = nullptr;
  EXPECT_FALSE(plan_code(topology, tracker, params, 0, 2));
  EXPECT_EQ(metrics.counter("route.greedy.dijkstras"), 13);
}

}  // namespace
}  // namespace surfnet::routing
