// Incremental router (routing/incremental.h) and batch route()
// (routing/router.h) tests.
//
// The incremental contract: admit() commits exactly what release()
// returns, the greedy fast path keeps the LP untouched while capacity
// lasts, an assist no path left can serve is rejected without a solve,
// warm-started assists need strictly fewer simplex iterations than the
// cold solves that precede them, and a saturated commodity is rejected
// without another solve until capacity comes back.
// reoptimize() is a read of the live tracker: it runs no LP and changes
// nothing a later admit can see.
//
// The route() fallback contract: an LP that does not reach Optimal yields
// exactly one greedy run — the schedule and the RNG position of
// route_greedy called from the same state — and one
// "route.greedy_fallbacks" count.

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/metrics.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "routing/router.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

using netsim::Fiber;
using netsim::Node;
using netsim::NodeRole;
using netsim::Topology;

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (the golden_trace_test.cpp shape).
Topology ring_topology(double fidelity = 0.95) {
  std::vector<Node> nodes(6);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  nodes[5] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                            {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                            {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

struct TrackerSnapshot {
  std::vector<double> nodes;
  std::vector<double> fibers;
};

TrackerSnapshot snapshot(const Topology& topology,
                         const CapacityTracker& tracker) {
  TrackerSnapshot snap;
  for (int v = 0; v < topology.num_nodes(); ++v)
    snap.nodes.push_back(tracker.node_remaining(v));
  for (int e = 0; e < topology.num_fibers(); ++e)
    snap.fibers.push_back(tracker.fiber_pairs_remaining(e));
  return snap;
}

TEST(IncrementalRouter, AdmitReleaseRoundtripRestoresTracker) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);
  const auto before = snapshot(topology, router.tracker());

  std::vector<netsim::AdmittedRoute> held;
  for (const auto& [src, dst, codes] :
       {std::tuple{0, 4, 1}, {4, 0, 2}, {0, 4, 1}}) {
    auto route = router.admit(src, dst, codes);
    ASSERT_TRUE(route.has_value());
    held.push_back(*route);
  }
  // Resources are actually held while the requests are live.
  const auto during = snapshot(topology, router.tracker());
  EXPECT_NE(before.nodes, during.nodes);

  // Release out of admission order: the tracker is a bag, not a stack.
  router.release(held[1]);
  router.release(held[0]);
  router.release(held[2]);
  const auto after = snapshot(topology, router.tracker());
  EXPECT_EQ(before.nodes, after.nodes);
  EXPECT_EQ(before.fibers, after.fibers);
}

TEST(IncrementalRouter, GreedyFastPathLeavesTheLpUntouched) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);
  for (int i = 0; i < 3; ++i) {
    const auto route = router.admit(0, 4, 1);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->source, netsim::AdmitSource::Greedy);
    EXPECT_EQ(route->path.front(), 0);
    EXPECT_EQ(route->path.back(), 4);
  }
  EXPECT_EQ(router.stats().greedy_admits, 3);
  EXPECT_EQ(router.stats().cold_solves, 0);
  EXPECT_EQ(router.stats().warm_solves, 0);
}

/// Two routes from user 0 to user 4: the short 0 - sw(1) - 4, whose
/// switch stores exactly one default-size code, and the longer
/// 0 - sw(2) - sw(3) - 4 with room for many. Every fiber carries 50
/// pairs (seven codes of core_qubits=7). A two-code request fails greedy,
/// which takes the short route and finds it too small, while the long
/// route can still carry it: the LP assist runs and admits there.
Topology two_route_topology() {
  std::vector<Node> nodes(5);
  nodes[1] = {NodeRole::Switch, 25};
  nodes[2] = {NodeRole::Switch, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, 0.97, 50}, {1, 4, 0.97, 50},
                            {0, 2, 0.97, 50}, {2, 3, 0.97, 50},
                            {3, 4, 0.97, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

/// Drive the ring to saturation on the (0, 4) commodity: both routes share
/// the end fibers, which carry 50 pairs at core_qubits=7 per code, so after
/// seven admits nothing fits. No path left can carry a code, so the failed
/// admit is rejected on the residual certificate without an LP solve.
TEST(IncrementalRouter, SaturationIsSkippedUntilCapacityReturns) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);

  std::vector<netsim::AdmittedRoute> held;
  while (true) {
    auto route = router.admit(0, 4, 1);
    if (!route) break;
    held.push_back(*route);
    ASSERT_LT(held.size(), 200u) << "the ring never saturated";
  }
  ASSERT_EQ(held.size(), 7u);
  // The failed admit was certified without a solve and marked the
  // commodity saturated, as an LP reject would have.
  EXPECT_EQ(router.stats().residual_skips, 1);
  EXPECT_EQ(router.stats().lp_rejects, 0);
  EXPECT_EQ(router.stats().cold_solves + router.stats().warm_solves, 0);

  // Further admits for the saturated commodity skip even the certificate.
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_EQ(router.stats().saturation_skips, 2);
  EXPECT_EQ(router.stats().residual_skips, 1);

  // A release clears the flag and the freed capacity admits again.
  router.release(held.back());
  held.pop_back();
  const auto again = router.admit(0, 4, 1);
  ASSERT_TRUE(again.has_value());
}

TEST(IncrementalRouter, WarmSolvesNeedFewerIterationsThanCold) {
  const auto topology = two_route_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);

  // The first two-code request builds the commodity's formulation and
  // solves it cold; the next two warm-start from its basis. Each admits
  // on the long route, whose end fibers then hold 50 - 3 * 14 = 8 pairs:
  // too few for two more codes anywhere, so the fourth request is
  // certified without a solve.
  std::vector<netsim::AdmitSource> sources;
  for (int request = 0; request < 3; ++request) {
    const auto route = router.admit(0, 4, 2);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->path, (std::vector<int>{0, 2, 3, 4}));
    sources.push_back(route->source);
  }
  EXPECT_EQ(sources,
            (std::vector<netsim::AdmitSource>{netsim::AdmitSource::Cold,
                                              netsim::AdmitSource::Warm,
                                              netsim::AdmitSource::Warm}));
  EXPECT_FALSE(router.admit(0, 4, 2).has_value());
  EXPECT_EQ(router.stats().residual_skips, 1);
  ASSERT_EQ(router.stats().cold_solves, 1);
  ASSERT_EQ(router.stats().warm_solves, 2);
  ASSERT_GT(router.stats().cold_iterations, 0);

  const double cold_per_solve =
      static_cast<double>(router.stats().cold_iterations) /
      router.stats().cold_solves;
  const double warm_per_solve =
      static_cast<double>(router.stats().warm_iterations) /
      router.stats().warm_solves;
  EXPECT_LT(warm_per_solve, cold_per_solve)
      << "warm-started solves should re-use the basis, not re-derive it";
}

/// reoptimize()'s headroom as a direct tracker read: free storage summed
/// over nodes, in default-size codes.
double tracker_headroom(const Topology& topology,
                        const CapacityTracker& tracker,
                        const RoutingParams& params) {
  double free_qubits = 0.0;
  for (int v = 0; v < topology.num_nodes(); ++v)
    free_qubits += std::max(0.0, tracker.node_remaining(v));
  return free_qubits / params.total_qubits();
}

TEST(IncrementalRouter, ReoptimizeIsATrackerReadWithNoSideEffects) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);

  // Fresh router: the headroom is the whole network's storage.
  const double fresh = router.reoptimize();
  EXPECT_EQ(fresh, tracker_headroom(topology, router.tracker(), params));
  EXPECT_GT(fresh, 0.0);

  // An admit holds storage and lowers the headroom; the matching release
  // restores it bitwise.
  const auto route = router.admit(0, 4, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_LT(router.reoptimize(), fresh);
  router.release(*route);
  EXPECT_EQ(router.reoptimize(), fresh);

  // Saturate the ring: the failed admit is certified without a solve and
  // marks the commodity saturated.
  while (router.admit(0, 4, 1)) {
  }
  ASSERT_EQ(router.stats().residual_skips, 1);
  const auto stats = router.stats();
  const auto tracker = snapshot(topology, router.tracker());

  // reoptimize() solves nothing and leaves the tracker alone...
  router.reoptimize();
  router.reoptimize();
  EXPECT_EQ(router.stats().cold_solves, stats.cold_solves);
  EXPECT_EQ(router.stats().warm_solves, stats.warm_solves);
  EXPECT_EQ(router.stats().cold_iterations, stats.cold_iterations);
  EXPECT_EQ(router.stats().warm_iterations, stats.warm_iterations);
  const auto after = snapshot(topology, router.tracker());
  EXPECT_EQ(after.nodes, tracker.nodes);
  EXPECT_EQ(after.fibers, tracker.fibers);

  // ...and keeps the saturated flag: the next admit is still an O(1) skip.
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_EQ(router.stats().saturation_skips, stats.saturation_skips + 1);
  EXPECT_EQ(router.stats().lp_rejects, stats.lp_rejects);
  EXPECT_EQ(router.stats().cold_solves + router.stats().warm_solves,
            stats.cold_solves + stats.warm_solves);
}

// ---------------------------------------------------------------------------
// Adaptive code selection and the noise-profile seam.

TEST(IncrementalRouter, AdaptiveAdmitCommitsDistanceScaledCapacity) {
  const auto topology = ring_topology(0.97);  // clean: residual under 0.10
  RoutingParams params;
  IncrementalRouter fixed(topology, params);
  params.adaptive_code_distance = true;
  IncrementalRouter adaptive(topology, params);
  const auto before = snapshot(topology, adaptive.tracker());

  const auto route = adaptive.admit(0, 4, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->distance, 3);
  const auto fixed_route = fixed.admit(0, 4, 1);
  ASSERT_TRUE(fixed_route.has_value());
  EXPECT_EQ(fixed_route->distance, 0);

  // The compact distance-3 code holds strictly less storage than the
  // configuration-default code the fixed router commits.
  double adaptive_held = 0.0;
  double fixed_held = 0.0;
  for (int v = 0; v < topology.num_nodes(); ++v) {
    adaptive_held += before.nodes[static_cast<std::size_t>(v)] -
                     adaptive.tracker().node_remaining(v);
    fixed_held += before.nodes[static_cast<std::size_t>(v)] -
                  fixed.tracker().node_remaining(v);
  }
  EXPECT_GT(adaptive_held, 0.0);
  EXPECT_LT(adaptive_held, fixed_held);

  // Release keyed by the recorded distance restores the tracker exactly.
  adaptive.release(*route);
  const auto after = snapshot(topology, adaptive.tracker());
  EXPECT_EQ(before.nodes, after.nodes);
  EXPECT_EQ(before.fibers, after.fibers);
}

TEST(IncrementalRouter, NoiseScaleEscalatesDistanceAndReleaseStaysExact) {
  const auto topology = ring_topology(0.97);
  RoutingParams params;
  params.adaptive_code_distance = true;
  IncrementalRouter router(topology, params);
  const auto before = snapshot(topology, router.tracker());

  const auto clean = router.admit(0, 4, 1);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->distance, 3);

  // A degradation window opens: every fiber measures as fidelity^2, the
  // residual noise crosses the distance-4 band, and the route reports the
  // scaled noise.
  router.set_noise_scale(2.0);
  EXPECT_EQ(router.noise_scale(), 2.0);
  EXPECT_EQ(router.stats().profile_changes, 1);
  const auto degraded = router.admit(0, 4, 1);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->distance, 4);
  EXPECT_GT(degraded->noise, clean->noise);

  // The window closes; releases still return exactly what each admit
  // committed, keyed by the distance recorded on the route — not by the
  // profile in force at release time.
  router.set_noise_scale(1.0);
  EXPECT_EQ(router.stats().profile_changes, 2);
  router.release(*degraded);
  router.release(*clean);
  const auto after = snapshot(topology, router.tracker());
  EXPECT_EQ(before.nodes, after.nodes);
  EXPECT_EQ(before.fibers, after.fibers);
}

TEST(IncrementalRouter, NoiseScaleRevalidatesInfeasibleCommodities) {
  const auto topology = ring_topology(0.97);
  RoutingParams params;
  params.adaptive_code_distance = true;
  IncrementalRouter router(topology, params);

  // Under a 4x noise profile no candidate path passes the Eq. (6)
  // thresholds at any distance: the commodity is marked infeasible and
  // further admits are O(1) skips.
  router.set_noise_scale(4.0);
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_EQ(router.stats().infeasible_skips, 2);

  // "Infeasible, never cleared" is scoped to one profile: restoring the
  // clean measurement re-runs the check and the pair routes again.
  router.set_noise_scale(1.0);
  const auto route = router.admit(0, 4, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->distance, 3);
}

// ---------------------------------------------------------------------------
// route() greedy fallback.

void expect_schedules_equal(const netsim::Schedule& a,
                            const netsim::Schedule& b) {
  EXPECT_EQ(a.requested_codes, b.requested_codes);
  ASSERT_EQ(a.scheduled.size(), b.scheduled.size());
  for (std::size_t i = 0; i < a.scheduled.size(); ++i) {
    const auto& x = a.scheduled[i];
    const auto& y = b.scheduled[i];
    EXPECT_EQ(x.request_index, y.request_index);
    EXPECT_EQ(x.codes, y.codes);
    EXPECT_EQ(x.core_path, y.core_path);
    EXPECT_EQ(x.support_path, y.support_path);
    EXPECT_EQ(x.ec_servers, y.ec_servers);
    EXPECT_EQ(x.code_distance, y.code_distance);
  }
}

struct Instance {
  Topology topology;
  std::vector<netsim::Request> requests;
};

Instance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  netsim::TopologySpec spec;  // paper-sized Barabasi-Albert defaults
  Instance instance{netsim::make_random_topology(spec, rng),
                    {}};
  instance.requests =
      netsim::random_requests(instance.topology, 6, 3, rng);
  return instance;
}

// One case per instance seed, so a seed whose LP happens to reach Optimal
// fails on its own instead of hiding the seeds after it.
class RouteFallback : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteFallback, NonOptimalLpMakesOneGreedyRun) {
  const std::uint64_t seed = GetParam();
  const auto instance = random_instance(seed);
  // A NaN threshold puts NaN coefficients in the Eq. (6) noise rows, so
  // the simplex ends Unbounded or IterationLimit on these instances: the
  // numerical failure the fallback serves.
  RoutingParams params;
  params.core_noise_threshold = std::numeric_limits<double>::quiet_NaN();
  obs::MetricsRegistry metrics;
  params.sink.metrics = &metrics;

  util::Rng rng_route(seed * 31 + 1);
  util::Rng rng_greedy(seed * 31 + 1);
  const auto routed =
      route(instance.topology, instance.requests, params, rng_route);
  ASSERT_NE(routed.status, LpStatus::Optimal);

  const auto greedy = route_greedy(instance.topology, instance.requests,
                                   params, rng_greedy);
  EXPECT_TRUE(routed.greedy_fallback);
  EXPECT_EQ(metrics.counter("route.greedy_fallbacks"), 1);
  expect_schedules_equal(routed.schedule, greedy);
  // One greedy run: both streams stand at the same position.
  EXPECT_EQ(rng_route(), rng_greedy());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteFallback,
                         ::testing::Values(1ULL, 5ULL, 42ULL, 99ULL));

TEST(RouteNoFallback, OptimalLpKeepsItsRoundedSchedule) {
  // The same instances under the default thresholds: the LP reaches
  // Optimal, so route() neither flags nor counts a fallback and reports
  // the relaxed optimum, which bounds the integral schedule.
  for (const std::uint64_t seed : {1ULL, 5ULL, 42ULL, 99ULL}) {
    const auto instance = random_instance(seed);
    RoutingParams params;
    obs::MetricsRegistry metrics;
    params.sink.metrics = &metrics;
    util::Rng rng(seed * 31 + 1);
    const auto routed =
        route(instance.topology, instance.requests, params, rng);
    ASSERT_EQ(routed.status, LpStatus::Optimal) << "seed " << seed;
    EXPECT_FALSE(routed.greedy_fallback) << "seed " << seed;
    EXPECT_EQ(metrics.counter("route.greedy_fallbacks"), 0)
        << "seed " << seed;
    EXPECT_GT(routed.cold_iterations, 0) << "seed " << seed;
    EXPECT_LE(routed.schedule.scheduled_codes(),
              routed.lp_objective + 1e-6)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace surfnet::routing
