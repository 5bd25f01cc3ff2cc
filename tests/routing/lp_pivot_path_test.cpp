// Exact work-counter pin of the simplex pivot path.
//
// The solver's pivot sequence is deterministic: route()'s first solve
// runs the primal simplex from the formulation's min-noise crash basis,
// and every warm re-solve runs the dual phase from the previous optimal
// basis before the primal loop certifies the result. The per-pivot
// kernels skip only exact zeros and identity etas, so for that sequence
// the refactorization count, the eta file and the returned LpSolution are
// bitwise fixed, and this test pins them: it routes the six Fig. 6(a)/7
// scenarios over Barabasi-Albert networks drawn exactly as core::run_trial
// draws them (both the SurfNet and the Raw formulation), plus one
// dynamic-traffic stream whose greedy-first oracle router (tests/support)
// consults the LP assist on every admit greedy cannot serve, and compares
// the summed solver counters, the scheduled codes and a hash of every
// solve's objective bits with recorded constants. Any change that moves a
// single pivot fails here; a change that is meant to move pivots must
// re-record the work constants and hashes and justify every scheduled-code,
// admit and block delta. The shipped IncrementalRouter skips the assists
// its residual certificate rules out, so its own solve count on the same
// stream is pinned apart.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/surfnet.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/formulation.h"
#include "routing/incremental.h"
#include "routing/router.h"
#include "routing/simplex.h"
#include "support/greedy_first_router.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

// Recorded with the crash-started first solve, the dual re-solve phase and
// the unit-column-first refactorization.
constexpr std::int64_t kBatchSolves = 462;
constexpr std::int64_t kBatchIterations = 13743;
constexpr std::int64_t kBatchRefactorizations = 922;
constexpr std::int64_t kBatchEtaNonzeros = 1298445;
constexpr std::uint64_t kBatchObjectiveHash = 0x46f6b49fa632d7dcULL;
constexpr long long kBatchScheduledCodes = 2096;

constexpr int kStreamRequests = 3000;
constexpr std::int64_t kStreamSolves = 1622;
constexpr std::int64_t kStreamIterations = 5192;
constexpr std::int64_t kStreamRefactorizations = 2219;
constexpr std::int64_t kStreamEtaNonzeros = 573549;
constexpr std::uint64_t kStreamObjectiveHash = 0x71a695e82c5053beULL;
constexpr long long kStreamAdmitted = 254;
// The same stream through IncrementalRouter: LP solves it still runs and
// assists its residual certificate rejected without one.
constexpr std::int64_t kRouterStreamSolves = 24;
constexpr long long kRouterStreamResidualSkips = 1598;

struct PivotPath {
  std::int64_t solves = 0;
  std::int64_t iterations = 0;
  std::int64_t refactorizations = 0;
  std::int64_t eta_nonzeros = 0;
  std::uint64_t objective_hash = 0;
};

/// FNV-1a over the bit patterns of every lp_solve event's objective, in
/// solve order.
std::uint64_t objective_hash(const obs::TraceBuffer& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& event : trace.events()) {
    if (event.kind != obs::EventKind::LpSolve) continue;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &event.value, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

PivotPath read_path(const obs::MetricsRegistry& metrics,
                    const obs::TraceBuffer& trace) {
  PivotPath path;
  path.solves = metrics.counter("lp.solves");
  path.iterations = metrics.counter("lp.iterations");
  path.refactorizations = metrics.counter("lp.refactorizations");
  path.eta_nonzeros = metrics.counter("lp.eta_nonzeros");
  path.objective_hash = objective_hash(trace);
  return path;
}

void expect_path(const PivotPath& got, const PivotPath& want) {
  EXPECT_EQ(got.solves, want.solves);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.refactorizations, want.refactorizations);
  EXPECT_EQ(got.eta_nonzeros, want.eta_nonzeros);
  EXPECT_EQ(got.objective_hash, want.objective_hash)
      << "objective hash 0x" << std::hex << got.objective_hash;
}

/// Calls visit(topology, requests, params, rng) for every batch scenario:
/// the six Fig. 6(a)/7 scenarios x {SurfNet, Raw} x seeds 1..20.
template <typename Visit>
void for_each_batch_scenario(Visit&& visit) {
  for (const auto level :
       {core::FacilityLevel::Abundant, core::FacilityLevel::Sufficient,
        core::FacilityLevel::Insufficient})
    for (const auto quality :
         {core::ConnectionQuality::Good, core::ConnectionQuality::Poor})
      for (const bool dual_channel : {true, false})
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
          const auto scenario = core::make_scenario(level, quality);
          util::Rng rng(seed);
          const auto topology =
              netsim::make_random_topology(scenario.topology, rng);
          const auto requests = netsim::random_requests(
              topology, scenario.num_requests,
              scenario.max_codes_per_request, rng);
          RoutingParams params = scenario.routing;
          params.dual_channel = dual_channel;
          visit(topology, requests, params, rng);
        }
}

TEST(LpPivotPath, BatchRouteLpOverTheFigureScenariosIsPinned) {
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  long long scheduled = 0;
  for_each_batch_scenario([&](const netsim::Topology& topology,
                              const std::vector<netsim::Request>& requests,
                              RoutingParams params, util::Rng& rng) {
    params.sink = obs::Sink{&metrics, &trace};
    scheduled += route(topology, requests, params, rng)
                     .schedule.scheduled_codes();
  });
  expect_path(read_path(metrics, trace),
              {kBatchSolves, kBatchIterations, kBatchRefactorizations,
               kBatchEtaNonzeros, kBatchObjectiveHash});
  EXPECT_EQ(scheduled, kBatchScheduledCodes);
}

TEST(LpPivotPath, CrashStartReachesTheSlackBasisOptimum) {
  // The min-noise crash basis must install (it is nonsingular) and lead
  // the primal simplex to the optimum a slack-basis start reaches.
  int solves = 0;
  for_each_batch_scenario([&](const netsim::Topology& topology,
                              const std::vector<netsim::Request>& requests,
                              const RoutingParams& params, util::Rng&) {
    const RoutingFormulation formulation(topology, requests, params);
    SimplexState crash =
        basis_from_rows(formulation.problem(), formulation.crash_rows());
    const LpSolution crashed = solve_lp(formulation.problem(), crash);
    const LpSolution slack = solve_lp(formulation.problem());
    ASSERT_EQ(crashed.status, LpStatus::Optimal);
    ASSERT_EQ(slack.status, LpStatus::Optimal);
    EXPECT_TRUE(crashed.warm_started);
    EXPECT_NEAR(crashed.objective, slack.objective,
                1e-9 * std::max(1.0, std::abs(slack.objective)));
    ++solves;
  });
  EXPECT_EQ(solves, 240);
}

/// bench_traffic's rate2.0_n24 cell, shortened: the greedy fast path
/// fails often enough here that the LP assist runs cold and warm solves.
core::TrafficScenario assist_stream_scenario() {
  auto scenario = core::make_traffic_scenario(core::FacilityLevel::Sufficient,
                                              core::ConnectionQuality::Good);
  scenario.topology.num_nodes = 24;
  scenario.workload.arrival_rate = 2.0;
  scenario.workload.max_requests = kStreamRequests;
  scenario.workload.horizon_slots = kStreamRequests * 2 + 100000;
  scenario.workload.warmup_slots = 500;
  return scenario;
}

/// core::run_traffic_trial's steps with `Router` as the provider; returns
/// the stream's result and the router's stats.
template <typename Router>
std::pair<netsim::TrafficResult, IncrementalRouter::Stats> run_assist_stream(
    const obs::Sink& sink) {
  const auto scenario = assist_stream_scenario();
  util::Rng rng(20240607);
  const auto topology = netsim::make_random_topology(scenario.topology, rng);
  RoutingParams routing = scenario.routing;
  routing.sink = sink;
  Router provider(topology, routing);
  netsim::WorkloadParams workload = scenario.workload;
  workload.sink = sink;
  auto result = netsim::run_traffic(topology, provider, workload, rng);
  return {std::move(result), provider.stats()};
}

TEST(LpPivotPath, IncrementalLpAssistStreamIsPinned) {
  // The greedy-first oracle solves every assist greedy leaves over, so its
  // pivot path is the one the stream pinned before the residual
  // certificate existed.
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  const auto result =
      run_assist_stream<GreedyFirstRouter>(obs::Sink{&metrics, &trace}).first;
  expect_path(read_path(metrics, trace),
              {kStreamSolves, kStreamIterations, kStreamRefactorizations,
               kStreamEtaNonzeros, kStreamObjectiveHash});
  EXPECT_EQ(result.admitted, kStreamAdmitted);
}

TEST(LpPivotPath, IncrementalRouterSolvesOnlyUncertifiedAssists) {
  obs::MetricsRegistry metrics;
  const auto [result, stats] =
      run_assist_stream<IncrementalRouter>(obs::Sink{&metrics});
  EXPECT_EQ(metrics.counter("lp.solves"), kRouterStreamSolves);
  EXPECT_EQ(stats.warm_solves + stats.cold_solves, kRouterStreamSolves);
  EXPECT_EQ(stats.residual_skips, kRouterStreamResidualSkips);
  EXPECT_EQ(metrics.counter("route.incremental.residual"),
            kRouterStreamResidualSkips);
  EXPECT_EQ(result.admitted, kStreamAdmitted);
}

}  // namespace
}  // namespace surfnet::routing
