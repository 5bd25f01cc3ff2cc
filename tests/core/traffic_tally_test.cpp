// Committed dynamic-traffic tallies (extended tier).
//
// Replays the four rate x size cells of bench_traffic at its default seed
// through the same steps as core::run_traffic_trial, keeping the
// IncrementalRouter in hand so its admit sources can be checked. The
// admitted/blocked split, the router's greedy/warm/cold admit counts, its
// LP solves and its residual-certificate skips are pinned exactly: the
// bench's CI gate checks only requests_per_sec, so without this test a
// routing change could move the committed tallies, or the LP work behind
// them, unnoticed.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/surfnet.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "routing/incremental.h"
#include "util/rng.h"

namespace surfnet::core {
namespace {

constexpr std::uint64_t kBenchSeed = 20240607;  // bench_traffic's default

struct CellTally {
  std::string name;
  int nodes = 0;
  double rate = 0.0;
  long long admitted = 0;
  long long blocked = 0;
  long long greedy_admits = 0;
  long long warm_admits = 0;
  long long cold_admits = 0;
  long long lp_solves = 0;
  long long residual_skips = 0;
};

TEST(TrafficTally, BenchCellsMatchTheCommittedTallies) {
  const std::vector<CellTally> cells{
      {"rate0.5_n24", 24, 0.5, 7287, 12713, 7229, 54, 4, 210, 5758},
      {"rate2.0_n24", 24, 2.0, 1591, 18409, 1546, 41, 4, 140, 10653},
      {"rate0.5_n48", 48, 0.5, 6229, 13771, 6229, 0, 0, 2, 962},
      {"rate2.0_n48", 48, 2.0, 2158, 17842, 2158, 0, 0, 7, 4995},
  };
  for (const auto& cell : cells) {
    SCOPED_TRACE(cell.name);
    // bench_traffic's run_cell scenario for an uncapped cell.
    TrafficScenario scenario = make_traffic_scenario(
        FacilityLevel::Sufficient, ConnectionQuality::Good);
    scenario.topology.num_nodes = cell.nodes;
    scenario.workload.arrival_rate = cell.rate;
    scenario.workload.max_requests = 20000;
    scenario.workload.horizon_slots =
        static_cast<int>(20000 / cell.rate) * 4 + 100000;
    scenario.workload.warmup_slots = 500;

    // run_traffic_trial's steps, with the router kept for its stats.
    util::Rng rng(kBenchSeed);
    const auto topology =
        netsim::make_random_topology(scenario.topology, rng);
    routing::IncrementalRouter router(topology, scenario.routing);
    const auto result = netsim::run_traffic(topology, router,
                                            scenario.workload, rng);

    EXPECT_EQ(result.arrivals, 20000);
    EXPECT_EQ(result.admitted, cell.admitted);
    EXPECT_EQ(result.blocked, cell.blocked);
    EXPECT_EQ(router.stats().greedy_admits, cell.greedy_admits);
    EXPECT_EQ(router.stats().warm_admits, cell.warm_admits);
    EXPECT_EQ(router.stats().cold_admits, cell.cold_admits);
    EXPECT_EQ(router.stats().warm_solves + router.stats().cold_solves,
              cell.lp_solves);
    EXPECT_EQ(router.stats().residual_skips, cell.residual_skips);
  }
}

}  // namespace
}  // namespace surfnet::core
