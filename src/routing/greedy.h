#pragma once

// Greedy, capacity-aware scheduling used three ways:
//   * as the rounding top-up after the LP relaxation (paper Sec. V-A uses
//     "a relaxed Linear Programming version with rounding"),
//   * as the standalone hierarchical scheduler (paper Sec. V-B notes
//     SurfNet can operate without the centralized protocol), and
//   * as the executor for the Raw baseline when configured single-channel.
//
// One code at a time, the scheduler finds the minimum-noise path between
// the request's users through switches/servers with remaining storage (and,
// on the dual channel, remaining entangled pairs), schedules error
// correction at as many on-path servers as the noise budget allows, checks
// the Eq. (6) thresholds, and commits the resources.

#include <optional>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::routing {

/// Mutable remaining-resource view of a topology.
class CapacityTracker {
 public:
  CapacityTracker(const netsim::Topology& topology,
                  const RoutingParams& params);

  double node_remaining(int node) const {
    SURFNET_EXPECTS(node >= 0 &&
                    static_cast<std::size_t>(node) < node_capacity_.size());
    return node_capacity_[static_cast<std::size_t>(node)];
  }
  double fiber_pairs_remaining(int fiber) const {
    SURFNET_EXPECTS(fiber >= 0 &&
                    static_cast<std::size_t>(fiber) < fiber_pairs_.size());
    return fiber_pairs_[static_cast<std::size_t>(fiber)];
  }

  /// Can one more code travel this path? (storage at every intermediate
  /// node, pairs on every fiber when dual-channel). The overloads with
  /// explicit demands serve codes of non-default distance.
  bool path_feasible(const std::vector<int>& path) const;
  bool path_feasible(const std::vector<int>& path, double node_demand,
                     double pair_demand) const;

  /// Commit one code's resources along the path.
  void commit(const std::vector<int>& path);
  void commit(const std::vector<int>& path, double node_demand,
              double pair_demand);

  /// Return one code's resources: the exact inverse of the matching
  /// commit. The dynamic-traffic path calls this when an admitted request
  /// departs; releasing a path that was never committed corrupts the
  /// tracker (capacities overflow their configured ceilings).
  void release(const std::vector<int>& path);
  void release(const std::vector<int>& path, double node_demand,
               double pair_demand);

  /// Variants for codes whose Core and Support parts take different routes
  /// (LP rounding): Core qubits consume storage and pairs along core_path,
  /// Support qubits consume storage along support_path. core_path may be
  /// empty (Raw).
  bool split_feasible(const std::vector<int>& core_path,
                      const std::vector<int>& support_path) const;
  void commit_split(const std::vector<int>& core_path,
                    const std::vector<int>& support_path);

 private:
  const netsim::Topology* topology_;
  RoutingParams params_;
  std::vector<double> node_capacity_;
  std::vector<double> fiber_pairs_;
};

/// Result of planning a single code.
struct PlannedCode {
  std::vector<int> path;        ///< node sequence src..dst
  std::vector<int> ec_servers;  ///< chosen EC servers, in path order
  /// Code distance chosen for this code (0 = the configuration default;
  /// set when RoutingParams::adaptive_code_distance is enabled).
  int distance = 0;
};

/// Distance selection for the adaptive-code-size extension: the residual
/// noise a route leaves after its corrections decides how much protection
/// the code needs.
int adaptive_distance(double residual_noise);

/// Threshold-check one concrete path against the normalized Eq. (6)
/// bounds: schedules as many EC stops as the noise budget allows and
/// returns the planned code, or nullopt when the residual noise exceeds
/// the thresholds. Capacity is NOT checked here — pair with
/// CapacityTracker::path_feasible. Used by plan_code internally and by
/// the incremental router to vet LP-decomposed candidate paths.
std::optional<PlannedCode> check_path(const netsim::Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path);

/// Load-independent certificate that (src, dst) is unroutable: true only
/// when check_path rejects every src -> dst path whose interior nodes are
/// switches or servers, whatever capacity is left. Every path plan_code
/// can return is such a path, so a true result means plan_code fails on
/// any tracker over `topology`. It is a lower bound on noise, not a
/// search: a Dijkstra over (node, set of servers passed) gives the least
/// noise mu of any walk through s distinct servers, and the pair is ruled
/// out when, for every s, even that mu with all s corrections applied
/// exceeds the Eq. (6) thresholds (at the most tolerant adaptive
/// distance). The comparisons are check_path's own expressions, so the
/// certificate holds in floating point, not only in exact arithmetic.
/// False (no certificate) is always safe; it is returned for topologies
/// with more than 10 servers, negative or NaN fiber noise, or negative
/// qubit counts.
///
/// With a residual filter the certificate is load-dependent: the search
/// also skips every interior node with less than `node_demand` storage
/// left on `tracker`, and on the dual channel every step u -> v whose
/// fiber_between(u, v) has fewer than `pair_demand` pairs left. Pass the
/// smallest per-code demands a route could commit; then a true result
/// means no path both passes check_path and fits
/// CapacityTracker::path_feasible at any distance check_path can choose.
struct ResidualFilter {
  const CapacityTracker* tracker = nullptr;  ///< nullptr = no filter
  double node_demand = 0.0;
  double pair_demand = 0.0;
};
bool no_path_can_pass(const netsim::Topology& topology,
                      const RoutingParams& params, int src, int dst,
                      const ResidualFilter& residual = {});

/// Find the minimum-noise feasible path for one code of (src, dst), or
/// nullopt when no path satisfies capacity and the noise thresholds.
std::optional<PlannedCode> plan_code(const netsim::Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst);

/// Schedule every request greedily (requests visited in random order, codes
/// one by one). Both paths of a dual-channel request use the same route.
netsim::Schedule route_greedy(const netsim::Topology& topology,
                              const std::vector<netsim::Request>& requests,
                              const RoutingParams& params, util::Rng& rng);

}  // namespace surfnet::routing
