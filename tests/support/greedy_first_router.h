#pragma once

// The incremental admit ladder in its original greedy-first order: plan on
// the live tracker, and only when that fails look up the (src, dst)
// commodity and read its permanent noise-infeasibility flag. Commodities
// live in a linearly scanned list, release() clears every saturated flag,
// and planning uses reference_plan_code. It is a test oracle, not library
// code: routing_tests drives it and routing::IncrementalRouter (which
// checks the flag first) through the same streams and requires identical
// admit/block sequences and Stats.

#include <optional>
#include <vector>

#include "netsim/workload.h"
#include "routing/formulation.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "routing/simplex.h"

namespace surfnet::routing {

class GreedyFirstRouter final : public netsim::RouteProvider {
 public:
  GreedyFirstRouter(const netsim::Topology& topology,
                    const RoutingParams& params);

  std::optional<netsim::AdmittedRoute> admit(int src, int dst,
                                             int codes) override;
  void release(const netsim::AdmittedRoute& route) override;
  double reoptimize() override;
  void set_noise_scale(double scale) override;

  const CapacityTracker& tracker() const { return tracker_; }
  /// The topology as currently measured (scaled inside a degradation
  /// window): what every planning call of this router sees.
  const netsim::Topology& routing_topology() const {
    return noise_scale_ == 1.0 ? *topology_ : scaled_;
  }
  const IncrementalRouter::Stats& stats() const { return stats_; }

 private:
  struct Commodity {
    int src = -1;
    int dst = -1;
    bool saturated = false;
    bool infeasible = false;
    std::optional<RoutingFormulation> formulation;
    SimplexState state;
  };

  int commodity_index(int src, int dst);
  void sync_capacities(RoutingFormulation& formulation);
  std::optional<netsim::AdmittedRoute> lp_admit(int commodity, int codes);
  double node_demand_for(int distance) const {
    return distance > 0 ? RoutingParams::total_qubits_for(distance)
                        : params_.total_qubits();
  }
  double pair_demand_for(int distance) const {
    return distance > 0 ? RoutingParams::core_qubits_for(distance)
                        : params_.core_qubits;
  }

  const netsim::Topology* topology_;
  RoutingParams params_;
  CapacityTracker tracker_;
  CapacityTracker pristine_;
  netsim::Topology scaled_;
  double noise_scale_ = 1.0;
  std::vector<Commodity> commodities_;
  IncrementalRouter::Stats stats_;
};

}  // namespace surfnet::routing
