#include "support/greedy_first_router.h"

#include <algorithm>
#include <cmath>

#include "netsim/channel.h"
#include "routing/flow.h"
#include "support/reference_plan_code.h"

namespace surfnet::routing {

using netsim::AdmitSource;
using netsim::AdmittedRoute;

namespace {
constexpr double kCodeEps = 1e-4;
}  // namespace

GreedyFirstRouter::GreedyFirstRouter(const netsim::Topology& topology,
                                     const RoutingParams& params)
    : topology_(&topology),
      params_(params),
      tracker_(topology, params),
      pristine_(topology, params) {}

int GreedyFirstRouter::commodity_index(int src, int dst) {
  for (std::size_t k = 0; k < commodities_.size(); ++k)
    if (commodities_[k].src == src && commodities_[k].dst == dst)
      return static_cast<int>(k);
  Commodity commodity;
  commodity.src = src;
  commodity.dst = dst;
  commodity.infeasible =
      !reference_plan_code(routing_topology(), pristine_, params_, src, dst)
           .has_value();
  commodities_.push_back(std::move(commodity));
  return static_cast<int>(commodities_.size()) - 1;
}

void GreedyFirstRouter::sync_capacities(RoutingFormulation& formulation) {
  for (int v = 0; v < topology_->num_nodes(); ++v)
    formulation.set_storage_capacity(
        v, std::max(0.0, tracker_.node_remaining(v)));
  for (int e = 0; e < topology_->num_fibers(); ++e)
    formulation.set_entanglement_capacity(
        e, std::max(0.0, tracker_.fiber_pairs_remaining(e)));
}

std::optional<AdmittedRoute> GreedyFirstRouter::lp_admit(int commodity,
                                                         int codes) {
  Commodity& c = commodities_[static_cast<std::size_t>(commodity)];
  if (!c.formulation.has_value()) {
    const std::vector<netsim::Request> requests{
        netsim::Request{c.src, c.dst, 1}};
    c.formulation.emplace(routing_topology(), requests, params_);
    c.state.clear();
  }
  c.formulation->set_request_limit(0, static_cast<double>(codes));
  sync_capacities(*c.formulation);
  const LpSolution solution =
      solve_lp(c.formulation->problem(), c.state, params_.sink);
  if (solution.warm_started) {
    ++stats_.warm_solves;
    stats_.warm_iterations += solution.iterations;
  } else {
    ++stats_.cold_solves;
    stats_.cold_iterations += solution.iterations;
  }
  if (solution.status != LpStatus::Optimal) return std::nullopt;

  const auto& vars = c.formulation->vars(0);
  const double y = solution.x[static_cast<std::size_t>(vars.y)];
  if (y < 1.0 - kCodeEps) return std::nullopt;

  const double support_unit = params_.dual_channel
                                  ? params_.support_qubits
                                  : params_.total_qubits();
  const int de_count = c.formulation->num_directed_edges();
  std::vector<double> flow(static_cast<std::size_t>(de_count), 0.0);
  for (int de = 0; de < de_count; ++de) {
    const int vb = vars.b[static_cast<std::size_t>(de)];
    if (vb >= 0)
      flow[static_cast<std::size_t>(de)] =
          solution.x[static_cast<std::size_t>(vb)] / support_unit;
  }
  auto paths = decompose_flow(*c.formulation, topology_->num_nodes(),
                              std::move(flow), c.src, c.dst);
  std::stable_sort(paths.begin(), paths.end(),
                   [](const FlowPath& a, const FlowPath& b) {
                     return a.weight > b.weight;
                   });

  for (const auto& candidate : paths) {
    const auto plan = check_path(routing_topology(), params_,
                                 candidate.nodes);
    if (!plan) continue;
    const double node_demand = node_demand_for(plan->distance) * codes;
    const double pair_demand = pair_demand_for(plan->distance) * codes;
    if (!tracker_.path_feasible(candidate.nodes, node_demand, pair_demand))
      continue;
    tracker_.commit(candidate.nodes, node_demand, pair_demand);
    AdmittedRoute route;
    route.path = plan->path;
    route.ec_servers = plan->ec_servers;
    route.noise = netsim::path_noise(routing_topology(), plan->path);
    route.codes = codes;
    route.distance = plan->distance;
    route.source =
        solution.warm_started ? AdmitSource::Warm : AdmitSource::Cold;
    return route;
  }
  return std::nullopt;
}

std::optional<AdmittedRoute> GreedyFirstRouter::admit(int src, int dst,
                                                      int codes) {
  if (const auto plan = reference_plan_code(routing_topology(), tracker_,
                                            params_, src, dst)) {
    const double node_demand = node_demand_for(plan->distance) * codes;
    const double pair_demand = pair_demand_for(plan->distance) * codes;
    if (tracker_.path_feasible(plan->path, node_demand, pair_demand)) {
      tracker_.commit(plan->path, node_demand, pair_demand);
      ++stats_.greedy_admits;
      AdmittedRoute route;
      route.path = plan->path;
      route.ec_servers = plan->ec_servers;
      route.noise = netsim::path_noise(routing_topology(), plan->path);
      route.codes = codes;
      route.distance = plan->distance;
      route.source = AdmitSource::Greedy;
      return route;
    }
  }

  const int k = commodity_index(src, dst);
  Commodity& commodity = commodities_[static_cast<std::size_t>(k)];
  if (commodity.infeasible) {
    ++stats_.infeasible_skips;
    return std::nullopt;
  }
  if (commodity.saturated) {
    ++stats_.saturation_skips;
    return std::nullopt;
  }
  auto route = lp_admit(k, codes);
  if (!route) {
    commodity.saturated = true;
    ++stats_.lp_rejects;
    return std::nullopt;
  }
  if (route->source == AdmitSource::Warm)
    ++stats_.warm_admits;
  else
    ++stats_.cold_admits;
  return route;
}

void GreedyFirstRouter::release(const AdmittedRoute& route) {
  tracker_.release(route.path, node_demand_for(route.distance) * route.codes,
                   pair_demand_for(route.distance) * route.codes);
  for (auto& c : commodities_) c.saturated = false;
}

void GreedyFirstRouter::set_noise_scale(double scale) {
  if (scale == noise_scale_) return;
  noise_scale_ = scale;
  ++stats_.profile_changes;
  if (scale != 1.0) {
    scaled_ = *topology_;
    for (int e = 0; e < scaled_.num_fibers(); ++e)
      scaled_.fiber(e).fidelity =
          std::pow(topology_->fiber(e).fidelity, scale);
  }
  for (auto& c : commodities_) {
    c.formulation.reset();
    c.state.clear();
    c.saturated = false;
    c.infeasible =
        !reference_plan_code(routing_topology(), pristine_, params_, c.src,
                             c.dst)
             .has_value();
  }
}

double GreedyFirstRouter::reoptimize() {
  double free_qubits = 0.0;
  for (int v = 0; v < topology_->num_nodes(); ++v)
    free_qubits += std::max(0.0, tracker_.node_remaining(v));
  return free_qubits / node_demand_for(0);
}

}  // namespace surfnet::routing
