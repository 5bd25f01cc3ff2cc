#include "routing/incremental.h"

#include <algorithm>
#include <cmath>

#include "netsim/channel.h"
#include "obs/metrics.h"
#include "routing/flow.h"
#include "util/contracts.h"

namespace surfnet::routing {

using netsim::AdmitSource;
using netsim::AdmittedRoute;

namespace {
constexpr double kCodeEps = 1e-4;
}  // namespace

IncrementalRouter::IncrementalRouter(const netsim::Topology& topology,
                                     const RoutingParams& params)
    : topology_(&topology),
      params_(params),
      tracker_(topology, params),
      pristine_(topology, params),
      pair_index_(static_cast<std::size_t>(topology.num_nodes()) *
                      static_cast<std::size_t>(topology.num_nodes()),
                  -1) {}

int IncrementalRouter::commodity_index(int src, int dst) {
  SURFNET_EXPECTS(src >= 0 && src < topology_->num_nodes() && dst >= 0 &&
                  dst < topology_->num_nodes());
  int& k = pair_index_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(topology_->num_nodes()) +
                       static_cast<std::size_t>(dst)];
  if (k < 0) {
    k = static_cast<int>(commodities_.size());
    Commodity commodity;
    commodity.src = src;
    commodity.dst = dst;
    commodities_.push_back(std::move(commodity));
  }
  Commodity& c = commodities_[static_cast<std::size_t>(k)];
  if (c.profile != stats_.profile_changes) {
    // First sight, or the noise profile changed since the last check: a
    // standing formulation baked the old profile's Eq. (6) noise
    // coefficients into its rows, so drop it (the next assist cold-solves
    // once, then warm-starts again), and re-run the noise-feasibility
    // check on the pristine full-capacity network. A pair the planner
    // cannot route with every resource free fails on noise thresholds
    // alone, and no release can change that while the profile holds.
    c.profile = stats_.profile_changes;
    c.lp.reset();
    c.unroutable = no_path_can_pass(routing_topology(), params_, src, dst);
    c.infeasible =
        c.unroutable ||
        !plan_code(routing_topology(), pristine_, params_, src, dst)
             .has_value();
  }
  return k;
}

void IncrementalRouter::sync_capacities(RoutingFormulation& formulation) {
  for (int v = 0; v < topology_->num_nodes(); ++v)
    formulation.set_storage_capacity(
        v, std::max(0.0, tracker_.node_remaining(v)));
  for (int e = 0; e < topology_->num_fibers(); ++e)
    formulation.set_entanglement_capacity(
        e, std::max(0.0, tracker_.fiber_pairs_remaining(e)));
}

std::optional<AdmittedRoute> IncrementalRouter::lp_admit(int commodity,
                                                         int codes) {
  SURFNET_EXPECTS(commodity >= 0 &&
                  static_cast<std::size_t>(commodity) < commodities_.size());
  Commodity& c = commodities_[static_cast<std::size_t>(commodity)];
  if (!c.lp) {
    const std::vector<netsim::Request> requests{
        netsim::Request{c.src, c.dst, 1}};
    // Built from the measured topology so the Eq. (6) noise coefficients
    // reflect the live profile; set_noise_scale drops stale formulations.
    c.lp = std::make_unique<Commodity::StandingLp>(Commodity::StandingLp{
        RoutingFormulation(routing_topology(), requests, params_), {}});
  }
  RoutingFormulation& formulation = c.lp->formulation;
  // Limits and right-hand sides change between solves, the shape never
  // does: every solve after the commodity's first warm-starts from the
  // basis the previous one left behind.
  formulation.set_request_limit(0, static_cast<double>(codes));
  sync_capacities(formulation);
  const LpSolution solution =
      solve_lp(formulation.problem(), c.lp->state, params_.sink);
  if (solution.warm_started) {
    ++stats_.warm_solves;
    stats_.warm_iterations += solution.iterations;
  } else {
    ++stats_.cold_solves;
    stats_.cold_iterations += solution.iterations;
  }
  if (solution.status != LpStatus::Optimal) return std::nullopt;

  const auto& vars = formulation.vars(0);
  const double y = solution.x[static_cast<std::size_t>(vars.y)];
  if (y < 1.0 - kCodeEps) return std::nullopt;

  // Decompose the commodity's support flow and vet the candidate paths:
  // the LP certifies aggregate feasibility, each path must still pass the
  // per-path Eq. (6) thresholds and the tracker's integral capacities.
  const double support_unit = params_.dual_channel
                                  ? params_.support_qubits
                                  : params_.total_qubits();
  const int de_count = formulation.num_directed_edges();
  std::vector<double> flow(static_cast<std::size_t>(de_count), 0.0);
  for (int de = 0; de < de_count; ++de) {
    const int vb = vars.b[static_cast<std::size_t>(de)];
    if (vb >= 0)
      flow[static_cast<std::size_t>(de)] =
          solution.x[static_cast<std::size_t>(vb)] / support_unit;
  }
  auto paths = decompose_flow(formulation, topology_->num_nodes(),
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

std::optional<AdmittedRoute> IncrementalRouter::admit(int src, int dst,
                                                      int codes) {
  const obs::Sink& sink = params_.sink;

  // Pairs that no route can ever serve are rejected in O(1), before any
  // search: the certificate covers every path greedy could find at any
  // load.
  const int k = commodity_index(src, dst);
  Commodity& commodity = commodities_[static_cast<std::size_t>(k)];
  if (commodity.unroutable) {
    ++stats_.infeasible_skips;
    ++stats_.unroutable_skips;
    if (sink.metrics) sink.metrics->count("route.incremental.infeasible");
    return std::nullopt;
  }

  // Greedy fast path: Dijkstra + thresholds over the live tracker, no LP.
  if (const auto plan =
          plan_code(routing_topology(), tracker_, params_, src, dst)) {
    const double node_demand = node_demand_for(plan->distance) * codes;
    const double pair_demand = pair_demand_for(plan->distance) * codes;
    if (tracker_.path_feasible(plan->path, node_demand, pair_demand)) {
      tracker_.commit(plan->path, node_demand, pair_demand);
      ++stats_.greedy_admits;
      if (sink.metrics) sink.metrics->count("route.incremental.greedy");
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

  // Warm LP assist. Pairs whose pristine plan fails are rejected without
  // a solve; only after greedy, because that plan is a heuristic, not a
  // certificate: a detour on the live tracker may pass where every
  // pristine candidate failed. A commodity whose full ladder already
  // failed stays rejected without another solve until capacity comes back.
  if (commodity.infeasible) {
    ++stats_.infeasible_skips;
    if (sink.metrics) sink.metrics->count("route.incremental.infeasible");
    return std::nullopt;
  }
  if (commodity.saturated_epoch == saturation_epoch_) {
    ++stats_.saturation_skips;
    if (sink.metrics) sink.metrics->count("route.incremental.saturated");
    return std::nullopt;
  }
  // Residual certificate: lp_admit admits only a decomposed path that
  // passes check_path and fits the tracker at its chosen distance, and
  // every such path survives this search at the smallest per-code demands
  // (d=3 under adaptive code sizes, the configured code otherwise). A
  // certified pair's solve cannot admit, so it is skipped, and the
  // commodity is marked saturated exactly as an LP reject would mark it.
  const int smallest = params_.adaptive_code_distance ? 3 : 0;
  if (no_path_can_pass(routing_topology(), params_, src, dst,
                       {&tracker_, node_demand_for(smallest) * codes,
                        pair_demand_for(smallest) * codes})) {
    commodity.saturated_epoch = saturation_epoch_;
    ++stats_.residual_skips;
    if (sink.metrics) sink.metrics->count("route.incremental.residual");
    return std::nullopt;
  }
  auto route = lp_admit(k, codes);
  if (!route) {
    commodity.saturated_epoch = saturation_epoch_;
    ++stats_.lp_rejects;
    if (sink.metrics) sink.metrics->count("route.incremental.lp_reject");
    return std::nullopt;
  }
  if (route->source == AdmitSource::Warm) {
    ++stats_.warm_admits;
    if (sink.metrics) sink.metrics->count("route.incremental.warm");
  } else {
    ++stats_.cold_admits;
    if (sink.metrics) sink.metrics->count("route.incremental.cold");
  }
  return route;
}

void IncrementalRouter::release(const AdmittedRoute& route) {
  // Demands keyed by the distance recorded at admit time: the exact
  // inverse of the matching commit even when the adaptive planner chose a
  // non-default code size or the noise profile changed since.
  tracker_.release(route.path, node_demand_for(route.distance) * route.codes,
                   pair_demand_for(route.distance) * route.codes);
  // Returned capacity may unblock any saturated commodity: a new epoch
  // clears every saturation mark at once.
  ++saturation_epoch_;
}

void IncrementalRouter::set_noise_scale(double scale) {
  SURFNET_EXPECTS(scale > 0.0, "noise scale %f must be positive", scale);
  if (scale == noise_scale_) return;
  noise_scale_ = scale;
  ++stats_.profile_changes;
  if (scale != 1.0) {
    // Measured view: fidelity gamma degrades to gamma^scale, i.e. fiber
    // noise mu = ln(1/gamma) scales linearly. Structure and capacities
    // are untouched, so the trackers keep working on the real topology.
    scaled_ = *topology_;
    for (int e = 0; e < scaled_.num_fibers(); ++e)
      scaled_.fiber(e).fidelity =
          std::pow(topology_->fiber(e).fidelity, scale);
  }
  // Clear every saturation mark now. Each commodity's profile stamp is
  // stale from here on, so commodity_index drops its standing formulation
  // and re-runs its noise-feasibility check the next time it is looked up.
  ++saturation_epoch_;
  if (params_.sink.metrics)
    params_.sink.metrics->count("route.incremental.profile_change");
}

double IncrementalRouter::reoptimize() {
  // Residual storage across the network, in default-size codes: a read of
  // the live tracker. No LP runs and no state changes, so a later admit
  // sees exactly what it would have seen without this call.
  double free_qubits = 0.0;
  for (int v = 0; v < topology_->num_nodes(); ++v)
    free_qubits += std::max(0.0, tracker_.node_remaining(v));
  return free_qubits / node_demand_for(0);
}

}  // namespace surfnet::routing
