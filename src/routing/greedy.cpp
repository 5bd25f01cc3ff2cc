#include "routing/greedy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>

#include "netsim/channel.h"
#include "obs/metrics.h"
#include "routing/validate.h"
#include "util/contracts.h"

namespace surfnet::routing {

using netsim::Request;
using netsim::Schedule;
using netsim::ScheduledRequest;
using netsim::Topology;

CapacityTracker::CapacityTracker(const Topology& topology,
                                 const RoutingParams& params)
    : topology_(&topology), params_(params) {
  const double bonus = params.dual_channel ? 1.0 : params.raw_capacity_bonus;
  node_capacity_.resize(static_cast<std::size_t>(topology.num_nodes()));
  for (int v = 0; v < topology.num_nodes(); ++v)
    node_capacity_[static_cast<std::size_t>(v)] =
        bonus * topology.node(v).storage_capacity;
  fiber_pairs_.resize(static_cast<std::size_t>(topology.num_fibers()));
  for (int e = 0; e < topology.num_fibers(); ++e)
    fiber_pairs_[static_cast<std::size_t>(e)] =
        topology.fiber(e).entanglement_capacity;
}

bool CapacityTracker::path_feasible(const std::vector<int>& path) const {
  return path_feasible(path, params_.total_qubits(), params_.core_qubits);
}

bool CapacityTracker::path_feasible(const std::vector<int>& path,
                                    double node_demand,
                                    double pair_demand) const {
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    if (node_remaining(path[i]) < node_demand) return false;
  if (params_.dual_channel) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology_->fiber_between(path[i], path[i + 1]);
      if (e < 0 || fiber_pairs_remaining(e) < pair_demand) return false;
    }
  }
  return true;
}

void CapacityTracker::commit(const std::vector<int>& path) {
  commit(path, params_.total_qubits(), params_.core_qubits);
}

void CapacityTracker::commit(const std::vector<int>& path, double node_demand,
                             double pair_demand) {
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(path[i])] -= node_demand;
  if (params_.dual_channel) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology_->fiber_between(path[i], path[i + 1]);
      fiber_pairs_[static_cast<std::size_t>(e)] -= pair_demand;
    }
  }
}

void CapacityTracker::release(const std::vector<int>& path) {
  release(path, params_.total_qubits(), params_.core_qubits);
}

void CapacityTracker::release(const std::vector<int>& path,
                              double node_demand, double pair_demand) {
  for (std::size_t i = 1; i + 1 < path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(path[i])] += node_demand;
  if (params_.dual_channel) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology_->fiber_between(path[i], path[i + 1]);
      fiber_pairs_[static_cast<std::size_t>(e)] += pair_demand;
    }
  }
}

int adaptive_distance(double residual_noise) {
  if (residual_noise <= 0.10) return 3;
  if (residual_noise <= 0.30) return 4;
  return 5;
}

bool CapacityTracker::split_feasible(
    const std::vector<int>& core_path,
    const std::vector<int>& support_path) const {
  // Storage demand per node: Core and Support qubits are counted where
  // each part travels; a node on both paths stores both.
  const double support_demand =
      params_.dual_channel ? params_.support_qubits : params_.total_qubits();
  std::vector<std::pair<int, double>> demand;
  for (std::size_t i = 1; i + 1 < support_path.size(); ++i)
    demand.emplace_back(support_path[i], support_demand);
  for (std::size_t i = 1; i + 1 < core_path.size(); ++i)
    demand.emplace_back(core_path[i],
                        static_cast<double>(params_.core_qubits));
  std::vector<std::pair<int, double>> agg;
  for (const auto& [node, qubits] : demand) {
    bool found = false;
    for (auto& [n2, q2] : agg)
      if (n2 == node) {
        q2 += qubits;
        found = true;
      }
    if (!found) agg.emplace_back(node, qubits);
  }
  for (const auto& [node, qubits] : agg)
    if (node_remaining(node) < qubits) return false;
  for (std::size_t i = 0; i + 1 < core_path.size(); ++i) {
    const int e = topology_->fiber_between(core_path[i], core_path[i + 1]);
    if (e < 0 || fiber_pairs_remaining(e) < params_.core_qubits) return false;
  }
  return true;
}

void CapacityTracker::commit_split(const std::vector<int>& core_path,
                                   const std::vector<int>& support_path) {
  const double support_demand =
      params_.dual_channel ? params_.support_qubits : params_.total_qubits();
  for (std::size_t i = 1; i + 1 < support_path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(support_path[i])] -=
        support_demand;
  for (std::size_t i = 1; i + 1 < core_path.size(); ++i)
    node_capacity_[static_cast<std::size_t>(core_path[i])] -=
        params_.core_qubits;
  for (std::size_t i = 0; i + 1 < core_path.size(); ++i) {
    const int e = topology_->fiber_between(core_path[i], core_path[i + 1]);
    fiber_pairs_[static_cast<std::size_t>(e)] -= params_.core_qubits;
  }
}

namespace {

/// State shared by the Dijkstra runs of one plan_code call: the fiber-noise
/// memo (filled on first use, so std::log runs at most once per fiber per
/// call), the per-run buffers, and the work counters.
class PathSearch {
 public:
  PathSearch(const Topology& topology, const CapacityTracker& tracker,
             const RoutingParams& params)
      : topology_(topology),
        tracker_(tracker),
        params_(params),
        noise_(static_cast<std::size_t>(topology.num_fibers()),
               std::numeric_limits<double>::quiet_NaN()),
        dist_(static_cast<std::size_t>(topology.num_nodes())),
        parent_(static_cast<std::size_t>(topology.num_nodes())) {}
  PathSearch(const PathSearch&) = delete;  // the destructor reports once
  PathSearch& operator=(const PathSearch&) = delete;

  /// Reports the work counters to the sink, when one is attached:
  /// "route.greedy.dijkstras" (searches run) and
  /// "route.greedy.relaxations" (fibers relaxed: passed the capacity
  /// filters and had their far end's distance compared).
  ~PathSearch() {
    if (params_.sink.metrics == nullptr) return;
    params_.sink.metrics->count("route.greedy.dijkstras", dijkstras_);
    params_.sink.metrics->count("route.greedy.relaxations", relaxations_);
  }

  /// Dijkstra over nodes with remaining capacity, minimizing accumulated
  /// noise. Only the request's endpoints may be users.
  std::optional<std::vector<int>> min_noise_path(int src, int dst) {
    ++dijkstras_;
    const double node_demand = params_.total_qubits();
    const double pair_demand = params_.core_qubits;
    const double inf = std::numeric_limits<double>::infinity();
    std::fill(dist_.begin(), dist_.end(), inf);
    std::fill(parent_.begin(), parent_.end(), -1);
    heap_.clear();
    dist_[static_cast<std::size_t>(src)] = 0.0;
    push(0.0, src);
    while (!heap_.empty()) {
      const auto [d, u] = pop();
      if (d > dist_[static_cast<std::size_t>(u)]) continue;
      if (u == dst) break;
      for (int e : topology_.incident(u)) {
        const int v = topology_.other_end(e, u);
        // Only the destination user is enterable; transit nodes need
        // storage.
        if (v != dst) {
          if (!topology_.is_switch_or_server(v)) continue;
          if (tracker_.node_remaining(v) < node_demand) continue;
        }
        if (params_.dual_channel &&
            tracker_.fiber_pairs_remaining(e) < pair_demand)
          continue;
        ++relaxations_;
        const double nd = d + noise(e);
        if (nd < dist_[static_cast<std::size_t>(v)]) {
          dist_[static_cast<std::size_t>(v)] = nd;
          parent_[static_cast<std::size_t>(v)] = u;
          push(nd, v);
        }
      }
    }
    if (dist_[static_cast<std::size_t>(dst)] == inf) return std::nullopt;
    std::vector<int> path;
    for (int v = dst; v != -1; v = parent_[static_cast<std::size_t>(v)])
      path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  using Item = std::pair<double, int>;

  /// topology.fiber_noise(e), bitwise.
  double noise(int e) {
    double& mu = noise_[static_cast<std::size_t>(e)];
    if (std::isnan(mu)) mu = topology_.fiber_noise(e);
    return mu;
  }

  // A binary min-heap on (noise, node): the push_heap/pop_heap sequence
  // of std::priority_queue<Item, std::vector<Item>, std::greater<>>, so
  // ties pop in the same order, over a buffer that keeps its capacity.
  void push(double d, int v) {
    heap_.push_back({d, v});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  Item pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Item top = heap_.back();
    heap_.pop_back();
    return top;
  }

  const Topology& topology_;
  const CapacityTracker& tracker_;
  const RoutingParams& params_;
  std::vector<double> noise_;  ///< NaN = not yet computed
  std::vector<double> dist_;
  std::vector<int> parent_;
  std::vector<Item> heap_;
  std::int64_t dijkstras_ = 0;
  std::int64_t relaxations_ = 0;
};

}  // namespace

std::optional<PlannedCode> plan_code(const Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst) {
  PathSearch search(topology, tracker, params);
  const auto direct = search.min_noise_path(src, dst);
  if (direct) {
    if (auto plan = check_path(topology, params, *direct)) return plan;
  }
  // The minimum-noise route may fail the thresholds simply because it
  // passes too few servers: detour through one server — or an ordered pair
  // of servers — (the hierarchical equivalent of the LP routing its flow
  // through EC sites) and keep the lowest-noise feasible composite.
  auto is_simple = [](const std::vector<int>& path) {
    for (std::size_t i = 0; i < path.size(); ++i)
      for (std::size_t j = i + 1; j < path.size(); ++j)
        if (path[i] == path[j]) return false;
    return true;
  };
  auto join = [&](const std::vector<int>& a,
                  const std::vector<int>& b) {
    std::vector<int> composite = a;
    composite.insert(composite.end(), b.begin() + 1, b.end());
    return composite;
  };

  std::optional<PlannedCode> best;
  double best_mu = std::numeric_limits<double>::infinity();
  auto consider = [&](const std::vector<int>& composite) {
    if (!is_simple(composite)) return;
    const double mu = netsim::path_noise(topology, composite);
    if (mu >= best_mu) return;
    if (auto plan = check_path(topology, params, composite)) {
      best = std::move(plan);
      best_mu = mu;
    }
  };

  const auto servers = topology.servers();
  // The (server -> dst) leg closes both the one-server detour through
  // `server` and every two-server detour ending there: search it once.
  std::vector<std::optional<std::vector<int>>> to_dst(servers.size());
  std::vector<char> to_dst_known(servers.size(), 0);
  auto leg_to_dst = [&](std::size_t i) -> const auto& {
    if (!to_dst_known[i]) {
      to_dst[i] = search.min_noise_path(servers[i], dst);
      to_dst_known[i] = 1;
    }
    return to_dst[i];
  };
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const int server = servers[i];
    if (server == src || server == dst) continue;
    const auto first = search.min_noise_path(src, server);
    if (!first) continue;
    if (const auto& second = leg_to_dst(i)) consider(join(*first, *second));
    for (std::size_t j = 0; j < servers.size(); ++j) {
      const int other = servers[j];
      if (other == server || other == src || other == dst) continue;
      const auto middle = search.min_noise_path(server, other);
      if (!middle) continue;
      if (const auto& last = leg_to_dst(j))
        consider(join(join(*first, *middle), *last));
    }
  }
  return best;
}

std::optional<PlannedCode> check_path(const Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path_arg) {
  const auto* path = &path_arg;
  const double mu_total = netsim::path_noise(topology, *path);
  std::vector<int> servers_on_path;
  for (std::size_t i = 1; i + 1 < path->size(); ++i)
    if (topology.is_server((*path)[i])) servers_on_path.push_back((*path)[i]);

  // Schedule as many corrections as the lower noise bound allows
  // (Eq. 6: core noise after corrections must stay >= 0).
  const int max_ec = params.ec_reduction > 0.0
                         ? static_cast<int>(std::floor(
                               mu_total / params.ec_reduction))
                         : 0;
  const int ec_count =
      std::min<int>(static_cast<int>(servers_on_path.size()), max_ec);

  // Threshold checks, mirroring the normalized Eq. (6). With adaptive
  // code sizes, the thresholds scale with the code's error tolerance:
  // a larger code survives proportionally more residual noise.
  const double after_ec = params.ec_reduction * ec_count;
  const double core_residual = mu_total - after_ec;
  int distance = 0;
  double threshold_scale = 1.0;
  if (params.adaptive_code_distance) {
    distance = adaptive_distance(core_residual);
    threshold_scale = (distance - 2.0) / 2.0;  // d=3: 0.5, d=4: 1, d=5: 1.5
  }
  const int n = params.core_qubits;
  const int total = params.total_qubits();
  if (params.dual_channel) {
    if (core_residual > threshold_scale * params.core_noise_threshold)
      return std::nullopt;
    const double whole =
        (0.5 * n * mu_total + (total - n) * mu_total) / total - after_ec;
    if (whole > threshold_scale * params.total_noise_threshold)
      return std::nullopt;
  } else {
    const double whole = mu_total - after_ec;
    if (whole > threshold_scale * params.total_noise_threshold)
      return std::nullopt;
  }

  PlannedCode plan;
  plan.path = *path;
  plan.ec_servers.assign(servers_on_path.begin(),
                         servers_on_path.begin() + ec_count);
  plan.distance = distance;
  return plan;
}

bool no_path_can_pass(const Topology& topology, const RoutingParams& params,
                      int src, int dst, const ResidualFilter& residual) {
  SURFNET_EXPECTS(src >= 0 && src < topology.num_nodes() && dst >= 0 &&
                  dst < topology.num_nodes());
  constexpr int kMaxServers = 10;  // 2^10 server subsets per node
  const auto servers = topology.servers();
  if (servers.size() > static_cast<std::size_t>(kMaxServers)) return false;
  const int n = params.core_qubits;
  const int total = params.total_qubits();
  if (n < 0 || total - n < 0 || total <= 0) return false;
  std::vector<double> noise(static_cast<std::size_t>(topology.num_fibers()));
  for (int e = 0; e < topology.num_fibers(); ++e) {
    noise[static_cast<std::size_t>(e)] = topology.fiber_noise(e);
    if (!(noise[static_cast<std::size_t>(e)] >= 0.0)) return false;
  }
  std::vector<int> bit(static_cast<std::size_t>(topology.num_nodes()), 0);
  for (std::size_t i = 0; i < servers.size(); ++i)
    bit[static_cast<std::size_t>(servers[i])] = 1 << i;

  // Least noise of a walk src -> v whose interior passes exactly the
  // servers in `mask`, as left-to-right sums like netsim::path_noise. A
  // simple path is such a walk, and rounding is monotone, so its
  // path_noise is >= the entry of (dst, its interior servers).
  const std::size_t masks = std::size_t{1} << servers.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(topology.num_nodes()) *
                               masks,
                           inf);
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src) * masks] = 0.0;
  heap.push({0.0, static_cast<std::size_t>(src) * masks});
  while (!heap.empty()) {
    const auto [d, state] = heap.top();
    heap.pop();
    if (d > dist[state]) continue;
    const int u = static_cast<int>(state / masks);
    if (u == dst) continue;  // a path ends at its destination
    const std::size_t mask = state % masks;
    for (int e : topology.incident(u)) {
      const int v = topology.other_end(e, u);
      if (v != dst && !topology.is_switch_or_server(v)) continue;
      if (const CapacityTracker* tracker = residual.tracker) {
        // path_feasible's own comparisons, at the smallest demands.
        if (v != dst && tracker->node_remaining(v) < residual.node_demand)
          continue;
        if (params.dual_channel) {
          const int f = topology.fiber_between(u, v);
          if (f < 0 ||
              tracker->fiber_pairs_remaining(f) < residual.pair_demand)
            continue;
        }
      }
      const std::size_t next =
          static_cast<std::size_t>(v) * masks +
          (v == dst ? mask
                    : mask | static_cast<std::size_t>(
                                 bit[static_cast<std::size_t>(v)]));
      const double nd = d + noise[static_cast<std::size_t>(e)];
      if (nd < dist[next]) {
        dist[next] = nd;
        heap.push({nd, next});
      }
    }
  }

  // check_path's thresholds at the most tolerant scale it can choose.
  double core_limit = params.core_noise_threshold;
  double total_limit = params.total_noise_threshold;
  if (params.adaptive_code_distance) {
    for (const int d : {3, 4, 5}) {
      const double scale = (d - 2.0) / 2.0;
      core_limit = std::max(core_limit, scale * params.core_noise_threshold);
      total_limit =
          std::max(total_limit, scale * params.total_noise_threshold);
    }
  }
  for (std::size_t mask = 0; mask < masks; ++mask) {
    const double mu_total = dist[static_cast<std::size_t>(dst) * masks + mask];
    if (mu_total == inf) continue;
    // At most one correction per server passed; fewer corrections leave
    // more residual noise, and every residual below is non-decreasing in
    // mu_total and non-increasing in after_ec.
    const int ec_count = params.ec_reduction > 0.0 ? std::popcount(mask) : 0;
    const double after_ec = params.ec_reduction * ec_count;
    const double core_residual = mu_total - after_ec;
    if (params.dual_channel) {
      const double whole =
          (0.5 * n * mu_total + (total - n) * mu_total) / total - after_ec;
      if (core_residual <= core_limit && whole <= total_limit) return false;
    } else {
      if (core_residual <= total_limit) return false;
    }
  }
  return true;
}

Schedule route_greedy(const Topology& topology,
                      const std::vector<Request>& requests,
                      const RoutingParams& params, util::Rng& rng) {
  Schedule schedule;
  for (const auto& r : requests) schedule.requested_codes += r.codes;

  CapacityTracker tracker(topology, params);
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  for (std::size_t k : order) {
    const Request& req = requests[k];
    for (int code = 0; code < req.codes; ++code) {
      const auto plan = plan_code(topology, tracker, params, req.src,
                                  req.dst);
      if (!plan) break;
      const double node_demand =
          plan->distance > 0
              ? RoutingParams::total_qubits_for(plan->distance)
              : params.total_qubits();
      const double pair_demand =
          plan->distance > 0 ? RoutingParams::core_qubits_for(plan->distance)
                             : params.core_qubits;
      if (!tracker.path_feasible(plan->path, node_demand, pair_demand))
        break;
      tracker.commit(plan->path, node_demand, pair_demand);
      // Merge consecutive identical plans of the same request.
      if (!schedule.scheduled.empty()) {
        auto& last = schedule.scheduled.back();
        if (last.request_index == static_cast<int>(k) &&
            last.support_path == plan->path &&
            last.ec_servers == plan->ec_servers &&
            last.code_distance == plan->distance) {
          ++last.codes;
          continue;
        }
      }
      ScheduledRequest s;
      s.request_index = static_cast<int>(k);
      s.codes = 1;
      s.support_path = plan->path;
      if (params.dual_channel) s.core_path = plan->path;
      s.ec_servers = plan->ec_servers;
      s.code_distance = plan->distance;
      schedule.scheduled.push_back(std::move(s));
    }
  }

#if SURFNET_CHECKS
  check_schedule_invariants(topology, requests, params, schedule);
#endif
  return schedule;
}

}  // namespace surfnet::routing
