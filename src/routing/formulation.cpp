#include "routing/formulation.h"

#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace surfnet::routing {

using netsim::Request;
using netsim::Topology;

RoutingFormulation::RoutingFormulation(const Topology& topology,
                                       const std::vector<Request>& requests,
                                       const RoutingParams& params)
    : topology_(&topology), params_(params), servers_(topology.servers()) {
  if (params_.core_qubits <= 0 || params_.support_qubits <= 0)
    throw std::invalid_argument("routing: code sizes must be positive");
  build(requests);
}

int RoutingFormulation::edge_tail(int de) const {
  const auto& f = topology_->fiber(edge_fiber(de));
  return (de % 2 == 0) ? f.a : f.b;
}

int RoutingFormulation::edge_head(int de) const {
  const auto& f = topology_->fiber(edge_fiber(de));
  return (de % 2 == 0) ? f.b : f.a;
}

void RoutingFormulation::set_storage_capacity(int node, double capacity) {
  const int row = storage_row(node);
  if (row >= 0) lp_.set_rhs(row, capacity);
}

void RoutingFormulation::set_entanglement_capacity(int fiber,
                                                   double capacity) {
  const int row = entanglement_row(fiber);
  if (row >= 0) lp_.set_rhs(row, capacity);
}

std::vector<int> RoutingFormulation::min_noise_in_tree(
    int dst, const std::vector<int>& var_of_edge) const {
  const Topology& topo = *topology_;
  SURFNET_EXPECTS(dst >= 0 && dst < topo.num_nodes());
  const auto nodes = static_cast<std::size_t>(topo.num_nodes());
  std::vector<double> dist(nodes, std::numeric_limits<double>::infinity());
  std::vector<int> out_edge(nodes, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(dst)] = 0.0;
  heap.emplace(0.0, dst);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    for (const int e : topo.incident(v))
      for (const int de : {2 * e, 2 * e + 1}) {
        if (edge_head(de) != v || var_of_edge[static_cast<std::size_t>(de)] < 0)
          continue;
        const auto u = static_cast<std::size_t>(edge_tail(de));
        const double nd = d + topo.fiber_noise(e);
        if (nd < dist[u]) {
          dist[u] = nd;
          out_edge[u] = de;
          heap.emplace(nd, edge_tail(de));
        }
      }
  }
  return out_edge;
}

void RoutingFormulation::build(const std::vector<Request>& requests) {
  const Topology& topo = *topology_;
  const int de_count = num_directed_edges();
  const int n = params_.core_qubits;
  const int m = params_.support_qubits;
  const int total_qubits = params_.total_qubits();

  storage_row_.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
  entanglement_row_.assign(static_cast<std::size_t>(topo.num_fibers()), -1);

  // --- Variables (Eq. 2 bounds become variable upper bounds). ---
  vars_.resize(requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& req = requests[k];
    if (req.src == req.dst || !topo.is_user(req.src) || !topo.is_user(req.dst))
      throw std::invalid_argument("routing: request endpoints must be "
                                  "distinct users");
    VarIndex& v = vars_[k];
    v.y = lp_.add_variable(1.0, req.codes);  // objective: max sum Y_k
    v.a.assign(static_cast<std::size_t>(de_count), -1);
    v.b.assign(static_cast<std::size_t>(de_count), -1);
    for (int de = 0; de < de_count; ++de) {
      const int tail = edge_tail(de);
      const int head = edge_head(de);
      // Eq. 3 line 1: no flow out of the destination or into the source;
      // transit through third-party users is physically meaningless.
      const bool tail_ok = (tail == req.src) || topo.is_switch_or_server(tail);
      const bool head_ok = (head == req.dst) || topo.is_switch_or_server(head);
      if (!tail_ok || !head_ok) continue;
      // Small negative objective on every flow unit-noise product: among
      // maximum-throughput solutions the LP then picks minimum-noise
      // routes (and aligned Core/Support paths).
      const double penalty =
          -params_.noise_objective_weight * topo.fiber_noise(edge_fiber(de));
      if (params_.dual_channel)
        v.a[static_cast<std::size_t>(de)] = lp_.add_variable(penalty);
      v.b[static_cast<std::size_t>(de)] = lp_.add_variable(penalty);
    }
    v.x.assign(servers_.size(), -1);
    for (std::size_t r = 0; r < servers_.size(); ++r)
      v.x[r] = lp_.add_variable(0.0, req.codes);
  }

  auto in_edges = [&](int node) {
    std::vector<int> out;
    for (int e : topo.incident(node)) {
      const int de0 = 2 * e, de1 = 2 * e + 1;
      if (edge_head(de0) == node) out.push_back(de0);
      if (edge_head(de1) == node) out.push_back(de1);
    }
    return out;
  };
  auto out_edges = [&](int node) {
    std::vector<int> out;
    for (int e : topo.incident(node)) {
      const int de0 = 2 * e, de1 = 2 * e + 1;
      if (edge_tail(de0) == node) out.push_back(de0);
      if (edge_tail(de1) == node) out.push_back(de1);
    }
    return out;
  };

  // Crash rows of one request's channel: the source's Eq. (3) out-row and
  // each switch/server's Eq. (4) conservation row (-1 = none).
  struct ChannelRows {
    const std::vector<int>* var_of_edge = nullptr;
    int src_out = -1;
    std::vector<int> conservation;
  };
  std::vector<ChannelRows> channels(params_.dual_channel ? 2 : 1);

  // --- Per-request constraints: Eqs. (3), (4), (6). Rows stream straight
  // into the problem's compressed form; nothing is buffered per row. ---
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& req = requests[k];
    const VarIndex& v = vars_[k];
    channels.front().var_of_edge = params_.dual_channel ? &v.a : &v.b;
    channels.back().var_of_edge = &v.b;
    for (auto& channel : channels)
      channel.conservation.assign(static_cast<std::size_t>(topo.num_nodes()),
                                  -1);

    auto add_flow_equation = [&](const std::vector<int>& edges,
                                 const std::vector<int>& var_of_edge,
                                 double y_coeff) {
      const int row = lp_.num_rows();
      lp_.begin_constraint(ConstraintType::Equal, 0.0);
      for (int de : edges) {
        const int var = var_of_edge[static_cast<std::size_t>(de)];
        if (var >= 0) lp_.add_term(var, 1.0);
      }
      lp_.add_term(v.y, y_coeff);
      return row;
    };

    // Eq. 3: inflow(dst) = outflow(src) = n*Y (Core) and m*Y (Support).
    if (params_.dual_channel) {
      add_flow_equation(in_edges(req.dst), v.a, -static_cast<double>(n));
      channels[0].src_out = add_flow_equation(out_edges(req.src), v.a,
                                              -static_cast<double>(n));
      add_flow_equation(in_edges(req.dst), v.b, -static_cast<double>(m));
      channels[1].src_out = add_flow_equation(out_edges(req.src), v.b,
                                              -static_cast<double>(m));
    } else {
      add_flow_equation(in_edges(req.dst), v.b,
                        -static_cast<double>(total_qubits));
      channels[0].src_out = add_flow_equation(
          out_edges(req.src), v.b, -static_cast<double>(total_qubits));
    }

    // Eq. 4: conservation at switches and servers; server EC coupling.
    for (int node : topo.switches_and_servers()) {
      const auto in = in_edges(node);
      const auto out = out_edges(node);
      auto add_conservation = [&](ChannelRows& channel) {
        const std::vector<int>& var_of_edge = *channel.var_of_edge;
        bool any = false;
        for (int de : in)
          if (var_of_edge[static_cast<std::size_t>(de)] >= 0) any = true;
        for (int de : out)
          if (var_of_edge[static_cast<std::size_t>(de)] >= 0) any = true;
        if (!any) return;
        channel.conservation[static_cast<std::size_t>(node)] = lp_.num_rows();
        lp_.begin_constraint(ConstraintType::Equal, 0.0);
        for (int de : in) {
          const int var = var_of_edge[static_cast<std::size_t>(de)];
          if (var >= 0) lp_.add_term(var, 1.0);
        }
        for (int de : out) {
          const int var = var_of_edge[static_cast<std::size_t>(de)];
          if (var >= 0) lp_.add_term(var, -1.0);
        }
      };
      for (auto& channel : channels) add_conservation(channel);
    }
    std::vector<int> first_coupling_row(servers_.size());
    for (std::size_t r = 0; r < servers_.size(); ++r) {
      const int node = servers_[r];
      const auto in = in_edges(node);
      first_coupling_row[r] = lp_.num_rows();
      auto add_coupling = [&](const std::vector<int>& var_of_edge,
                              double qubits) {
        lp_.begin_constraint(ConstraintType::Equal, 0.0);
        for (int de : in) {
          const int var = var_of_edge[static_cast<std::size_t>(de)];
          if (var >= 0) lp_.add_term(var, 1.0);
        }
        lp_.add_term(v.x[r], -qubits);
      };
      if (params_.dual_channel) {
        add_coupling(v.a, static_cast<double>(n));
        add_coupling(v.b, static_cast<double>(m));
      } else {
        add_coupling(v.b, static_cast<double>(total_qubits));
      }
    }

    // Eq. 6: noise thresholds (normalized per code as in the paper's
    // worked example). Core: 0 <= (1/n) sum mu a - w sum x <= Wc * Y.
    // Whole code: (1/(n+m)) sum mu (a/2 + b) - w sum x <= W * Y.
    auto noise_terms = [&](const std::vector<int>& var_of_edge,
                           double scale) {
      for (int de = 0; de < de_count; ++de) {
        const int var = var_of_edge[static_cast<std::size_t>(de)];
        if (var < 0) continue;
        const double mu = topo.fiber_noise(edge_fiber(de));
        if (mu > 0.0) lp_.add_term(var, scale * mu);
      }
    };
    auto ec_terms = [&] {
      for (std::size_t r = 0; r < servers_.size(); ++r)
        lp_.add_term(v.x[r], -params_.ec_reduction);
    };
    if (params_.dual_channel) {
      lp_.begin_constraint(ConstraintType::GreaterEqual, 0.0);
      noise_terms(v.a, 1.0 / n);  // >= 0: discourages consecutive servers
      ec_terms();
      lp_.begin_constraint(ConstraintType::LessEqual, 0.0);
      noise_terms(v.a, 1.0 / n);
      ec_terms();
      lp_.add_term(v.y, -params_.core_noise_threshold);
    }
    {
      lp_.begin_constraint(ConstraintType::LessEqual, 0.0);
      if (params_.dual_channel) {
        noise_terms(v.a, 0.5 / total_qubits);
        noise_terms(v.b, 1.0 / total_qubits);
      } else {
        noise_terms(v.b, 1.0 / total_qubits);
      }
      ec_terms();
      lp_.add_term(v.y, -params_.total_noise_threshold);
    }

    // Crash basis: along the min-noise in-tree to dst, every tree node's
    // out-row takes its tree edge; every server's first coupling row takes
    // x_r.
    crash_rows_.resize(static_cast<std::size_t>(lp_.num_rows()), -1);
    const auto tree = min_noise_in_tree(req.dst, v.b);
    for (const auto& channel : channels)
      for (int node = 0; node < topo.num_nodes(); ++node) {
        const int de = tree[static_cast<std::size_t>(node)];
        if (de < 0) continue;
        const int row =
            node == req.src
                ? channel.src_out
                : channel.conservation[static_cast<std::size_t>(node)];
        SURFNET_ASSERT(row >= 0, "tree node %d has no out-row", node);
        crash_rows_[static_cast<std::size_t>(row)] =
            (*channel.var_of_edge)[static_cast<std::size_t>(de)];
      }
    for (std::size_t r = 0; r < servers_.size(); ++r)
      crash_rows_[static_cast<std::size_t>(first_coupling_row[r])] = v.x[r];
  }

  // --- Shared capacity constraints: Eq. (5). ---
  const double capacity_scale =
      params_.dual_channel ? 1.0 : params_.raw_capacity_bonus;
  for (int node : topo.switches_and_servers()) {
    const auto in = in_edges(node);
    bool any = false;
    for (int de : in) {
      for (const auto& v : vars_) {
        if (params_.dual_channel && v.a[static_cast<std::size_t>(de)] >= 0)
          any = true;
        if (v.b[static_cast<std::size_t>(de)] >= 0) any = true;
      }
    }
    if (!any) continue;
    storage_row_[static_cast<std::size_t>(node)] = lp_.num_rows();
    lp_.begin_constraint(ConstraintType::LessEqual,
                         capacity_scale * topo.node(node).storage_capacity);
    for (int de : in) {
      for (const auto& v : vars_) {
        if (params_.dual_channel) {
          const int va = v.a[static_cast<std::size_t>(de)];
          if (va >= 0) lp_.add_term(va, 1.0);
        }
        const int vb = v.b[static_cast<std::size_t>(de)];
        if (vb >= 0) lp_.add_term(vb, 1.0);
      }
    }
  }
  if (params_.dual_channel) {
    for (int e = 0; e < topo.num_fibers(); ++e) {
      bool any = false;
      for (const auto& v : vars_)
        for (int de : {2 * e, 2 * e + 1})
          if (v.a[static_cast<std::size_t>(de)] >= 0) any = true;
      if (!any) continue;
      entanglement_row_[static_cast<std::size_t>(e)] = lp_.num_rows();
      lp_.begin_constraint(ConstraintType::LessEqual,
                           topo.fiber(e).entanglement_capacity);
      for (const auto& v : vars_) {
        for (int de : {2 * e, 2 * e + 1}) {
          const int va = v.a[static_cast<std::size_t>(de)];
          if (va >= 0) lp_.add_term(va, 1.0);
        }
      }
    }
  }
  crash_rows_.resize(static_cast<std::size_t>(lp_.num_rows()), -1);
}

}  // namespace surfnet::routing
