#pragma once

// Incremental warm-started routing for the dynamic-traffic engine.
//
// The offline LP router (routing/router.h) answers "route this batch";
// the IncrementalRouter answers a stream of single-request deltas from
// netsim::run_traffic: admit one request now, release one later, with the
// network state carried across deltas instead of rebuilt per call.
//
// Per-admit cost ladder, cheapest first:
//   * commodity lookup — O(1) in a dense (src, dst) table; every pair
//     seen owns a commodity. On first sight, and after a noise-profile
//     change, it runs two load-independent checks: no_path_can_pass, a
//     certificate that no route can ever pass the paper's Eq. (6)
//     thresholds, and plan_code on a pristine full-capacity tracker.
//     Certified pairs ("unroutable") are rejected here, before any
//     search.
//   * greedy fast path — plan_code over the live CapacityTracker; no LP
//     is touched. Covers the overwhelming majority of admits.
//   * infeasible skip — a pair whose pristine plan fails is rejected
//     without an LP solve: its failure is load-independent *within one
//     noise profile*, so no released capacity can revive it. This flag is
//     read only after greedy: plan_code is a heuristic and check_path is
//     not monotone in noise (a noisier detour may afford more
//     corrections), so greedy on a partly loaded network can admit a
//     pair whose pristine plan fails. routing_tests keeps the original
//     greedy-first ladder as an oracle and checks every admit against it.
//   * saturation skip — a feasible commodity whose full ladder already
//     failed is rejected without an LP solve until a release restores
//     capacity. A release bumps one epoch instead of clearing a flag on
//     every commodity.
//   * residual skip — no_path_can_pass again, now filtered by the live
//     tracker: interior nodes and (dual channel) fibers without room for
//     the smallest code the request could use are left out of the
//     search. The LP assist admits only a decomposed path that passes
//     check_path and fits the tracker, and every such path survives the
//     filter, so a certified pair's solve could not admit: it is
//     skipped, and the commodity is marked saturated as an LP reject
//     marks it. Under load this rejects nearly every assist before any
//     formulation is built or solved.
//   * warm LP assist — when greedy fails, the router solves the
//     commodity's standing single-request formulation with the request
//     limit set to the requested codes and capacities set to the
//     tracker's residuals. Each (src, dst) commodity keeps its own
//     formulation and simplex basis: the shape never changes after the
//     commodity is first seen, so every re-solve after the first
//     warm-starts and needs a small fraction of the cold iteration
//     count. (A single standing multi-commodity formulation would grow
//     with every pair ever seen and cold-solve on each growth — O(users^2)
//     commodities make that quadratically more expensive per delta than
//     per-commodity problems of constant shape.)
//   * cold solve — only on a commodity's first solved assist (shape comes
//     into existence) — never again while the router lives. Assists the
//     residual certificate rejects build nothing, so a later real solve
//     warm-starts from the last basis that was actually solved.
//
// Admit sources are counted as "route.incremental.{greedy,warm,cold}",
// rejects as "route.incremental.{infeasible,saturated,residual,lp_reject}",
// and every LP solve flows through the usual solve_lp observability ("lp.*"
// counters, lp_solve events).
//
// reoptimize() does not re-solve anything: it reports the residual
// storage headroom the tracker already holds, in default-size codes. It
// runs no LP and changes no state, so it is invisible to later admits.
//
// Adaptive code selection. With RoutingParams::adaptive_code_distance the
// planner picks a distance (3/4/5) per route from its measured residual
// noise; the router then commits capacity for codes of exactly that
// distance — total_qubits_for(d) storage per transit node and
// core_qubits_for(d) pairs per fiber — and records the distance on the
// AdmittedRoute so release() returns exactly what admit() took even if
// the noise profile changed in between.
//
// Noise profile changes. set_noise_scale (the RouteProvider seam driven
// by the traffic engine's fidelity-degradation windows) re-measures every
// fiber as fidelity^scale. All routing decisions (greedy planning, LP
// noise coefficients, candidate vetting, reported route noise) read the
// scaled view; capacity bookkeeping is unaffected. A scale change
// invalidates every standing formulation (their Eq. (6) noise
// coefficients are stale), clears the saturated flags, and re-runs the
// per-commodity noise-feasibility check, lazily at each commodity's next
// lookup — so "infeasible, never cleared" is scoped to a fixed profile,
// and the cold-solve-once guarantee becomes once per (commodity, profile).

#include <memory>
#include <optional>
#include <vector>

#include "netsim/workload.h"
#include "routing/formulation.h"
#include "routing/greedy.h"
#include "routing/simplex.h"

namespace surfnet::routing {

/// netsim::RouteProvider over a live CapacityTracker with warm-started
/// LP assists. Single-threaded; one instance per traffic stream.
class IncrementalRouter final : public netsim::RouteProvider {
 public:
  IncrementalRouter(const netsim::Topology& topology,
                    const RoutingParams& params);

  std::optional<netsim::AdmittedRoute> admit(int src, int dst,
                                             int codes) override;
  void release(const netsim::AdmittedRoute& route) override;
  /// Residual-capacity headroom: sum over nodes of the tracker's
  /// remaining storage, divided by one default-size code's storage.
  double reoptimize() override;
  void set_noise_scale(double scale) override;

  const CapacityTracker& tracker() const { return tracker_; }
  double noise_scale() const { return noise_scale_; }

  /// Cumulative solve statistics for benchmarks and tests.
  struct Stats {
    long long greedy_admits = 0;
    long long warm_admits = 0;
    long long cold_admits = 0;
    long long lp_rejects = 0;    ///< LP consulted, no feasible route
    long long saturation_skips = 0;  ///< rejected without consulting the LP
    /// Rejected without consulting the LP on the residual-capacity
    /// no_path_can_pass certificate: no path left can pass and fit.
    long long residual_skips = 0;
    long long infeasible_skips = 0;  ///< no noise-feasible route exists
    /// Of infeasible_skips: rejected before any search, on the
    /// no_path_can_pass certificate.
    long long unroutable_skips = 0;
    int profile_changes = 0;     ///< set_noise_scale transitions seen
    int cold_solves = 0;
    int warm_solves = 0;
    long cold_iterations = 0;
    long warm_iterations = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Commodity {
    int src = -1;
    int dst = -1;
    /// saturation_epoch_ when the full ladder last failed: the commodity
    /// is saturated while the two are equal (until the next release).
    long long saturated_epoch = -1;
    /// Noise profile (Stats::profile_changes) `infeasible` and `lp`
    /// belong to; -1 = never checked.
    int profile = -1;
    /// no_path_can_pass in `profile`: no route can ever pass Eq. (6).
    bool unroutable = false;
    /// The pristine plan fails in `profile` (implied by `unroutable`).
    bool infeasible = false;
    /// Standing single-request formulation + warm-start basis. Built on
    /// the commodity's first LP assist, shape-stable forever after.
    struct StandingLp {
      RoutingFormulation formulation;
      SimplexState state;
    };
    /// Held out of line so a Commodity is a few dozen bytes: the O(1)
    /// rejects read only the fields above, and with the formulation
    /// inline every lookup landed on its own cache line of a table
    /// hundreds of KB wide, so their cost rose and fell with the cache.
    std::unique_ptr<StandingLp> lp;
  };

  /// Index of the (src, dst) commodity, creating it on first sight. Runs
  /// the noise-feasibility check (and drops a stale formulation) when the
  /// commodity has not been checked under the current noise profile.
  int commodity_index(int src, int dst);
  /// Point the formulation's capacities at the tracker's residuals.
  void sync_capacities(RoutingFormulation& formulation);
  /// LP-assisted admit for one commodity; greedy has already failed.
  /// Solves the commodity's standing formulation (building it on first
  /// use) and updates the warm/cold statistics.
  std::optional<netsim::AdmittedRoute> lp_admit(int commodity, int codes);
  /// The topology as currently measured: the scaled copy while a
  /// degradation window is open, the real one otherwise.
  const netsim::Topology& routing_topology() const {
    return noise_scale_ == 1.0 ? *topology_ : scaled_;
  }
  /// Per-code demands of a planned distance (0 = configuration default).
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
  /// Untouched full-capacity tracker for the one-time per-commodity
  /// noise-feasibility check.
  CapacityTracker pristine_;
  /// Measured view under the current noise scale (valid when
  /// noise_scale_ != 1). Same structure and capacities as *topology_,
  /// only fiber fidelities differ — trackers stay valid across changes.
  netsim::Topology scaled_;
  double noise_scale_ = 1.0;
  std::vector<Commodity> commodities_;
  /// Dense (src, dst) -> commodity table, src * num_nodes + dst; -1 = not
  /// seen yet. Every admitted-for pair owns a commodity.
  std::vector<int> pair_index_;
  /// Bumped by every release() and noise-profile change: one increment
  /// clears every commodity's saturation mark.
  long long saturation_epoch_ = 0;
  Stats stats_;
};

}  // namespace surfnet::routing
