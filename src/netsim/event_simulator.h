#pragma once

// The surface-code simulation loop and its two visit policies.
//
// simulate_surfnet() (netsim/simulator.h, defined in event_simulator.cpp)
// is one deterministic event loop over discrete time slots. It keeps a
// pending-event queue (netsim/event_queue.h) of slots at which something
// can happen: scripted fault onsets/expiries, request launches and
// timeouts, retry/backoff timers, entanglement-readiness thresholds, and
// generic code wake-ups. SimEngine chooses which slots the loop visits:
//
//   Event — cost proportional to *activity* instead of
//           `slots × topology`: slots with no pending event are skipped
//           and per-fiber entanglement pools are materialized lazily.
//           Skipped slots are provably draw-free and trace-free, and their
//           gains are applied in closed form (see DESIGN.md §"Event
//           engine"), so idle fibers and quiescent codes cost nothing.
//   Slot  — every slot is visited and every pool is advanced eagerly:
//           the dense differential oracle for Event.
//
// Under Event the loop still visits every slot whenever it cannot skip
// safely — an attached obs::Sink observes every slot, stochastic fault
// processes draw every slot, several requests contend through the
// per-slot service shuffle, or a fractional base rate draws one Bernoulli
// per fiber per slot. A visited slot runs the same phase sequence under
// both policies, so the SimulationResult, obs::Sink events, "sim.*"
// metrics and RNG stream are bitwise-identical; the only difference is
// that Event reports its own "sim.event_*" visit/skip/queue metrics.
// run_traffic() (netsim/workload.h) takes the same selector for its
// arrival/departure stream.

#include <cstdint>
#include <string_view>

namespace surfnet::netsim {

/// Which slots the surface-code loop visits. Both policies compute the
/// identical function; Event is asymptotically cheaper on sparse/idle
/// workloads.
enum class SimEngine : std::uint8_t {
  Slot,   ///< every slot, eager pools (the differential oracle)
  Event,  ///< skip and lazy pools wherever provable
};

std::string_view to_string(SimEngine engine);

}  // namespace surfnet::netsim
