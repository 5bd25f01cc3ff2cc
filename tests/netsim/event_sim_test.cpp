// Differential tests for the surface-code loop's visit policies: Event
// (skips, lazy pools) must reproduce the Slot oracle (every slot, eager
// pools) bitwise — SimulationResult, JSONL trace, metrics document (modulo
// Event's own "sim.event_*" keys), and the RNG stream (verified by
// comparing draws *after* the runs) — plus unit tests for the
// deterministic event queue itself. The heavy randomized
// matrix lives in tests/event_property_test.cpp (extended label).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/event_queue.h"
#include "netsim/event_simulator.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

// ---------------------------------------------------------------- queue --

TEST(EventQueue, PopsBySlotThenClassThenSequence) {
  EventQueue queue;
  queue.push(7, EventClass::CodeWake, 1);
  queue.push(3, EventClass::RetryTimer, 2);
  queue.push(3, EventClass::FaultOnset, 3);
  queue.push(7, EventClass::CodeWake, 4);   // same key as the first push
  queue.push(3, EventClass::FaultExpiry, 5);
  queue.push(1, EventClass::CodeWake, 6);

  std::vector<int> payloads;
  while (!queue.empty()) payloads.push_back(queue.pop().payload);
  // slot 1 first; slot 3 by class priority (onset < expiry < retry);
  // slot 7 ties broken by push order.
  EXPECT_EQ(payloads, (std::vector<int>{6, 3, 5, 2, 1, 4}));
}

TEST(EventQueue, SequenceIdsMakeEqualKeysFifo) {
  EventQueue queue;
  for (int i = 0; i < 100; ++i) queue.push(5, EventClass::CodeWake, i);
  for (int i = 0; i < 100; ++i) {
    const auto event = queue.pop();
    EXPECT_EQ(event.payload, i);
    EXPECT_EQ(event.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, TracksPeakAndPushCount) {
  EventQueue queue;
  queue.push(1, EventClass::CodeWake);
  queue.push(2, EventClass::CodeWake);
  queue.pop();
  queue.push(3, EventClass::CodeWake);
  EXPECT_EQ(queue.peak_size(), 2u);
  EXPECT_EQ(queue.pushed(), 3u);
  EXPECT_EQ(queue.size(), 2u);
}

// --------------------------------------------------- differential rigs --

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (the golden-trace fixture).
Topology ring_topology(double fidelity = 0.95) {
  std::vector<Node> nodes(6);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  nodes[5] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                            {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                            {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

Schedule one_request(int codes, bool dual, std::vector<int> ec = {}) {
  Schedule schedule;
  schedule.requested_codes = codes;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = codes;
  s.support_path = {0, 1, 2, 3, 4};
  if (dual) s.core_path = {0, 1, 2, 3, 4};
  s.ec_servers = std::move(ec);
  schedule.scheduled.push_back(s);
  return schedule;
}

std::string dump(const SimulationResult& r) {
  std::ostringstream out;
  out << r.codes_scheduled << '/' << r.codes_delivered << '/'
      << r.codes_succeeded << '/' << r.total_latency << '\n';
  for (const auto& c : r.codes)
    out << c.request << ' ' << c.slots << ' ' << c.corrections << ' '
        << static_cast<int>(c.outcome) << '\n';
  return out.str();
}

std::string jsonl_of(const obs::TraceBuffer& buffer) {
  std::string out;
  for (const auto& event : buffer.events()) out += obs::to_jsonl(event) + "\n";
  return out;
}

/// Blank the "timers" section of a metrics document (measured wall-clock,
/// the one legitimately run-varying part).
std::string without_timers(std::string json) {
  const auto begin = json.find("\"timers\": {");
  if (begin == std::string::npos) return json;
  const auto end = json.find('}', begin);
  return json.erase(begin, end - begin + 1);
}

/// Drop the Event policy's own observability keys ("sim.event_*": queue
/// peak and visit/skip counters) — the documented, deliberate metric
/// difference between the engines. Everything else must match bitwise.
std::string without_event_engine_keys(std::string json) {
  for (;;) {
    const auto pos = json.find("\"sim.event_");
    if (pos == std::string::npos) return json;
    auto end = json.find_first_of(",}", pos);  // values are plain numbers
    std::size_t begin = pos;
    if (end != std::string::npos && json[end] == ',') {
      ++end;
      while (end < json.size() && (json[end] == ' ' || json[end] == '\n'))
        ++end;
    } else {
      const auto prev = json.find_last_of(",{", pos);
      if (prev != std::string::npos && json[prev] == ',') begin = prev;
    }
    json.erase(begin, end - begin);
  }
}

struct RunOutput {
  std::string result;
  std::string trace;
  std::string metrics;
  std::vector<std::uint64_t> rng_tail;  ///< draws after the run
};

RunOutput run_engine(SimEngine engine, const Topology& topo,
                     const Schedule& schedule, SimulationParams params,
                     std::uint64_t seed, bool observed) {
  const decoder::SurfNetDecoder dec;
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  if (observed) params.sink = {&metrics, &trace};
  util::Rng rng(seed);
  const auto simulator = make_simulator(NetworkDesign::SurfNet, dec, engine);
  const auto result = simulator->run(topo, schedule, params, rng);
  RunOutput out;
  out.result = dump(result);
  out.trace = jsonl_of(trace);
  out.metrics = without_event_engine_keys(without_timers(metrics.to_json()));
  for (int i = 0; i < 4; ++i) out.rng_tail.push_back(rng());
  return out;
}

void expect_bitwise(const Topology& topo, const Schedule& schedule,
                    const SimulationParams& params, std::uint64_t seed,
                    bool observed, const char* label) {
  const auto slot = run_engine(SimEngine::Slot, topo, schedule, params, seed,
                               observed);
  const auto event = run_engine(SimEngine::Event, topo, schedule, params,
                                seed, observed);
  EXPECT_EQ(slot.result, event.result) << label << ": SimulationResult";
  EXPECT_EQ(slot.trace, event.trace) << label << ": trace";
  EXPECT_EQ(slot.metrics, event.metrics) << label << ": metrics";
  EXPECT_EQ(slot.rng_tail, event.rng_tail) << label << ": RNG stream";
}

TEST(EventEngine, NamesAndFallbacks) {
  EXPECT_EQ(to_string(SimEngine::Slot), "slot");
  EXPECT_EQ(to_string(SimEngine::Event), "event");
  EXPECT_EQ(to_string(EventClass::FaultOnset), "fault_onset");
  EXPECT_EQ(to_string(EventClass::EntanglementReady), "entanglement_ready");
  const decoder::SurfNetDecoder dec;
  EXPECT_EQ(make_simulator(NetworkDesign::SurfNet, dec, SimEngine::Event)
                ->name(),
            "surfnet-event");
  EXPECT_EQ(make_simulator(NetworkDesign::Raw, dec, SimEngine::Slot)->name(),
            "surfnet");
  // Purification has one per-slot loop under either selection.
  EXPECT_EQ(
      make_simulator(NetworkDesign::Purification2, dec, SimEngine::Event)
          ->name(),
      "purification");

  // With no engine argument, the factory and simulate_surfnet both run
  // Event: only Event reports its "sim.event_*" visit counters.
  EXPECT_EQ(make_simulator(NetworkDesign::SurfNet, dec)->name(),
            "surfnet-event");
  const Topology topo = ring_topology();
  obs::MetricsRegistry by_default, by_slot;
  SimulationParams params;
  params.sink.metrics = &by_default;
  util::Rng rng_default(3);
  simulate_surfnet(topo, one_request(1, true), params, dec, rng_default);
  params.sink.metrics = &by_slot;
  util::Rng rng_slot(3);
  simulate_surfnet(topo, one_request(1, true), params, dec, rng_slot,
                   SimEngine::Slot);
  EXPECT_GT(by_default.counter("sim.event_slots_visited"), 0);
  EXPECT_EQ(by_slot.counter("sim.event_slots_visited"), 0);
}

// ------------------------------------------------------- differentials --

TEST(EventEngineDifferential, GoldenFaultCampaignBitwise) {
  // The exact configuration pinned by golden/ring_faults.jsonl: scripted
  // events of every kind (including a fractional-rate degradation window:
  // 3.0 * 0.3) plus a stochastic fiber-cut process, fully observed.
  SimulationParams params;
  params.max_slots = 300;
  params.entanglement_rate = 3.0;
  params.faults.scripted.push_back(
      {FaultKind::EntanglementDegradation, 10, 0, 40, 0.3});
  params.faults.scripted.push_back({FaultKind::FiberCut, 25, 1, 30, 1.0});
  params.faults.scripted.push_back({FaultKind::DecodeStall, 40, -1, 10, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 60, 5, 20, 1.0});
  params.faults.stochastic.fiber_cut_rate = 0.02;
  params.faults.stochastic.fiber_cut_duration = 15;
  expect_bitwise(ring_topology(), one_request(6, true, {2}), params, 20240806,
                 /*observed=*/true, "fault campaign");
}

TEST(EventEngineDifferential, GoldenRecoveryCampaignBitwise) {
  // The golden/ring_recovery.jsonl configuration: permanent cut, flaky
  // swaps, aggressive recovery, per-code timeout budget.
  SimulationParams params;
  params.max_slots = 600;
  params.swap_success = 0.5;
  params.recovery = RecoveryPolicy::aggressive();
  params.recovery.code_timeout_slots = 120;
  params.faults.scripted.push_back({FaultKind::FiberCut, 5, 1, 5000, 1.0});
  expect_bitwise(ring_topology(), one_request(4, true, {2}), params, 424242,
                 /*observed=*/true, "recovery campaign");
}

TEST(EventEngineDifferential, SkipModeScriptedFaultsBitwise) {
  // Null sink + one request + scripted-only faults + integral base rate:
  // the configuration where the event engine actually skips slots. The
  // scripted set stresses every wake path — blocked support, broken core
  // segments, a fractional degradation window, a decode stall over the
  // barrier, and recovery escalation over a long gap.
  SimulationParams params;
  params.max_slots = 2000;
  params.entanglement_rate = 3.0;
  params.swap_success = 0.5;
  params.recovery = RecoveryPolicy::aggressive();
  params.recovery.code_timeout_slots = 300;
  params.faults.scripted.push_back({FaultKind::FiberCut, 5, 1, 80, 1.0});
  params.faults.scripted.push_back(
      {FaultKind::EntanglementDegradation, 30, 2, 60, 0.5});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 100, 3, 40, 1.0});
  params.faults.scripted.push_back({FaultKind::DecodeStall, 150, -1, 25, 1.0});
  for (const bool dual : {true, false})
    for (const std::uint64_t seed : {7u, 99u, 20240808u})
      expect_bitwise(ring_topology(), one_request(5, dual, {2}), params, seed,
                     /*observed=*/false, "skip mode");
}

TEST(EventEngineDifferential, QuiescentStarvedRunCensorsAtCapBitwise) {
  // Zero generation rate and no faults: the core channel can never jump,
  // the event queue drains to empty, and the engine must censor the
  // in-flight code at max_slots - 1 exactly like the oracle's 20000-slot
  // sweep — without visiting the dead slots.
  SimulationParams params;
  params.entanglement_rate = 0.0;
  params.recovery.code_timeout_slots = 0;  // no budget: runs to the cap
  expect_bitwise(ring_topology(), one_request(2, true, {2}), params, 11,
                 /*observed=*/false, "starved run");
}

TEST(EventEngineDifferential, HeldWithoutRecoveryBitwise) {
  // local_reroute disabled: a blocked channel holds in place (inert) until
  // the window expires; wake-ups must come from the queued fault expiry.
  SimulationParams params;
  params.max_slots = 1500;
  params.entanglement_rate = 4.0;
  params.recovery.local_reroute = false;
  params.faults.scripted.push_back({FaultKind::FiberCut, 3, 0, 400, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 500, 2, 200, 1.0});
  expect_bitwise(ring_topology(), one_request(3, true, {2}), params, 5150,
                 /*observed=*/false, "held code");
}

TEST(EventEngineDifferential, EnginesAgreeThroughRunTrials) {
  // Facade-level check: core::run_trials always runs the Event policy. An
  // attached sink forces the Slot visit pattern (every slot, eager pools);
  // without one, Event skips idle slots and draws pools lazily. Over a
  // chaotic multi-request scenario and a calm one, the aggregates of the
  // two paths must agree bitwise.
  auto chaotic = core::make_scenario(core::FacilityLevel::Sufficient,
                                     core::ConnectionQuality::Poor);
  chaotic.simulation.faults.stochastic.correlated_cut_rate = 0.01;
  chaotic.simulation.faults.stochastic.node_outage_rate = 0.002;
  chaotic.simulation.faults.stochastic.degradation_rate = 0.01;
  chaotic.simulation.faults.stochastic.degradation_factor = 0.4;
  chaotic.simulation.swap_success = 0.85;
  chaotic.simulation.recovery = RecoveryPolicy::aggressive();
  const auto calm = core::make_scenario(core::FacilityLevel::Sufficient,
                                        core::ConnectionQuality::Good);

  auto run = [](const core::ScenarioParams& params, bool observed) {
    obs::TraceBuffer trace;
    obs::MetricsRegistry metrics;
    core::RunOptions options;
    options.seed = 20240806;
    if (observed) options.sink = {&metrics, &trace};
    const auto agg =
        core::run_trials(params, core::NetworkDesign::SurfNet, 4, options);
    EXPECT_EQ(observed, !trace.events().empty());
    std::ostringstream summary;
    summary.precision(17);
    summary << agg.fidelity.count() << ' ' << agg.fidelity.mean() << ' '
            << agg.latency.mean() << ' ' << agg.throughput.count() << ' '
            << agg.throughput.mean();
    return summary.str();
  };
  EXPECT_EQ(run(chaotic, true), run(chaotic, false));
  EXPECT_EQ(run(calm, true), run(calm, false));
}

}  // namespace
}  // namespace surfnet::netsim
