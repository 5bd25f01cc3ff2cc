#include "netsim/io.h"

#include <gtest/gtest.h>

#include "routing/router.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

TEST(TopologyIo, RoundTripPreservesEverything) {
  util::Rng rng(101);
  TopologySpec spec;
  const auto original = make_random_topology(spec, rng);
  const auto restored =
      topology_from_string(topology_to_string(original));
  ASSERT_EQ(restored.num_nodes(), original.num_nodes());
  ASSERT_EQ(restored.num_fibers(), original.num_fibers());
  for (int v = 0; v < original.num_nodes(); ++v) {
    EXPECT_EQ(restored.node(v).role, original.node(v).role);
    EXPECT_EQ(restored.node(v).storage_capacity,
              original.node(v).storage_capacity);
  }
  for (int e = 0; e < original.num_fibers(); ++e) {
    EXPECT_EQ(restored.fiber(e).a, original.fiber(e).a);
    EXPECT_EQ(restored.fiber(e).b, original.fiber(e).b);
    EXPECT_DOUBLE_EQ(restored.fiber(e).fidelity,
                     original.fiber(e).fidelity);
    EXPECT_EQ(restored.fiber(e).entanglement_capacity,
              original.fiber(e).entanglement_capacity);
  }
}

TEST(TopologyIo, WriterIsDeterministic) {
  util::Rng rng(102);
  const auto topo = make_random_topology(TopologySpec{}, rng);
  EXPECT_EQ(topology_to_string(topo), topology_to_string(topo));
}

TEST(TopologyIo, RejectsMalformedInput) {
  EXPECT_THROW(topology_from_string("not a topology"),
               std::invalid_argument);
  EXPECT_THROW(topology_from_string("surfnet-topology v1\nnode 5 user 0\n"),
               std::invalid_argument);  // non-dense ids
  EXPECT_THROW(
      topology_from_string("surfnet-topology v1\nnode 0 wizard 0\n"),
      std::invalid_argument);  // unknown role
  EXPECT_THROW(
      topology_from_string("surfnet-topology v1\nfrobnicate 1 2\n"),
      std::invalid_argument);  // unknown record
}

TEST(ScheduleIo, RoundTripThroughRealRouter) {
  util::Rng rng(103);
  const auto topo = make_random_topology(TopologySpec{}, rng);
  const auto requests = random_requests(topo, 5, 3, rng);
  routing::RoutingParams params;
  params.core_noise_threshold = 0.5;
  params.total_noise_threshold = 0.6;
  const auto schedule =
      routing::route(topo, requests, params, rng).schedule;

  const auto restored =
      schedule_from_string(schedule_to_string(schedule));
  EXPECT_EQ(restored.requested_codes, schedule.requested_codes);
  ASSERT_EQ(restored.scheduled.size(), schedule.scheduled.size());
  for (std::size_t i = 0; i < schedule.scheduled.size(); ++i) {
    const auto& a = schedule.scheduled[i];
    const auto& b = restored.scheduled[i];
    EXPECT_EQ(b.request_index, a.request_index);
    EXPECT_EQ(b.codes, a.codes);
    EXPECT_EQ(b.code_distance, a.code_distance);
    EXPECT_EQ(b.support_path, a.support_path);
    EXPECT_EQ(b.core_path, a.core_path);
    EXPECT_EQ(b.ec_servers, a.ec_servers);
  }
  EXPECT_DOUBLE_EQ(restored.throughput(), schedule.throughput());
}

TEST(ScheduleIo, EmptyScheduleRoundTrips) {
  Schedule empty;
  empty.requested_codes = 7;
  const auto restored = schedule_from_string(schedule_to_string(empty));
  EXPECT_EQ(restored.requested_codes, 7);
  EXPECT_TRUE(restored.scheduled.empty());
}

TEST(ScheduleIo, RejectsMalformedInput) {
  EXPECT_THROW(schedule_from_string("garbage"), std::invalid_argument);
  EXPECT_THROW(schedule_from_string(
                   "surfnet-schedule v1\nrequest 0 1 0 support 2 0\n"),
               std::invalid_argument);  // truncated node list
}

/// Malformed document + the substring its error message must carry; the
/// message also always names the offending line.
struct RejectCase {
  const char* name;
  const char* text;
  const char* message;
};

class TopologyIoReject : public ::testing::TestWithParam<RejectCase> {};

TEST_P(TopologyIoReject, FailsWithClearMessage) {
  const auto& c = GetParam();
  try {
    topology_from_string(c.text);
    FAIL() << "expected std::invalid_argument for " << c.name;
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(c.message), std::string::npos)
        << "message was: " << err.what();
    EXPECT_NE(std::string(err.what()).find("line "), std::string::npos)
        << "message lacks a line number: " << err.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, TopologyIoReject,
    ::testing::Values(
        RejectCase{"duplicate_fiber",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber 0 1 0.9 5\nfiber 1 0 0.9 5\n",
                   "duplicate fiber"},
        RejectCase{"dangling_endpoint",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber 0 7 0.9 5\n",
                   "not a declared node"},
        RejectCase{"negative_endpoint",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber -1 1 0.9 5\n",
                   "not a declared node"},
        RejectCase{"self_loop",
                   "surfnet-topology v1\nnode 0 user 10\n"
                   "fiber 0 0 0.9 5\n",
                   "self-loop"},
        RejectCase{"negative_storage",
                   "surfnet-topology v1\nnode 0 user -3\n",
                   "negative storage capacity"},
        RejectCase{"negative_pair_capacity",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber 0 1 0.9 -5\n",
                   "negative entanglement capacity"},
        RejectCase{"fidelity_above_one",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber 0 1 1.5 5\n",
                   "fidelity outside [0, 1]"},
        RejectCase{"truncated_node",
                   "surfnet-topology v1\nnode 0 user\n",
                   "bad node record"},
        RejectCase{"truncated_fiber",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber 0 1 0.9\n",
                   "bad fiber record"},
        RejectCase{"trailing_garbage_node",
                   "surfnet-topology v1\nnode 0 user 10 oops\n",
                   "trailing garbage"},
        RejectCase{"node_after_fiber",
                   "surfnet-topology v1\nnode 0 user 10\nnode 1 switch 10\n"
                   "fiber 0 1 0.9 5\nnode 2 user 10\n",
                   "node record after fiber"}),
    [](const auto& info) { return info.param.name; });

class ScheduleIoReject : public ::testing::TestWithParam<RejectCase> {};

TEST_P(ScheduleIoReject, FailsWithClearMessage) {
  const auto& c = GetParam();
  try {
    schedule_from_string(c.text);
    FAIL() << "expected std::invalid_argument for " << c.name;
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(c.message), std::string::npos)
        << "message was: " << err.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, ScheduleIoReject,
    ::testing::Values(
        RejectCase{"negative_requested",
                   "surfnet-schedule v1\nrequested -2\n",
                   "negative requested"},
        RejectCase{"duplicate_requested",
                   "surfnet-schedule v1\nrequested 2\nrequested 3\n",
                   "duplicate requested"},
        RejectCase{"negative_request_index",
                   "surfnet-schedule v1\n"
                   "request -1 1 0 support 2 0 1 core 0 ec 0\n",
                   "negative request index"},
        RejectCase{"negative_codes",
                   "surfnet-schedule v1\n"
                   "request 0 -1 0 support 2 0 1 core 0 ec 0\n",
                   "negative code count"},
        RejectCase{"negative_node_in_list",
                   "surfnet-schedule v1\n"
                   "request 0 1 0 support 2 0 -4 core 0 ec 0\n",
                   "negative node id"},
        RejectCase{"trailing_garbage_request",
                   "surfnet-schedule v1\n"
                   "request 0 1 0 support 2 0 1 core 0 ec 0 zzz\n",
                   "trailing garbage"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace surfnet::netsim
