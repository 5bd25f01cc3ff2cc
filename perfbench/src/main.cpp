// End-to-end benchmark driver. Usage:
//
//   perfbench_driver --workload batch_pipeline|traffic_stream|decode_fig8
//                    --seed N --seconds S --trace 0|1
//                    [--spans-out FILE]
//
// Prints a few human-readable lines, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when an output check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "batch_pipeline|traffic_stream|decode_fig8 --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  std::unique_ptr<perfbench::Workload> workload;
  if (options.workload == "batch_pipeline")
    workload = perfbench::make_batch_pipeline(options);
  else if (options.workload == "traffic_stream")
    workload = perfbench::make_traffic_stream(options);
  else if (options.workload == "decode_fig8")
    workload = perfbench::make_decode_fig8(options);
  else
    usage(("unknown workload '" + options.workload + "'").c_str());

  try {
    const perfbench::Result result =
        perfbench::run_workload(*workload, options);
    perfbench::print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
