// perfbench -- one Portal workload per process:
//
//   perfbench --workload <batch-knn|batch-kde|serve-live|serve-ann>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
// same workload again with the obs layer on and prints the per-layer
// metrics it measures. The last stdout line is the JSON result;
// perfbench/run.py builds this binary, sets the thread environment before
// running it, and checks the printed metrics against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch-knn|batch-kde|serve-live|serve-ann> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else usage(("unknown option " + key).c_str());
  }
  if (!is_batch_workload(args.workload) && !is_serve_workload(args.workload))
    usage(("unknown workload '" + args.workload + "'").c_str());
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return name == "batch-knn" || name == "batch-kde";
}
bool is_serve_workload(const std::string& name) {
  return name == "serve-live" || name == "serve-ann";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Report report;
  if (is_batch_workload(args.workload))
    run_batch(args, report);
  else
    run_serve(args, report);
  report.print();
  return 0;
}
