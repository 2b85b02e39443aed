// The repository benchmark: runs one workload and prints, as the
// last line of standard output, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "meta" line with the run metadata. Usually started through
// run.py, which builds this binary first.
//
//   perfbench --workload <paper_mix|fleet_rpc|write_mix> --seed <n>
//             --seconds <s> --trace <0|1> --server <shard_server>
//             [--run-dir <dir>]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  Now();  // Starts the process clock setup_s is measured on.

  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (!MakeDirs(args.run_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.run_dir.c_str());
    return 2;
  }

  const HostCpu host_before = HostCpu::Read();
  RunResult result;
  if (args.workload == "paper_mix") {
    result = RunPaperMix(args);
  } else if (args.workload == "fleet_rpc") {
    result = RunFleetRpc(args);
  } else if (args.workload == "write_mix") {
    result = RunWriteMix(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::string meta = "{\"workload\":" + JsonString(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + JsonNumber(args.seconds) +
                     ",\"trace\":" + (args.trace ? "true" : "false") +
                     ",\"git_sha\":" + JsonString(sha ? sha : "unknown") +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                     ",\"host_steal_share\":" +
                     JsonNumber(HostCpu::Read().StealShareSince(host_before));
  for (const auto& [key, value] : result.meta) {
    meta += "," + JsonString(key) + ":" + value;
  }
  meta += ",\"problems\":[";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    meta += (i ? "," : "") + JsonString(result.problems[i]);
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n",
                 result.problems[i].c_str());
  }
  meta += "]}";
  std::printf("meta %s\n", meta.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  // A wrong answer fails the run.
  return result.correct ? 0 : 1;
}
