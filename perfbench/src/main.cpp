//===-- perfbench/src/main.cpp - Benchmark driver entry point ------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--source-id <id>]
//
// Prints a host stamp, one line per metric, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 0 when every
// output check passed, 1 when one failed, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pbzip-rr|httpd-rr|litmus-explore|httpd-fleet --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--source-id ID]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string SourceId = "unknown";
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I];
    const char *Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val);
    else if (Key == "--trace")
      O.Trace = std::strcmp(Val, "0") != 0;
    else if (Key == "--work-dir")
      O.WorkDir = Val;
    else if (Key == "--source-id")
      SourceId = Val;
    else
      return usage(("unknown argument " + Key).c_str());
  }
  if (Argc % 2 == 0)
    return usage("every option takes a value");
  if (O.WorkDir.empty() || O.Seconds <= 0)
    return usage("--work-dir and a positive --seconds are required");

  using WorkloadFn = void (*)(const Options &, Report &);
  const std::map<std::string, WorkloadFn> Workloads = {
      {"pbzip-rr", runPbzipRr},
      {"httpd-rr", runHttpdRr},
      {"litmus-explore", runLitmusExplore},
      {"httpd-fleet", runHttpdFleet},
  };
  const auto It = Workloads.find(O.Workload);
  if (It == Workloads.end())
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  std::printf("host {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
              "\"%s %s\", \"source\": \"%s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, SourceId.c_str());
  std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);

  std::error_code Ec;
  std::filesystem::remove_all(O.WorkDir, Ec);
  std::filesystem::create_directories(O.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 O.WorkDir.c_str(), Ec.message().c_str());
    return 2;
  }

  Report R;
  It->second(O, R);
  std::filesystem::remove_all(O.WorkDir, Ec);

  Report::note("fail_frac",
               R.attempted() ? static_cast<double>(R.failed()) /
                                   static_cast<double>(R.attempted())
                             : 0.0,
               "ratio",
               std::to_string(R.failed()) + " failed of " +
                   std::to_string(R.attempted()) + " checked operations");
  std::printf("%s\n", R.json().c_str());
  std::fflush(stdout);
  return R.failed() == 0 && R.attempted() > 0 ? 0 : 1;
}
