// Benchmark binary. perfbench/run.py builds and drives it; see README.md.
//
//   perfbench trial --workload NAME --seed N [--traced]
//       runs one trial and prints its readings as one JSON line
//   perfbench selftest
//       checks the benchmark's own measurement code
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "selftest.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench trial --workload NAME --seed N [--traced]\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "selftest") {
    return perfbench::RunSelfTest();
  }
  if (argc < 2 || std::string(argv[1]) != "trial") {
    return Usage();
  }
  perfbench::Trial trial;
  for (int i = 2; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--traced") {
      trial.traced = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      trial.workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      trial.seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), trial.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", trial.workload.c_str());
    return Usage();
  }
  perfbench::RunTrial(trial).Print(stdout);
  return 0;
}
