// The benchmark's three workloads (README.md in this directory says why each
// exists). One call runs one trial of one workload from scratch and returns
// every metric it produced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "src/bench/driver.h"

namespace perfbench {

struct Trial {
  std::string workload;
  uint64_t seed = 1;
  // Traced run: host clock around every index call and per-component
  // virtual-time scope timing, for the per-layer metrics.
  bool traced = false;
};

const std::vector<std::string>& WorkloadNames();

// RunConfig of the driver workloads (ingest_uniform, read_zipf) at full
// size; ingest_uniform also needs SeededKeys as its preset key set.
cclbt::bench::RunConfig DriverConfig(const std::string& workload, uint64_t seed);

// Runs one trial. Broken invariants land in the report's errors.
Report RunTrial(const Trial& trial);

// `count` distinct odd keys drawn from `seed` (different seeds give
// unrelated key sets).
std::vector<uint64_t> SeededKeys(uint64_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
