// YCSB runner: drive any index with any of the paper's workload mixes from
// the command line and print throughput + amplification, e.g.
//
//   ./build/examples/ycsb_runner cclbtree insert-intensive 48 500000
//   ./build/examples/ycsb_runner fptree scan-insert 24 100000
//
// Usage: ycsb_runner [index] [mix] [threads] [ops]
//   index:  cclbtree fptree lbtree pactree fastfair utree dptree flatstore lsmstore
//   mix:    insert-only insert-intensive read-intensive read-only scan-insert
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/bench/driver.h"

int main(int argc, char** argv) {
  using namespace cclbt;
  using namespace cclbt::bench;

  std::string index_name = argc > 1 ? argv[1] : "cclbtree";
  std::string mix_name = argc > 2 ? argv[2] : "insert-intensive";
  int threads = argc > 3 ? std::atoi(argv[3]) : 48;
  uint64_t ops = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 400'000;

  const YcsbMix* mix = nullptr;
  for (const YcsbMix& candidate : kYcsbMixes) {
    if (mix_name == candidate.name) {
      mix = &candidate;
    }
  }
  if (mix == nullptr) {
    std::fprintf(stderr, "unknown mix '%s'\n", mix_name.c_str());
    return 1;
  }

  RunConfig config;
  config.threads = threads;
  config.warm_keys = ops;
  config.ops = mix->scan_pct > 50 ? ops / 20 : ops;
  config.mix = mix;
  config.metrics = true;

  std::printf("index=%s mix=%s threads=%d warm=%llu ops=%llu\n", index_name.c_str(), mix->name,
              threads, (unsigned long long)config.warm_keys, (unsigned long long)config.ops);
  RunResult result = RunIndexWorkload(index_name, config);
  std::printf("throughput      : %.2f Mop/s (modeled, %.1f ms virtual)\n", result.mops,
              result.elapsed_virtual_ms);
  std::printf("amplification   : CLI %.2f   XBI %.2f\n", result.cli_amplification,
              result.xbi_amplification);
  std::printf("media traffic   : %.1f MB written, %.1f MB read\n",
              static_cast<double>(result.stats.media_write_bytes) / 1e6,
              static_cast<double>(result.stats.media_read_bytes) / 1e6);
  std::printf("latency (us)    : p50 %.2f  p90 %.2f  p99 %.2f  p99.9 %.2f\n",
              static_cast<double>(result.latency.Percentile(50)) / 1e3,
              static_cast<double>(result.latency.Percentile(90)) / 1e3,
              static_cast<double>(result.latency.Percentile(99)) / 1e3,
              static_cast<double>(result.latency.Percentile(99.9)) / 1e3);
  std::printf("footprint       : DRAM %.1f MB, PM %.1f MB\n",
              static_cast<double>(result.footprint.dram_bytes) / 1e6,
              static_cast<double>(result.footprint.pm_bytes) / 1e6);
  return 0;
}
