#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

// Checks the benchmark's measurement code; returns the process exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
