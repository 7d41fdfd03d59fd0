// One trial's readings: named metrics tagged with their clock, the count of
// checked operations and of failed ones, and any broken invariant. Printed as
// one JSON line that perfbench/run.py aggregates across trials.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  // Deterministic reading (virtual time or a count): bit-identical for one
  // seed, run after run, traced or not.
  void Virtual(const std::string& name, double value, const char* unit) {
    Add(name, value, unit, false);
  }
  // Host wall-clock or memory reading: varies run to run.
  void Host(const std::string& name, double value, const char* unit) {
    Add(name, value, unit, true);
  }

  // Records a broken invariant when `ok` is false.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      errors_.push_back(what);
    }
  }

  // `attempted` operations ran; `failed` of them gave a wrong result (an
  // absent or stale read, a lost acknowledged write, a bad scan).
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void Print(std::FILE* out) const {
    std::fprintf(out, "{\"attempted\": %llu, \"failed\": %llu, \"errors\": [",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < errors_.size(); i++) {
      // Messages may quote outside text (a pool-open diagnostic); keep the
      // line valid JSON.
      std::string text;
      for (char c : errors_[i]) {
        text += c == '"' || c == '\\' ? '\'' : c;
      }
      std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", text.c_str());
    }
    std::fprintf(out, "], \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); i++) {
      const Metric& m = metrics_[i];
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"clock\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit,
                   m.host ? "host" : "virtual");
    }
    std::fprintf(out, "}}\n");
  }

 private:
  void Add(const std::string& name, double value, const char* unit, bool host) {
    // JSON has no NaN or infinity; a non-finite reading is a benchmark bug.
    Check(std::isfinite(value), "non-finite reading " + name);
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, host});
  }

  struct Metric {
    std::string name;
    double value;
    const char* unit;
    bool host;
  };

  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
