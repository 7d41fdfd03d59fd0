// .pmmetrics — the one dump a measured run writes (CCL_METRICS=<prefix>) and
// tools/pmctl reads. JSON lines, one record per line, one file per run
// (DESIGN.md §13):
//
//   {"type":"header", ...}    run identity: label, backend, epoch_ns,
//                             threads, ops, plus the op-kind / component
//                             name tables that index the arrays
//   {"type":"epoch", ...}     one per virtual-time epoch: windowed pmsim
//                             stats (user/xpbuffer/media bytes -> windowed
//                             XBI/CLI), windowed media bytes by component,
//                             windowed per-op-kind latency percentiles
//                             (virtual ns), cumulative XPBuffer occupancy /
//                             insertion / eviction gauges, and the gauges
//                             pulled from the index and the front end
//   {"type":"summary", ...}   end-of-run totals incl. the WALL-time latency
//                             histograms
//   {"type":"stats", ...}     the phase's pmsim counters by name and its
//                             per-component media bytes, committed lines
//                             and read-modify-write evictions
//   {"type":"heat", ...}      sparse XPLine write heatmap    (CCL_TRACE=1)
//   {"type":"ring", ...}      one worker's trace events      (CCL_TRACE=1)
//   {"type":"checker", ...}   one per enabled checker; a later record of
//                             the same checker supersedes an earlier one
//
// Header, epoch and summary have typed structs below; the other records are
// written with JsonLine and read as JsonValue (src/bench/measured_phase.cc,
// tools/pmctl.cc).
//
// Determinism contract: every record but the summary contains virtual-time /
// count data only and is bit-identical run-to-run for a deterministic
// RunConfig (the CI determinism gate diffs them). Everything derived from
// wall time lives exclusively in the summary record.
//
// Invariant (extends the PR 2 sum-to-total contract to every window): in
// every epoch record, sum(comp_bytes) == media_write_bytes. `pmctl series`
// exits nonzero when any epoch violates it.
#ifndef SRC_METRICS_PMMETRICS_H_
#define SRC_METRICS_PMMETRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/metrics/histogram.h"

namespace cclbt::metrics {

inline constexpr int kPmMetricsVersion = 1;

struct PmMetricsHeader {
  std::string label;
  // Persistence-domain backend slug of the run's device ("adr" / "eadr" /
  // "cxl"; empty in dumps from writers that predate backends).
  std::string backend;
  uint64_t epoch_ns = 0;
  uint64_t threads = 0;
  uint64_t ops = 0;
  // Name tables indexing the epoch-record arrays, in serialized order.
  std::vector<std::string> op_kinds;
  std::vector<std::string> components;
};

// One virtual-time window. All byte/count fields except the xpbuf_* gauges
// are windowed deltas over [previous epoch end, t_ns]; xpbuf_* are
// cumulative values sampled at t_ns (windowed eviction rate = delta of
// consecutive records).
struct EpochRecord {
  uint64_t index = 0;
  uint64_t t_ns = 0;  // window end, virtual time
  std::vector<uint64_t> ops;      // per op kind
  std::vector<uint64_t> p50_ns;   // windowed virtual-latency percentiles
  std::vector<uint64_t> p99_ns;   //   (0 where the window had no ops of
  std::vector<uint64_t> p999_ns;  //    that kind)
  uint64_t user_bytes = 0;
  uint64_t xpbuffer_write_bytes = 0;
  uint64_t media_write_bytes = 0;
  uint64_t media_read_bytes = 0;
  uint64_t line_flushes = 0;
  uint64_t fences = 0;
  std::vector<uint64_t> comp_bytes;  // windowed media bytes per component
  uint64_t xpbuf_resident = 0;       // cumulative gauges at t_ns
  uint64_t xpbuf_insertions = 0;
  uint64_t xpbuf_evictions = 0;
  std::vector<std::pair<std::string, uint64_t>> gauges;  // pulled at t_ns

  // Windowed amplification (paper §2.1, per epoch instead of endpoint).
  double WindowCli() const {
    return user_bytes == 0 ? 0.0
                           : static_cast<double>(xpbuffer_write_bytes) /
                                 static_cast<double>(user_bytes);
  }
  double WindowXbi() const {
    return user_bytes == 0
               ? 0.0
               : static_cast<double>(media_write_bytes) / static_cast<double>(user_bytes);
  }
  uint64_t TotalOps() const {
    uint64_t n = 0;
    for (uint64_t v : ops) {
      n += v;
    }
    return n;
  }
  uint64_t ComponentBytesTotal() const {
    uint64_t n = 0;
    for (uint64_t v : comp_bytes) {
      n += v;
    }
    return n;
  }
  // The gauge named `name`, or 0 when the epoch has none.
  uint64_t Gauge(std::string_view name) const {
    for (const auto& [key, value] : gauges) {
      if (key == name) {
        return value;
      }
    }
    return 0;
  }
};

using EpochSeries = std::vector<EpochRecord>;

// Per-op-kind latency digest in the summary record.
struct OpLatencySummary {
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
};

struct PmMetricsSummary {
  uint64_t elapsed_virtual_ns = 0;
  std::vector<OpLatencySummary> virt;  // per op kind, deterministic
  std::vector<OpLatencySummary> wall;  // per op kind, host wall time
};

// One parsed JSON value: objects, arrays, strings, booleans, null and
// non-negative integers (everything numeric in .pmmetrics is a uint64).
struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  uint64_t number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  // The member `key` of an object, or a null value when there is none. A
  // value's number, string, array and object are 0 / empty unless it is of
  // that kind, so the accessors below need no kind checks.
  const JsonValue& At(const char* key) const;
  uint64_t U64(const char* key) const { return At(key).number; }
  const std::string& Str(const char* key) const { return At(key).str; }
  const std::vector<JsonValue>& Array(const char* key) const { return At(key).array; }
};

// Parses one JSON value spanning all of `text`; false on malformed input.
bool ParseJson(const std::string& text, JsonValue* out);

// Builds one record line. Every call places its own separator, so a writer
// lists keys and values in order and never writes a comma:
//   JsonLine("heat").Field("units", 8).Key("bins").BeginArray()...
class JsonLine {
 public:
  // Opens the record: {"type":"<type>"
  explicit JsonLine(const char* type) { Field("type", type); }

  JsonLine& Key(std::string_view key);
  JsonLine& Value(uint64_t v) { return Put(std::to_string(v), true); }
  JsonLine& Value(std::string_view s);
  JsonLine& Bool(bool b) { return Put(b ? "true" : "false", true); }
  JsonLine& BeginArray() { return Put("[", false); }
  JsonLine& EndArray() { return Close(']'); }
  JsonLine& BeginObject() { return Put("{", false); }
  JsonLine& EndObject() { return Close('}'); }

  // Key(key) followed by the value `v`, or by the array of `vs` (a vector or
  // a C array).
  template <typename T>
  JsonLine& Field(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }
  template <typename Range>
  JsonLine& Array(std::string_view key, const Range& vs) {
    Key(key).BeginArray();
    for (const auto& v : vs) {
      Value(v);
    }
    return EndArray();
  }

  // Closes the record and returns it with its trailing newline.
  std::string Finish() { return std::move(out_) + "}\n"; }

 private:
  // Appends `text` after a comma if it follows a value; `ends_value` says
  // whether `text` completes one.
  JsonLine& Put(std::string_view text, bool ends_value) {
    if (comma_) {
      out_ += ',';
    }
    out_ += text;
    comma_ = ends_value;
    return *this;
  }
  JsonLine& Close(char c) {
    out_ += c;
    comma_ = true;
    return *this;
  }

  std::string out_ = "{";
  bool comma_ = false;
};

// A parsed .pmmetrics file (tools/pmctl).
struct PmMetricsFile {
  PmMetricsHeader header;
  EpochSeries epochs;
  bool has_summary = false;
  PmMetricsSummary summary;
  // Every other record (stats, heat, ring, checker, and types this reader
  // does not know), in file order.
  std::vector<JsonValue> records;
};

// --- serialization (one "...\n" JSON line each; key order is fixed so the
// deterministic records diff bit-identically) -------------------------------
std::string SerializeHeader(const PmMetricsHeader& header);
std::string SerializeEpoch(const EpochRecord& epoch);
// All epoch lines concatenated — the deterministic payload the CI gate and
// the snapshot-determinism tests compare.
std::string SerializeEpochSeries(const EpochSeries& series);
std::string SerializeSummary(const PmMetricsSummary& summary);

OpLatencySummary SummarizeHistogram(const Histogram& h);

// --- parsing ----------------------------------------------------------------
// Parses a .pmmetrics file. Returns false and fills *error on malformed
// input, naming the line.
bool ReadPmMetricsFile(const std::string& path, PmMetricsFile* out, std::string* error);

}  // namespace cclbt::metrics

#endif  // SRC_METRICS_PMMETRICS_H_
