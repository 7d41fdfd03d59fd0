#include "src/metrics/pmmetrics.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

namespace cclbt::metrics {

namespace {

// `s` as a JSON string literal.
std::string Quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

void AppendOpSummaries(JsonLine& line, const char* key, const std::vector<OpLatencySummary>& vs) {
  line.Key(key).BeginArray();
  for (const OpLatencySummary& s : vs) {
    line.BeginObject()
        .Field("count", s.count)
        .Field("p50_ns", s.p50_ns)
        .Field("p99_ns", s.p99_ns)
        .Field("p999_ns", s.p999_ns)
        .Field("max_ns", s.max_ns)
        .EndObject();
  }
  line.EndArray();
}

// --- minimal JSON reader ----------------------------------------------------
// Parses exactly the subset JsonLine emits: objects, arrays, strings with
// \" \\ \uXXXX escapes, booleans, null, and non-negative integers.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      pos_++;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  bool ParseLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') {
      n++;
    }
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Eat('"')) {
      return false;
    }
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        return false;
      }
      char esc = s_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          *out += esc;
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; i++) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // Writer only emits \u00XX control escapes; anything wider is
          // replaced, not reconstructed.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{') {
      pos_++;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (Eat('}')) {
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipWs();
        if (!Eat(':')) {
          return false;
        }
        JsonValue v;
        if (!ParseValue(&v)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(v));
        SkipWs();
        if (Eat('}')) {
          return true;
        }
        if (!Eat(',')) {
          return false;
        }
      }
    }
    if (c == '[') {
      pos_++;
      out->kind = JsonValue::Kind::kArray;
      SkipWs();
      if (Eat(']')) {
        return true;
      }
      while (true) {
        JsonValue v;
        if (!ParseValue(&v)) {
          return false;
        }
        out->array.push_back(std::move(v));
        SkipWs();
        if (Eat(']')) {
          return true;
        }
        if (!Eat(',')) {
          return false;
        }
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = c == 't';
      return ParseLiteral(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return ParseLiteral("null");
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      out->kind = JsonValue::Kind::kNumber;
      out->number = 0;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        out->number = out->number * 10 + static_cast<uint64_t>(s_[pos_] - '0');
        pos_++;
      }
      return true;
    }
    return false;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::vector<uint64_t> GetU64Array(const JsonValue& obj, const char* key) {
  std::vector<uint64_t> out;
  for (const JsonValue& e : obj.Array(key)) {
    out.push_back(e.number);
  }
  return out;
}

std::vector<std::string> GetStringArray(const JsonValue& obj, const char* key) {
  std::vector<std::string> out;
  for (const JsonValue& e : obj.Array(key)) {
    out.push_back(e.str);
  }
  return out;
}

std::vector<OpLatencySummary> GetOpSummaryArray(const JsonValue& obj, const char* key) {
  std::vector<OpLatencySummary> out;
  for (const JsonValue& e : obj.Array(key)) {
    out.push_back({e.U64("count"), e.U64("p50_ns"), e.U64("p99_ns"), e.U64("p999_ns"),
                   e.U64("max_ns")});
  }
  return out;
}

}  // namespace

const JsonValue& JsonValue::At(const char* key) const {
  static const JsonValue kNull;
  for (const auto& [k, v] : object) {
    if (k == key) {
      return v;
    }
  }
  return kNull;
}

bool ParseJson(const std::string& text, JsonValue* out) { return JsonParser(text).Parse(out); }

JsonLine& JsonLine::Key(std::string_view key) { return Put(Quoted(key) + ':', false); }

JsonLine& JsonLine::Value(std::string_view s) { return Put(Quoted(s), true); }

std::string SerializeHeader(const PmMetricsHeader& header) {
  return JsonLine("header")
      .Field("pmmetrics", kPmMetricsVersion)
      .Field("label", header.label)
      .Field("backend", header.backend)
      .Field("epoch_ns", header.epoch_ns)
      .Field("threads", header.threads)
      .Field("ops", header.ops)
      .Array("op_kinds", header.op_kinds)
      .Array("components", header.components)
      .Finish();
}

std::string SerializeEpoch(const EpochRecord& epoch) {
  JsonLine line("epoch");
  line.Field("i", epoch.index)
      .Field("t_ns", epoch.t_ns)
      .Array("ops", epoch.ops)
      .Array("p50_ns", epoch.p50_ns)
      .Array("p99_ns", epoch.p99_ns)
      .Array("p999_ns", epoch.p999_ns)
      .Field("user_bytes", epoch.user_bytes)
      .Field("xpbuffer_write_bytes", epoch.xpbuffer_write_bytes)
      .Field("media_write_bytes", epoch.media_write_bytes)
      .Field("media_read_bytes", epoch.media_read_bytes)
      .Field("line_flushes", epoch.line_flushes)
      .Field("fences", epoch.fences)
      .Array("comp_bytes", epoch.comp_bytes)
      .Key("xpbuf")
      .BeginObject()
      .Field("resident", epoch.xpbuf_resident)
      .Field("insertions", epoch.xpbuf_insertions)
      .Field("evictions", epoch.xpbuf_evictions)
      .EndObject()
      .Key("gauges")
      .BeginObject();
  for (const auto& [name, value] : epoch.gauges) {
    line.Field(name, value);
  }
  return line.EndObject().Finish();
}

std::string SerializeEpochSeries(const EpochSeries& series) {
  std::string out;
  for (const EpochRecord& e : series) {
    out += SerializeEpoch(e);
  }
  return out;
}

std::string SerializeSummary(const PmMetricsSummary& summary) {
  JsonLine line("summary");
  line.Field("elapsed_virtual_ns", summary.elapsed_virtual_ns);
  AppendOpSummaries(line, "virt", summary.virt);
  AppendOpSummaries(line, "wall", summary.wall);
  return line.Finish();
}

OpLatencySummary SummarizeHistogram(const Histogram& h) {
  OpLatencySummary s;
  s.count = h.Count();
  s.p50_ns = h.Percentile(50);
  s.p99_ns = h.Percentile(99);
  s.p999_ns = h.Percentile(99.9);
  s.max_ns = h.Max();
  return s;
}

bool ReadPmMetricsFile(const std::string& path, PmMetricsFile* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::string line;
  size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    lineno++;
    if (line.empty()) {
      continue;
    }
    JsonValue v;
    if (!ParseJson(line, &v) || v.kind != JsonValue::Kind::kObject) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(lineno) + ": malformed JSON line";
      }
      return false;
    }
    const std::string type = v.Str("type");
    if (type == "header") {
      if (v.U64("pmmetrics") != kPmMetricsVersion) {
        if (error != nullptr) {
          *error = path + ": unsupported pmmetrics version";
        }
        return false;
      }
      out->header.label = v.Str("label");
      out->header.backend = v.Str("backend");
      out->header.epoch_ns = v.U64("epoch_ns");
      out->header.threads = v.U64("threads");
      out->header.ops = v.U64("ops");
      out->header.op_kinds = GetStringArray(v, "op_kinds");
      out->header.components = GetStringArray(v, "components");
      saw_header = true;
    } else if (type == "epoch") {
      EpochRecord e;
      e.index = v.U64("i");
      e.t_ns = v.U64("t_ns");
      e.ops = GetU64Array(v, "ops");
      e.p50_ns = GetU64Array(v, "p50_ns");
      e.p99_ns = GetU64Array(v, "p99_ns");
      e.p999_ns = GetU64Array(v, "p999_ns");
      e.user_bytes = v.U64("user_bytes");
      e.xpbuffer_write_bytes = v.U64("xpbuffer_write_bytes");
      e.media_write_bytes = v.U64("media_write_bytes");
      e.media_read_bytes = v.U64("media_read_bytes");
      e.line_flushes = v.U64("line_flushes");
      e.fences = v.U64("fences");
      e.comp_bytes = GetU64Array(v, "comp_bytes");
      const JsonValue& xpbuf = v.At("xpbuf");
      e.xpbuf_resident = xpbuf.U64("resident");
      e.xpbuf_insertions = xpbuf.U64("insertions");
      e.xpbuf_evictions = xpbuf.U64("evictions");
      for (const auto& [name, value] : v.At("gauges").object) {
        e.gauges.emplace_back(name, value.number);
      }
      out->epochs.push_back(std::move(e));
    } else if (type == "summary") {
      out->has_summary = true;
      out->summary.elapsed_virtual_ns = v.U64("elapsed_virtual_ns");
      out->summary.virt = GetOpSummaryArray(v, "virt");
      out->summary.wall = GetOpSummaryArray(v, "wall");
    } else {
      out->records.push_back(std::move(v));
    }
  }
  if (!saw_header) {
    if (error != nullptr) {
      *error = path + ": no header record";
    }
    return false;
  }
  return true;
}

}  // namespace cclbt::metrics
