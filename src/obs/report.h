/// \file report.h
/// \brief Machine-readable run reports: a minimal JSON writer/parser and a
/// RunReport that serializes metrics, span aggregates and bench tables to
/// bench/out/<name>.json.
///
/// The bench harness prints human tables; the trajectory tooling needs the
/// same numbers machine-readable. One RunReport per bench run holds:
///   - meta: free-form run parameters (scale, seed, dataset, ...)
///   - metrics: the bench's headline numbers (flat name -> double)
///   - counters/gauges/histograms: a MetricsSnapshot of the attached
///     registry (comm counters, bucket drops, cache hit/miss, ...)
///   - spans: per-stage wall-time breakdowns from the attached Tracer
///   - tables: the printed text tables, cell-for-cell
///
/// Schema (stable, versioned by "schema_version"):
/// {
///   "schema_version": 1, "name": "...",
///   "build": {"git_sha":"...","compiler":"...","build_type":"..."},
///   "meta": {...}, "metrics": {...},
///   "counters": {...}, "gauges": {...},
///   "histograms": {"h": {"count":N,"sum":S,"bounds":[...],"counts":[...]}},
///   "spans": {"s": {"count":N,"total_us":T,"min_us":m,"max_us":M,"depth":d}},
///   "tables": [{"name":"...","columns":[...],"rows":[[...],...]}]
/// }
/// "metrics" keys are emitted sorted by name so two reports of the same run
/// diff cleanly and the regression gate's walk order is stable.

#ifndef ALIGRAPH_OBS_REPORT_H_
#define ALIGRAPH_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aligraph {
namespace obs {

/// \brief Streaming JSON writer with automatic comma placement. Doubles are
/// written with enough digits to round-trip; NaN/Inf degrade to null.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(bool v);
  JsonWriter& Null();

  const std::string& str() const { return out_; }

 private:
  void MaybeComma();
  void AppendEscaped(std::string_view s);

  std::string out_;
  std::vector<bool> needs_comma_;  // one flag per open scope
};

/// \brief Parsed JSON document (recursive value). Good enough to read the
/// reports this module writes back: objects, arrays, strings, doubles,
/// bools, null, with standard escapes.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0;
  /// kString: the decoded text. kNumber: the literal as written, so an
  /// integer past 2^53 can be read exactly (see ParseRecorderDump).
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  std::vector<JsonValue> items;                            ///< kArray

  /// Object member by key, or null when absent / not an object.
  const JsonValue* Find(std::string_view key) const;

  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }
  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(std::string_view text);
};

/// \brief One bench run's machine-readable output.
class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void AddMeta(const std::string& key, const std::string& value);
  void AddMeta(const std::string& key, double value);

  /// Records which build produced the run (see common/build_info.h); the
  /// report's "build" object stays empty until this is called.
  void SetBuildInfo(const std::string& git_sha, const std::string& compiler,
                    const std::string& build_type);

  /// Headline number, e.g. "taobao_small.neighborhood_ms".
  void AddMetric(const std::string& name, double value);

  /// Starts a new table; subsequent AddRow calls append to it.
  void AddTable(const std::string& table_name,
                std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);

  /// Copies the registry / tracer state into the report (call at the end
  /// of the run, before writing).
  void AttachMetrics(const MetricsSnapshot& snapshot);
  void AttachSpans(const std::map<std::string, SpanStats>& spans);

  std::string ToJson() const;

  /// Writes <dir>/<name>.json (creating <dir> if needed). Returns the path
  /// written through `out_path` when non-null.
  Status WriteFile(const std::string& dir = "bench/out",
                   std::string* out_path = nullptr) const;

 private:
  struct Table {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::string>> build_info_;
  std::vector<std::pair<std::string, std::string>> meta_strings_;
  std::vector<std::pair<std::string, double>> meta_numbers_;
  std::vector<std::pair<std::string, double>> metrics_;
  MetricsSnapshot snapshot_;
  std::map<std::string, SpanStats> spans_;
  std::vector<Table> tables_;
};

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_REPORT_H_
