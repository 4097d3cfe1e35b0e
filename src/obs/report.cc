#include "obs/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace aligraph {
namespace obs {

// ---------------------------------------------------------------------------
// JsonWriter

void JsonWriter::MaybeComma() {
  if (needs_comma_.empty()) return;
  if (needs_comma_.back()) {
    out_.push_back(',');
  } else {
    needs_comma_.back() = true;
  }
}

void JsonWriter::AppendEscaped(std::string_view s) {
  out_.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  AppendEscaped(key);
  out_.push_back(':');
  // The value that follows must not emit another comma.
  if (!needs_comma_.empty()) needs_comma_.back() = false;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  MaybeComma();
  AppendEscaped(v);
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  if (!std::isfinite(v)) return Null();
  MaybeComma();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  MaybeComma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  MaybeComma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  MaybeComma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// JsonValue parser

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view with a cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    Status s = ParseValue(&v, /*depth=*/0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Status::InvalidArgument("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') return Err("expected object key");
      std::string key;
      ALIGRAPH_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (Peek() != ':') return Err("expected ':'");
      ++pos_;
      JsonValue value;
      ALIGRAPH_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Status::OK();
      }
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue item;
      ALIGRAPH_RETURN_NOT_OK(ParseValue(&item, depth + 1));
      out->items.push_back(std::move(item));
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Status::OK();
      }
      return Err("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Err("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad hex digit in \\u escape");
          }
          // Reports only emit \u00XX control escapes; encode as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseKeyword(JsonValue* out) {
    const std::string_view rest = text_.substr(pos_);
    if (rest.starts_with("true")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      pos_ += 4;
      return Status::OK();
    }
    if (rest.starts_with("false")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      pos_ += 5;
      return Status::OK();
    }
    if (rest.starts_with("null")) {
      out->type = JsonValue::Type::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return Err("unknown keyword");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Err("malformed number");
    // strtod saturates values past DBL_MAX to +/-inf; the writer never
    // emits non-finite numbers, so treat overflow as a parse error instead
    // of letting inf/nan leak into report consumers.
    if (!std::isfinite(v)) return Err("number out of range");
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    out->string_value = token;
    return Status::OK();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

// ---------------------------------------------------------------------------
// RunReport

void RunReport::AddMeta(const std::string& key, const std::string& value) {
  meta_strings_.emplace_back(key, value);
}

void RunReport::AddMeta(const std::string& key, double value) {
  meta_numbers_.emplace_back(key, value);
}

void RunReport::SetBuildInfo(const std::string& git_sha,
                             const std::string& compiler,
                             const std::string& build_type) {
  build_info_.clear();
  build_info_.emplace_back("git_sha", git_sha);
  build_info_.emplace_back("compiler", compiler);
  build_info_.emplace_back("build_type", build_type);
}

void RunReport::AddMetric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void RunReport::AddTable(const std::string& table_name,
                         std::vector<std::string> columns) {
  tables_.push_back(Table{table_name, std::move(columns), {}});
}

void RunReport::AddRow(std::vector<std::string> cells) {
  if (tables_.empty()) AddTable("default", {});
  tables_.back().rows.push_back(std::move(cells));
}

void RunReport::AttachMetrics(const MetricsSnapshot& snapshot) {
  snapshot_ = snapshot;
}

void RunReport::AttachSpans(const std::map<std::string, SpanStats>& spans) {
  spans_ = spans;
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(static_cast<uint64_t>(1));
  w.Key("name").Value(name_);

  w.Key("build").BeginObject();
  for (const auto& [k, v] : build_info_) w.Key(k).Value(v);
  w.EndObject();

  w.Key("meta").BeginObject();
  for (const auto& [k, v] : meta_strings_) w.Key(k).Value(v);
  for (const auto& [k, v] : meta_numbers_) w.Key(k).Value(v);
  w.EndObject();

  // Sorted so identical runs serialize byte-identically regardless of the
  // order the bench recorded its headline numbers in.
  std::vector<std::pair<std::string, double>> metrics = metrics_;
  std::sort(metrics.begin(), metrics.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.Key("metrics").BeginObject();
  for (const auto& [k, v] : metrics) w.Key(k).Value(v);
  w.EndObject();

  w.Key("counters").BeginObject();
  for (const auto& [k, v] : snapshot_.counters) w.Key(k).Value(v);
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (const auto& [k, v] : snapshot_.gauges) w.Key(k).Value(v);
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (const auto& [k, h] : snapshot_.histograms) {
    w.Key(k).BeginObject();
    w.Key("count").Value(h.count);
    w.Key("sum").Value(h.sum);
    w.Key("mean").Value(h.mean());
    w.Key("p50").Value(h.Percentile(50));
    w.Key("p95").Value(h.Percentile(95));
    w.Key("p99").Value(h.Percentile(99));
    w.Key("p999").Value(h.Percentile(99.9));
    w.Key("bounds").BeginArray();
    for (const double b : h.bounds) w.Value(b);
    w.EndArray();
    w.Key("counts").BeginArray();
    for (const uint64_t c : h.counts) w.Value(c);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  w.Key("spans").BeginObject();
  for (const auto& [k, s] : spans_) {
    w.Key(k).BeginObject();
    w.Key("count").Value(s.count);
    w.Key("total_us").Value(s.total_us);
    w.Key("mean_us").Value(s.mean_us());
    w.Key("min_us").Value(s.min_us);
    w.Key("max_us").Value(s.max_us);
    w.Key("depth").Value(static_cast<uint64_t>(s.depth));
    w.EndObject();
  }
  w.EndObject();

  w.Key("tables").BeginArray();
  for (const Table& t : tables_) {
    w.BeginObject();
    w.Key("name").Value(t.name);
    w.Key("columns").BeginArray();
    for (const auto& c : t.columns) w.Value(c);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : t.rows) {
      w.BeginArray();
      for (const auto& cell : row) w.Value(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.str();
}

Status RunReport::WriteFile(const std::string& dir,
                            std::string* out_path) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  const std::string path = dir + "/" + name_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out << ToJson() << "\n";
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  if (out_path != nullptr) *out_path = path;
  return Status::OK();
}

}  // namespace obs
}  // namespace aligraph
