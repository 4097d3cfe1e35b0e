#include "obs/recorder.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "obs/report.h"
#include "obs/timeline.h"

namespace aligraph {
namespace obs {

namespace {

/// Deterministic slow-first order: larger total first, request id breaks
/// ties so equal-latency requests keep a stable order.
bool SlowerThan(const RequestBudget& a, const RequestBudget& b) {
  if (a.total_us != b.total_us) return a.total_us > b.total_us;
  return a.request_id < b.request_id;
}

void WriteBudgetComponents(JsonWriter& w, const RequestBudget& budget) {
  w.BeginObject();
  for (size_t c = 0; c < kNumBudgetComponents; ++c) {
    if (budget.components[c] == 0.0) continue;  // sparse: zeros are implied
    w.Key(BudgetComponentName(static_cast<BudgetComponent>(c)))
        .Value(budget.components[c]);
  }
  w.EndObject();
}

void WriteComponentArray(JsonWriter& w,
                         const std::array<double, kNumBudgetComponents>& v) {
  w.BeginObject();
  for (size_t c = 0; c < kNumBudgetComponents; ++c) {
    if (v[c] == 0.0) continue;
    w.Key(BudgetComponentName(static_cast<BudgetComponent>(c))).Value(v[c]);
  }
  w.EndObject();
}

void WriteCohort(JsonWriter& w, const CohortAttribution& cohort) {
  w.BeginObject();
  w.Key("requests").Value(static_cast<uint64_t>(cohort.requests));
  w.Key("threshold_us").Value(cohort.threshold_us);
  w.Key("total_us").Value(cohort.total_us);
  w.Key("mean_total_us").Value(cohort.mean_total_us);
  w.Key("mean_us");
  WriteComponentArray(w, cohort.mean_us);
  w.Key("share");
  WriteComponentArray(w, cohort.share);
  w.EndObject();
}

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->IsNumber() ? v->number : fallback;
}

/// Reads the integer member `key` of `obj` into `*out`, leaving `*out` as
/// it is when the member is absent. A dump is outside input, so a value
/// that is not an integer literal inside T's range is refused, never cast.
/// The literal is parsed, not the double, so every 64-bit value is exact.
template <typename T>
Status ReadInt(const JsonValue& obj, std::string_view key, T* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->IsNumber()) {
    return Status::InvalidArgument(std::string(key) + " is not a number");
  }
  const std::string& literal = v->string_value;
  const char* end = literal.data() + literal.size();
  T x{};
  const auto [ptr, ec] = std::from_chars(literal.data(), end, x);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(std::string(key) +
                                   " is not an integer in range");
  }
  *out = x;
  return Status::OK();
}

Status ParseComponents(const JsonValue& obj,
                       std::array<double, kNumBudgetComponents>* out) {
  if (!obj.IsObject()) {
    return Status::InvalidArgument("components must be an object");
  }
  for (const auto& [key, value] : obj.members) {
    auto component = BudgetComponentFromName(key);
    if (!component.ok()) return component.status();
    if (!value.IsNumber()) {
      return Status::InvalidArgument("component " + key + " is not a number");
    }
    (*out)[static_cast<size_t>(*component)] = value.number;
  }
  return Status::OK();
}

Status ParseCohort(const JsonValue& obj, CohortAttribution* out) {
  if (!obj.IsObject()) {
    return Status::InvalidArgument("cohort must be an object");
  }
  ALIGRAPH_RETURN_NOT_OK(ReadInt(obj, "requests", &out->requests));
  out->threshold_us = NumberOr(obj.Find("threshold_us"), 0);
  out->total_us = NumberOr(obj.Find("total_us"), 0);
  out->mean_total_us = NumberOr(obj.Find("mean_total_us"), 0);
  if (const JsonValue* mean = obj.Find("mean_us")) {
    auto st = ParseComponents(*mean, &out->mean_us);
    if (!st.ok()) return st;
  }
  if (const JsonValue* share = obj.Find("share")) {
    auto st = ParseComponents(*share, &out->share);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {}

void FlightRecorder::Offer(const RequestBudget& budget,
                           std::map<std::string, uint64_t> counters) {
  const uint64_t n = offered_++;

  // Slowest-K over completed requests (shed requests have zero latency and
  // abandoned ones all share the deadline; the uniform reservoir covers
  // their population instead).
  if (config_.slowest_k > 0 &&
      budget.outcome == RequestBudget::Outcome::kCompleted) {
    const bool full = slowest_.size() >= config_.slowest_k;
    if (!full || SlowerThan(budget, slowest_.back().budget)) {
      auto pos = std::upper_bound(
          slowest_.begin(), slowest_.end(), budget,
          [](const RequestBudget& b, const Entry& e) {
            return SlowerThan(b, e.budget);
          });
      slowest_.insert(pos, Entry{budget, counters, {}});
      if (slowest_.size() > config_.slowest_k) slowest_.pop_back();
    }
  }

  // Uniform reservoir over every offered request. Replacement draws are a
  // pure hash of (seed, offer index), so the retained set is a function of
  // the offer stream alone — same run, same exemplars, every machine.
  if (config_.sample_k > 0) {
    if (sample_.size() < config_.sample_k) {
      sample_.push_back(Entry{budget, std::move(counters), {}});
    } else {
      const uint64_t j = Mix64(config_.seed ^ Mix64(n + 1)) % (n + 1);
      if (j < config_.sample_k) {
        sample_[static_cast<size_t>(j)] = Entry{budget, std::move(counters), {}};
      }
    }
  }
}

size_t FlightRecorder::CaptureTraces(const std::vector<SpanEvent>& events) {
  const TraceForest forest = AssembleTraces(events);
  std::unordered_map<uint64_t, const TraceTree*> by_id;
  by_id.reserve(forest.traces.size());
  for (const TraceTree& tree : forest.traces) by_id[tree.trace_id] = &tree;

  size_t matched = 0;
  const auto attach = [&](Entry& entry) {
    if (entry.budget.trace_id == 0 || !entry.spans.empty()) return;
    auto it = by_id.find(entry.budget.trace_id);
    if (it == by_id.end()) return;
    entry.spans.reserve(it->second->nodes.size());
    for (const TraceNode& node : it->second->nodes) {
      entry.spans.push_back(node.event);
    }
    ++matched;
  };
  for (Entry& e : slowest_) attach(e);
  for (Entry& e : sample_) attach(e);
  return matched;
}

void FlightRecorder::SetAttribution(const AttributionReport& report) {
  attribution_ = report;
  has_attribution_ = true;
}

std::vector<Exemplar> FlightRecorder::Exemplars() const {
  std::vector<Exemplar> out;
  out.reserve(slowest_.size() + sample_.size());
  for (const Entry& e : slowest_) {
    Exemplar ex;
    ex.budget = e.budget;
    ex.slow = true;
    ex.counters = e.counters;
    ex.spans = e.spans;
    out.push_back(std::move(ex));
  }
  std::vector<const Entry*> extra;
  for (const Entry& e : sample_) {
    bool dup = false;
    for (Exemplar& ex : out) {
      if (ex.budget.request_id == e.budget.request_id) {
        ex.sampled = true;
        dup = true;
        break;
      }
    }
    if (!dup) extra.push_back(&e);
  }
  std::sort(extra.begin(), extra.end(), [](const Entry* a, const Entry* b) {
    return a->budget.request_id < b->budget.request_id;
  });
  for (const Entry* e : extra) {
    Exemplar ex;
    ex.budget = e->budget;
    ex.sampled = true;
    ex.counters = e->counters;
    ex.spans = e->spans;
    out.push_back(std::move(ex));
  }
  return out;
}

std::string FlightRecorder::ToJson(const std::string& name) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(static_cast<uint64_t>(1));
  w.Key("name").Value(name);
  w.Key("offered").Value(offered_);
  w.Key("config").BeginObject();
  w.Key("slowest_k").Value(static_cast<uint64_t>(config_.slowest_k));
  w.Key("sample_k").Value(static_cast<uint64_t>(config_.sample_k));
  w.Key("seed").Value(config_.seed);
  w.EndObject();
  if (has_attribution_) {
    w.Key("attribution").BeginObject();
    w.Key("requests").Value(attribution_.requests);
    w.Key("p_low").Value(attribution_.p_low);
    w.Key("p_high").Value(attribution_.p_high);
    w.Key("coverage").Value(attribution_.coverage);
    w.Key("min_coverage").Value(attribution_.min_coverage);
    w.Key("low");
    WriteCohort(w, attribution_.low);
    w.Key("high");
    WriteCohort(w, attribution_.high);
    w.EndObject();
  }
  w.Key("exemplars").BeginArray();
  for (const Exemplar& ex : Exemplars()) {
    w.BeginObject();
    w.Key("request_id").Value(ex.budget.request_id);
    w.Key("trace_id").Value(ex.budget.trace_id);
    w.Key("outcome").Value(BudgetOutcomeName(ex.budget.outcome));
    w.Key("slow").Value(ex.slow);
    w.Key("sampled").Value(ex.sampled);
    w.Key("total_us").Value(ex.budget.total_us);
    w.Key("components");
    WriteBudgetComponents(w, ex.budget);
    w.Key("counters").BeginObject();
    for (const auto& [key, value] : ex.counters) w.Key(key).Value(value);
    w.EndObject();
    w.Key("spans").BeginArray();
    for (const SpanEvent& span : ex.spans) {
      w.BeginObject();
      w.Key("name").Value(span.name);
      w.Key("trace_id").Value(span.trace_id);
      w.Key("span_id").Value(span.span_id);
      w.Key("parent_span_id").Value(span.parent_span_id);
      w.Key("depth").Value(static_cast<uint64_t>(span.depth));
      w.Key("thread").Value(static_cast<uint64_t>(span.thread));
      w.Key("start_ns").Value(span.start_ns);
      w.Key("duration_ns").Value(span.duration_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status FlightRecorder::WriteJson(const std::string& path,
                                 const std::string& name) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      return Status::IoError("cannot create " + p.parent_path().string() +
                             ": " + ec.message());
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out << ToJson(name) << "\n";
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<RecorderDump> ParseRecorderDump(std::string_view json) {
  auto parsed = JsonValue::Parse(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = *parsed;
  if (!doc.IsObject()) {
    return Status::InvalidArgument("recorder dump is not an object");
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->IsNumber()) {
    return Status::InvalidArgument(
        "recorder dump has no schema_version — not a flight-recorder dump");
  }
  if (version->number != 1.0) {
    return Status::InvalidArgument("unsupported recorder dump schema_version");
  }
  RecorderDump dump;
  if (const JsonValue* name = doc.Find("name"); name && name->IsString()) {
    dump.name = name->string_value;
  }
  ALIGRAPH_RETURN_NOT_OK(ReadInt(doc, "offered", &dump.offered));
  if (const JsonValue* cfg = doc.Find("config"); cfg && cfg->IsObject()) {
    ALIGRAPH_RETURN_NOT_OK(
        ReadInt(*cfg, "slowest_k", &dump.config.slowest_k));
    ALIGRAPH_RETURN_NOT_OK(ReadInt(*cfg, "sample_k", &dump.config.sample_k));
    ALIGRAPH_RETURN_NOT_OK(ReadInt(*cfg, "seed", &dump.config.seed));
  }
  if (const JsonValue* attr = doc.Find("attribution")) {
    if (!attr->IsObject()) {
      return Status::InvalidArgument("attribution must be an object");
    }
    dump.has_attribution = true;
    ALIGRAPH_RETURN_NOT_OK(
        ReadInt(*attr, "requests", &dump.attribution.requests));
    dump.attribution.p_low = NumberOr(attr->Find("p_low"), 50.0);
    dump.attribution.p_high = NumberOr(attr->Find("p_high"), 99.0);
    dump.attribution.coverage = NumberOr(attr->Find("coverage"), 1.0);
    dump.attribution.min_coverage = NumberOr(attr->Find("min_coverage"), 1.0);
    if (const JsonValue* low = attr->Find("low")) {
      auto st = ParseCohort(*low, &dump.attribution.low);
      if (!st.ok()) return st;
    }
    if (const JsonValue* high = attr->Find("high")) {
      auto st = ParseCohort(*high, &dump.attribution.high);
      if (!st.ok()) return st;
    }
  }
  const JsonValue* exemplars = doc.Find("exemplars");
  if (exemplars != nullptr) {
    if (!exemplars->IsArray()) {
      return Status::InvalidArgument("exemplars must be an array");
    }
    for (const JsonValue& item : exemplars->items) {
      if (!item.IsObject()) {
        return Status::InvalidArgument("exemplar must be an object");
      }
      Exemplar ex;
      ALIGRAPH_RETURN_NOT_OK(
          ReadInt(item, "request_id", &ex.budget.request_id));
      ALIGRAPH_RETURN_NOT_OK(ReadInt(item, "trace_id", &ex.budget.trace_id));
      if (const JsonValue* outcome = item.Find("outcome");
          outcome && outcome->IsString()) {
        auto parsed_outcome = BudgetOutcomeFromName(outcome->string_value);
        if (!parsed_outcome.ok()) return parsed_outcome.status();
        ex.budget.outcome = *parsed_outcome;
      }
      if (const JsonValue* slow = item.Find("slow")) {
        ex.slow = slow->bool_value;
      }
      if (const JsonValue* sampled = item.Find("sampled")) {
        ex.sampled = sampled->bool_value;
      }
      ex.budget.total_us = NumberOr(item.Find("total_us"), 0);
      if (const JsonValue* comps = item.Find("components")) {
        auto st = ParseComponents(*comps, &ex.budget.components);
        if (!st.ok()) return st;
      }
      if (const JsonValue* counters = item.Find("counters");
          counters && counters->IsObject()) {
        for (const auto& member : counters->members) {
          ALIGRAPH_RETURN_NOT_OK(
              ReadInt(*counters, member.first, &ex.counters[member.first]));
        }
      }
      if (const JsonValue* spans = item.Find("spans");
          spans && spans->IsArray()) {
        for (const JsonValue& sv : spans->items) {
          if (!sv.IsObject()) {
            return Status::InvalidArgument("span must be an object");
          }
          SpanEvent span;
          if (const JsonValue* name = sv.Find("name");
              name && name->IsString()) {
            span.name = name->string_value;
          }
          ALIGRAPH_RETURN_NOT_OK(ReadInt(sv, "trace_id", &span.trace_id));
          ALIGRAPH_RETURN_NOT_OK(ReadInt(sv, "span_id", &span.span_id));
          ALIGRAPH_RETURN_NOT_OK(
              ReadInt(sv, "parent_span_id", &span.parent_span_id));
          ALIGRAPH_RETURN_NOT_OK(ReadInt(sv, "depth", &span.depth));
          ALIGRAPH_RETURN_NOT_OK(ReadInt(sv, "thread", &span.thread));
          ALIGRAPH_RETURN_NOT_OK(ReadInt(sv, "start_ns", &span.start_ns));
          ALIGRAPH_RETURN_NOT_OK(
              ReadInt(sv, "duration_ns", &span.duration_ns));
          ex.spans.push_back(std::move(span));
        }
      }
      dump.exemplars.push_back(std::move(ex));
    }
  }
  return dump;
}

}  // namespace obs
}  // namespace aligraph
