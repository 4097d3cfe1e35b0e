/// \file bench_compare.cc
/// \brief CLI regression gate over run-report JSONs.
///
/// Usage:
///   bench_compare [--tolerance=0.10] [--metric-tolerance=NAME=TOL]...
///                 [--metric-slack=NAME=ABS] [--higher-better=NAME]...
///                 <baseline.json> <candidate.json> [candidate2.json]...
///   bench_compare --list [gate flags]... <baseline.json> [candidate.json]...
///
/// --list prints the gate CONTRACT instead of enforcing it: every gated key
/// with its baseline value, resolved tolerance, absolute slack and
/// direction (and, when candidates are given, the last-wins candidate
/// value). Always exits 0 unless the inputs are unreadable — it is the
/// "what would the gate check" introspection for CI logs and for humans
/// editing bench/baseline.json.
///
/// Walks the baseline's "metrics" object and compares each against the
/// candidates with the given relative tolerance; --metric-tolerance
/// overrides the default for one metric and may repeat. --metric-slack
/// widens one metric's bound by an ABSOLUTE amount on top of the relative
/// tolerance (the right units for latency-percentile keys, where the tail
/// sits on a single observation) and may repeat. Metrics default to
/// lower-is-better; --higher-better flips one metric's direction (speedups,
/// hit rates) and may repeat. Several candidate reports may each cover part
/// of the baseline's contract (e.g. the table4 and table5 smoke runs): the
/// LAST candidate carrying a metric wins, and only a metric absent from all
/// of them counts as missing.
/// A --metric-tolerance, --metric-slack or --higher-better on a key the
/// baseline does not carry would gate nothing, so it is a usage error, in
/// both modes: a misspelt key fails loudly instead of passing in silence.
/// Exit codes: 0 = gate passed, 1 = regression or missing metric,
/// 2 = usage / unreadable file / malformed JSON / gate flag on an unknown
/// key.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/compare.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--tolerance=R] "
               "[--metric-tolerance=NAME=R]... [--metric-slack=NAME=ABS]... "
               "[--higher-better=NAME]... <baseline.json> "
               "<candidate.json>...\n       (--list needs no candidates)\n",
               argv0);
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  aligraph::obs::CompareOptions options;
  bool list_mode = false;
  std::string baseline_path;
  std::vector<std::string> candidate_paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list_mode = true;
    } else if (std::strncmp(arg, "--tolerance=", 12) == 0) {
      char* end = nullptr;
      options.default_tolerance = std::strtod(arg + 12, &end);
      if (end == arg + 12 || *end != '\0' || options.default_tolerance < 0) {
        std::fprintf(stderr, "bad --tolerance value: %s\n", arg + 12);
        return 2;
      }
    } else if (std::strncmp(arg, "--metric-tolerance=", 19) == 0) {
      const char* spec = arg + 19;
      const char* eq = std::strrchr(spec, '=');
      if (eq == nullptr || eq == spec) return Usage(argv[0]);
      char* end = nullptr;
      const double tol = std::strtod(eq + 1, &end);
      if (end == eq + 1 || *end != '\0' || tol < 0) {
        std::fprintf(stderr, "bad --metric-tolerance value: %s\n", spec);
        return 2;
      }
      options.per_metric_tolerance[std::string(spec, eq)] = tol;
    } else if (std::strncmp(arg, "--metric-slack=", 15) == 0) {
      const char* spec = arg + 15;
      const char* eq = std::strrchr(spec, '=');
      if (eq == nullptr || eq == spec) return Usage(argv[0]);
      char* end = nullptr;
      const double slack = std::strtod(eq + 1, &end);
      if (end == eq + 1 || *end != '\0' || slack < 0) {
        std::fprintf(stderr, "bad --metric-slack value: %s\n", spec);
        return 2;
      }
      options.per_metric_slack[std::string(spec, eq)] = slack;
    } else if (std::strncmp(arg, "--higher-better=", 16) == 0) {
      if (arg[16] == '\0') return Usage(argv[0]);
      options.higher_is_better.insert(arg + 16);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      return Usage(argv[0]);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else {
      candidate_paths.push_back(arg);
    }
  }
  if (baseline_path.empty()) return Usage(argv[0]);
  if (candidate_paths.empty() && !list_mode) return Usage(argv[0]);

  std::string baseline_json;
  if (!ReadFile(baseline_path, &baseline_json)) {
    std::fprintf(stderr, "cannot read baseline: %s\n", baseline_path.c_str());
    return 2;
  }
  const auto baseline = aligraph::obs::JsonValue::Parse(baseline_json);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_compare: baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  const aligraph::obs::JsonValue* base_metrics = baseline->Find("metrics");
  if (base_metrics == nullptr || !base_metrics->IsObject()) {
    std::fprintf(stderr, "bench_compare: baseline has no \"metrics\"\n");
    return 2;
  }
  const auto unknown = [&](const char* flag, const std::string& name) {
    const aligraph::obs::JsonValue* value = base_metrics->Find(name);
    if (value != nullptr && value->IsNumber()) return false;
    std::fprintf(stderr, "bench_compare: %s%s: %s has no such metric\n", flag,
                 name.c_str(), baseline_path.c_str());
    return true;
  };
  for (const auto& [name, tol] : options.per_metric_tolerance) {
    if (unknown("--metric-tolerance=", name)) return 2;
  }
  for (const auto& [name, slack] : options.per_metric_slack) {
    if (unknown("--metric-slack=", name)) return 2;
  }
  for (const std::string& name : options.higher_is_better) {
    if (unknown("--higher-better=", name)) return 2;
  }

  std::vector<aligraph::obs::JsonValue> candidates;
  candidates.reserve(candidate_paths.size());
  for (const std::string& path : candidate_paths) {
    std::string json;
    if (!ReadFile(path, &json)) {
      std::fprintf(stderr, "cannot read candidate: %s\n", path.c_str());
      return 2;
    }
    auto parsed = aligraph::obs::JsonValue::Parse(json);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    candidates.push_back(std::move(*parsed));
  }
  std::vector<const aligraph::obs::JsonValue*> candidate_ptrs;
  candidate_ptrs.reserve(candidates.size());
  for (const auto& c : candidates) candidate_ptrs.push_back(&c);

  if (list_mode) {
    std::printf("gate contract: %s (%zu metric(s), default tolerance "
                "%.0f%%)\n",
                baseline_path.c_str(), base_metrics->members.size(),
                100.0 * options.default_tolerance);
    for (const auto& [name, value] : base_metrics->members) {
      if (!value.IsNumber()) continue;
      const auto tol_it = options.per_metric_tolerance.find(name);
      const double tol = tol_it == options.per_metric_tolerance.end()
                             ? options.default_tolerance
                             : tol_it->second;
      const auto slack_it = options.per_metric_slack.find(name);
      const double slack = slack_it == options.per_metric_slack.end()
                               ? options.absolute_slack
                               : slack_it->second;
      const bool higher = options.higher_is_better.count(name) != 0;
      // Same last-wins resolution the gate itself applies.
      std::string cand = "-";
      for (auto it = candidate_ptrs.rbegin(); it != candidate_ptrs.rend();
           ++it) {
        const aligraph::obs::JsonValue* m = (*it)->Find("metrics");
        const aligraph::obs::JsonValue* found =
            m == nullptr ? nullptr : m->Find(name);
        if (found != nullptr && found->IsNumber()) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.6g", found->number);
          cand = buf;
          break;
        }
      }
      std::printf("%-48s baseline=%-12.6g candidate=%-12s tol=%-5.0f%% "
                  "slack=%-10.4g %s\n",
                  name.c_str(), value.number, cand.c_str(), 100.0 * tol,
                  slack, higher ? "higher-better" : "lower-better");
    }
    return 0;
  }

  const auto result =
      aligraph::obs::CompareReports(*baseline, candidate_ptrs, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  std::printf("baseline:  %s\n", baseline_path.c_str());
  for (const std::string& path : candidate_paths) {
    std::printf("candidate: %s\n", path.c_str());
  }
  std::printf("%s\n", result->ToString().c_str());
  if (!result->ok()) {
    std::printf("GATE FAILED\n");
    return 1;
  }
  std::printf("gate passed\n");
  return 0;
}
