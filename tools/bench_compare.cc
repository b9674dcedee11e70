// CI regression gate: diffs a candidate bench JSON report (--json output
// of any bench driver) against a committed baseline and exits non-zero
// when a metric drifts beyond its statistical bounds. With --identical
// it instead requires the two reports to be equal once their `timing`
// blocks are dropped, and names the first path where they differ.
//
// Usage: bench_compare BASELINE.json CANDIDATE.json
//          [--rel-tol X]               (default 0.01)
//          [--max-wall-regress PCT]    (default: wall metrics not gated)
//          [--strict-counters]
//        bench_compare --identical A.json B.json
//
// Exit status: 0 pass, 1 drift or difference found, 2 usage, I/O or
// parse error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "tools/bench_compare_lib.h"

namespace airindex {
namespace {

double ParseDoubleArg(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    std::exit(2);
  }
  char* end = nullptr;
  const double value = std::strtod(argv[++*i], &end);
  // A NaN or infinite tolerance would silently pass every comparison.
  if (end == argv[*i] || *end != '\0' || !std::isfinite(value)) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag, argv[*i]);
    std::exit(2);
  }
  return value;
}

Result<BenchReport> LoadReport(const std::string& path) {
  Result<JsonValue> json = ReadJsonFile(path);
  if (!json.ok()) return json.status();
  return BenchReportFromJson(json.value());
}

int CheckIdentical(const std::string& a_path, const std::string& b_path) {
  Result<JsonValue> a = ReadJsonFile(a_path);
  if (!a.ok()) {
    std::cerr << a_path << ": " << a.status().ToString() << "\n";
    return 2;
  }
  Result<JsonValue> b = ReadJsonFile(b_path);
  if (!b.ok()) {
    std::cerr << b_path << ": " << b.status().ToString() << "\n";
    return 2;
  }
  if (const std::optional<std::string> diff =
          FirstReportDifference(a.value(), b.value())) {
    std::cout << "FAIL: " << a_path << " and " << b_path << " differ at "
              << *diff << "\n";
    return 1;
  }
  std::cout << "OK: " << a_path << " and " << b_path
            << " are identical (timing excluded)\n";
  return 0;
}

int Main(int argc, char** argv) {
  CompareOptions options;
  bool identical = false;
  bool gate_flags = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rel-tol") == 0) {
      options.rel_tol = ParseDoubleArg(argc, argv, &i, "--rel-tol");
      gate_flags = true;
    } else if (std::strcmp(argv[i], "--max-wall-regress") == 0) {
      options.max_wall_regress_percent =
          ParseDoubleArg(argc, argv, &i, "--max-wall-regress");
      gate_flags = true;
    } else if (std::strcmp(argv[i], "--strict-counters") == 0) {
      options.strict_counters = true;
      gate_flags = true;
    } else if (std::strcmp(argv[i], "--identical") == 0) {
      identical = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  // The gate's tolerances mean nothing to an identity check, so a mix is
  // a usage error rather than flags silently ignored.
  if (paths.size() != 2 || (identical && gate_flags)) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CANDIDATE.json "
                 "[--rel-tol X] [--max-wall-regress PCT] "
                 "[--strict-counters]\n"
                 "       bench_compare --identical A.json B.json\n");
    return 2;
  }
  if (identical) return CheckIdentical(paths[0], paths[1]);

  Result<BenchReport> baseline = LoadReport(paths[0]);
  if (!baseline.ok()) {
    std::cerr << "baseline " << paths[0] << ": "
              << baseline.status().ToString() << "\n";
    return 2;
  }
  Result<BenchReport> candidate = LoadReport(paths[1]);
  if (!candidate.ok()) {
    std::cerr << "candidate " << paths[1] << ": "
              << candidate.status().ToString() << "\n";
    return 2;
  }

  const CompareResult result =
      CompareBenchReports(baseline.value(), candidate.value(), options);
  for (const std::string& note : result.notes) {
    std::cout << "note: " << note << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cout << "FAIL: " << failure << "\n";
  }
  if (!result.passed()) {
    std::cout << result.failures.size() << " regression(s) against "
              << paths[0] << "\n";
    return 1;
  }
  std::cout << "OK: " << baseline.value().points.size()
            << " baseline point(s) matched within bounds\n";
  return 0;
}

}  // namespace
}  // namespace airindex

int main(int argc, char** argv) { return airindex::Main(argc, argv); }
