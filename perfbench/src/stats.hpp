// Small statistics and bookkeeping helpers of the benchmark driver,
// header-only so the self-test links none of the repository's libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Quantile q in [0, 1] by linear interpolation between closest ranks
// (the "linear" rule of numpy and of Python's statistics module with
// method='inclusive'). Empty input gives NaN.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The highest quantile level, at most `target`, that still leaves at
// least `beyond` of `n` samples above it: min(target, 1 - beyond / n).
// It never drops below the median, so a run too short for any tail
// reports its median as the tail.
inline double tail_level(std::size_t n, double target = 0.99,
                         std::size_t beyond = 10) {
  if (n == 0) return 0.5;
  const double cap =
      1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::max(0.5, std::min(target, cap));
}

// How one session (one run_client call) ended.
enum class Outcome { kVerified, kUnverified, kThrew };

// Counts sessions by outcome. failed = threw + unverified, so
// failed_frac is the share of attempted sessions that did not produce a
// checked, correct result.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t unverified = 0;
  std::uint64_t threw = 0;

  void record(Outcome o) {
    ++attempted;
    if (o == Outcome::kUnverified) ++unverified;
    if (o == Outcome::kThrew) ++threw;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    unverified += o.unverified;
    threw += o.threw;
  }
  [[nodiscard]] std::uint64_t failed() const { return unverified + threw; }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// JSON number with every significant digit of the double.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The benchmark's result line: {"correct", "attempted", "failed", "metrics"}.
inline std::string result_json(bool correct, const Tally& t,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
