// Self-test of the driver's helpers (stats.hpp). Exits non-zero on the
// first failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failed = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failed;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;

  // quantile: linear interpolation between closest ranks, order-free.
  check(near(quantile({3, 1, 2}, 0.5), 2), "median of 3");
  check(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "median of 4 interpolates");
  check(near(quantile({1, 2, 3, 4, 5}, 0.25), 2), "first quartile");
  check(near(quantile({7}, 0.99), 7), "single sample");
  check(std::isnan(quantile({}, 0.5)), "empty input is NaN");

  // tail_level: p99 only once 10 samples lie beyond it.
  check(near(tail_level(1000), 0.99), "1000 samples support p99");
  check(near(tail_level(5000), 0.99), "never above the target");
  check(near(tail_level(500), 0.98), "500 samples: 10 beyond p98");
  check(near(tail_level(100), 0.90), "100 samples: p90");
  check(near(tail_level(12), 0.5), "too few samples: falls back to the median");
  check(near(tail_level(0), 0.5), "no samples");
  {
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i) v.push_back(i);
    const double lvl = tail_level(v.size());
    const double t = quantile(v, lvl);
    int beyond = 0;
    for (double x : v) beyond += x > t ? 1 : 0;
    check(beyond >= 10, "tail value leaves at least 10 samples beyond it");
  }

  // Tally: thrown and unverified sessions both count as failed.
  {
    Tally t;
    t.record(Outcome::kVerified);
    t.record(Outcome::kThrew);
    t.record(Outcome::kUnverified);
    t.record(Outcome::kVerified);
    check(t.attempted == 4, "attempted counts every outcome");
    check(t.failed() == 2, "failed = threw + unverified");
    check(near(t.failed_frac(), 0.5), "failed_frac = failed / attempted");
    Tally u;
    u.record(Outcome::kThrew);
    u.merge(t);
    check(u.attempted == 5 && u.threw == 2 && u.failed() == 3, "merge adds");
    check(near(Tally{}.failed_frac(), 0), "no attempts, no failures");
  }

  // result_json: the four keys and every digit of a value.
  {
    Tally t;
    t.record(Outcome::kVerified);
    const std::string s =
        result_json(true, t, {{"latency_ms", 1.2345678901234567, "ms"}});
    check(s == "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
               "\"metrics\": {\"latency_ms\": {\"value\": 1.2345678901234567, "
               "\"unit\": \"ms\"}}}",
          "result line layout");
  }

  if (g_failed == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failed == 0 ? 0 : 1;
}
