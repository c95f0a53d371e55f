// Tests for the benchmark's own statistics, span accounting and result
// line. Exits non-zero if any check fails.
//
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   .bench_build/perfbench/perfbench_stats_test
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::cerr << __FILE__ << ':' << __LINE__ << ": CHECK(" #cond ")\n"; \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void test_quantiles() {
  using perfbench::quantile;
  const std::vector<double> v{5, 1, 4, 2, 3};
  CHECK(near(perfbench::median(v), 3.0));
  CHECK(near(quantile(v, 0.0), 1.0));
  CHECK(near(quantile(v, 1.0), 5.0));
  CHECK(near(quantile(v, 0.25), 2.0));
  CHECK(near(quantile({1, 2, 3, 4}, 0.5), 2.5));  // Interpolates.
  const perfbench::Summary s = perfbench::summarize({10, 20, 30, 40, 50});
  CHECK(near(s.median, 30.0) && near(s.q1, 20.0) && near(s.q3, 40.0));
  CHECK(near(s.spread(), 20.0 / 30.0));
  // A failed shot (infinite latency) sorts last and owns the top of the
  // distribution, never the median.
  const double inf = std::numeric_limits<double>::infinity();
  CHECK(near(perfbench::median({1, 2, inf}), 2.0));
  CHECK(std::isinf(quantile({1, 2, inf}, 1.0)));
  bool threw = false;
  try {
    perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_tail_rule() {
  using perfbench::highest_supported_tail;
  CHECK(perfbench::samples_beyond(1000, 99.0) == 10);
  CHECK(perfbench::samples_beyond(999, 99.0) == 9);
  CHECK(perfbench::samples_beyond(100000, 99.99) == 10);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  auto t = highest_supported_tail(v);
  CHECK(t && near(t->pct, 99.0) && t->beyond == 10);
  v.pop_back();  // 999 samples: p99 keeps only 9 beyond, p95 is the answer.
  t = highest_supported_tail(v);
  CHECK(t && near(t->pct, 95.0) && t->beyond == 49);
  for (int i = 1000; i <= 100000; ++i) v.push_back(i);
  t = highest_supported_tail(v);
  CHECK(t && near(t->pct, 99.99));
  CHECK(!highest_supported_tail(std::vector<double>(19, 1.0)));
  t = highest_supported_tail(std::vector<double>(20, 1.0));
  CHECK(t && near(t->pct, 50.0));
}

void test_windows() {
  std::vector<double> v;
  for (int w = 0; w < 3; ++w)
    for (int i = 0; i < 100; ++i) v.push_back(w == 1 ? 1000.0 : i);
  v.push_back(1e9);  // Partial trailing window: dropped.
  const std::vector<double> p50 = perfbench::windowed_quantiles(v, 100, 0.5);
  CHECK(p50.size() == 3);
  CHECK(near(p50[1], 1000.0));
  // One stalled window does not move the median across windows.
  CHECK(near(perfbench::median(p50), p50[0]));
  CHECK(perfbench::windowed_quantiles({1, 2, 3}, 100, 0.5).size() == 1);
}

void test_least_disturbed() {
  using perfbench::least_disturbed;
  // No steal: quantile q over every window.
  const std::vector<double> times{10, 11, 12, 13, 50, 60, 70, 80};
  CHECK(near(least_disturbed(times, std::vector<double>(8, 0.0), 0.25), 11.75));
  // Steal in most windows: only the least-stolen quarter counts, here the
  // two windows the host left alone, wherever they fall.
  const std::vector<double> slow{90, 95, 12, 99, 98, 14, 97, 96};
  const std::vector<double> steal{5, 3, 0, 7, 4, 0, 6, 9};
  CHECK(near(least_disturbed(slow, steal, 0.25), 12.5));
  const std::vector<double> rates{10, 20, 100, 30, 15, 110, 25, 5};
  CHECK(near(least_disturbed(rates, steal, 0.75), 107.5));
  // Ties at the limit are all kept: three windows with the least steal.
  CHECK(near(least_disturbed({40, 30, 20, 99}, {1, 1, 1, 8}, 0.5), 30.0));
  bool threw = false;
  try {
    least_disturbed({1.0}, {}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_backlog_growth() {
  using perfbench::backlog_growing;
  std::vector<std::pair<double, double>> rising, flat, full, noisy, falling,
      burst;
  for (int i = 0; i < 400; ++i) {
    const double t = i * 0.01;
    rising.emplace_back(t, 10.0 * i);
    flat.emplace_back(t, 3.0);
    full.emplace_back(t, 1023.0 + (i % 2));  // Pinned against the ring.
    noisy.emplace_back(t, (i * 37) % 11);    // Bounded jitter.
    falling.emplace_back(t, 4000.0 - 10.0 * i);
    // A stall's backlog that drains again: ends higher than it started,
    // but the quarters do not keep rising.
    burst.emplace_back(t, i >= 100 && i < 200 ? 400.0 : i >= 300 ? 60.0 : 10.0);
  }
  CHECK(backlog_growing(rising));
  CHECK(!backlog_growing(flat));
  CHECK(!backlog_growing(full));
  CHECK(!backlog_growing(noisy));
  CHECK(!backlog_growing(falling));
  CHECK(!backlog_growing(burst));
  CHECK(!backlog_growing({{0.0, 0.0}, {1.0, 1000.0}}));  // Too few samples.
}

void test_result_json() {
  const std::map<std::string, perfbench::Metric> m{
      {"setup_s", {0.8127, "s"}}, {"shots_per_s", {123456.789, "1/s"}}};
  const std::string line = perfbench::result_json(true, 1000, 0, m);
  CHECK(line.rfind("{\"correct\": true, \"attempted\": 1000, \"failed\": 0", 0) == 0);
  for (const auto& [name, metric] : m) {
    CHECK(line.find('"' + name + "\": {\"value\": ") != std::string::npos);
    CHECK(line.find("\"unit\": \"" + metric.unit + '"') != std::string::npos);
  }
  // All digits: the printed value reads back as the same double.
  const double x = 0.1 + 0.2;
  CHECK(std::stod(perfbench::json_number(x)) == x);
  bool threw = false;
  try {
    perfbench::json_number(std::numeric_limits<double>::quiet_NaN());
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_span_self_time() {
  using namespace std::chrono;
  using perfbench::Tracer;
  const Tracer::Clock::time_point t0 = Tracer::Clock::now();
  Tracer tr(true, t0);
  const auto at = [&](int us) { return t0 + microseconds(us); };
  tr.record("outer", at(0), at(100), 7, 3);
  // record() parents to the innermost open span; open one to nest under.
  const std::int64_t outer = tr.begin("cycle", 1);
  tr.record("train", at(0), at(30), 1);
  tr.record("eval", at(40), at(50), 1, 10);
  tr.end(outer);
  Tracer other(true, t0);
  other.record("submit", at(5), at(6), 2, 1);
  tr.merge(other, outer);
  const auto totals = tr.totals();
  CHECK(totals.at("train").count == 1);
  CHECK(near(totals.at("train").total_ns, 30000.0));
  CHECK(totals.at("eval").items == 10);
  CHECK(totals.at("outer").items == 3);
  const Tracer::Totals cycle = totals.at("cycle");
  CHECK(near(cycle.self_ns, cycle.total_ns - 30000.0 - 10000.0 - 1000.0));
  CHECK(tr.spans().back().parent == outer);

  // Self time subtracts direct children only, never grandchildren.
  Tracer nest(true, t0);
  const std::int64_t p = nest.begin("parent");
  const std::int64_t c = nest.begin("child");
  nest.record("grandchild", at(0), at(2));
  nest.end(c);
  nest.end(p);
  const auto dur = [&](std::int64_t i) {
    const Tracer::Span& s = nest.spans()[static_cast<std::size_t>(i)];
    return static_cast<double>(s.end_ns - s.start_ns);
  };
  const auto nt = nest.totals();
  CHECK(near(nt.at("parent").self_ns, dur(p) - dur(c)));
  CHECK(near(nt.at("child").self_ns, dur(c) - 2000.0));
  CHECK(nest.spans()[2].parent == c);
  Tracer off(false);
  CHECK(off.begin("x") == -1);
  off.record("y", at(0), at(1));
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  test_quantiles();
  test_tail_rule();
  test_windows();
  test_least_disturbed();
  test_backlog_growth();
  test_result_json();
  test_span_self_time();
  if (failures) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench stats tests passed\n";
  return 0;
}
