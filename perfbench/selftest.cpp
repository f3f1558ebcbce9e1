// Self-test of the benchmark's own arithmetic: percentiles, geometric
// mean, and span self times over a synthetic span tree driven by a manual
// clock. run.py runs it before every benchmark run; a failure stops the
// run before any result is printed.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "ledger.hpp"

namespace {

using namespace perfbench;

std::int64_t g_manual_ns = 0;
std::int64_t manual_clock() { return g_manual_ns; }

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "selftest FAIL %s: got %.6f want %.6f\n", what, got,
                 want);
    ++g_failures;
  }
}

void test_percentile() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  expect_near("p50 of 1..5", percentile(v, 50), 3);
  expect_near("p0 of 1..5", percentile(v, 0), 1);
  expect_near("p100 of 1..5", percentile(v, 100), 5);
  std::vector<double> four = {4, 3, 2, 1};
  expect_near("p25 of 1..4", percentile(four, 25), 1.75);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect_near("p99 of 1..101", percentile(hundred, 99), 100);
  std::vector<double> none;
  expect_near("p50 of empty", percentile(none, 50), 0);
  expect_near("geomean(2, 8)", geomean({2, 8}), 4);
  expect_near("geomean(7)", geomean({7}), 7);

  // Histogram: exact below 128 ns, within 1% of the exact percentile above.
  Histogram small;
  for (int i = 1; i <= 101; ++i) small.add(i);
  expect_near("histogram p50 of 1..101 ns", small.percentile_us(50) * 1e3, 51.5);
  Histogram wide;
  std::vector<double> exact;
  for (int i = 0; i < 10000; ++i) {
    double ns = 1000.0 * std::pow(1.001, i);  // 1 us .. ~22 ms
    wide.add(static_cast<std::int64_t>(ns));
    exact.push_back(ns / 1e3);
  }
  for (double p : {1.0, 50.0, 99.0}) {
    double want = percentile(exact, p);
    double got = wide.percentile_us(p);
    if (std::fabs(got / want - 1) > 0.01) {
      std::fprintf(stderr, "selftest FAIL histogram p%.0f: got %.3f want %.3f\n", p,
                   got, want);
      ++g_failures;
    }
  }
  Histogram merged;
  merged.merge(small);
  merged.merge(wide);
  expect_near("histogram merge count", static_cast<double>(merged.count()), 10101);
}

// Opens a span at `start` and runs `body` inside it; the span closes at
// `end`. Mirrors how probes nest on one thread.
template <typename Body>
void span_at(Layer in, Layer out, std::int64_t start, std::int64_t end,
             Body body) {
  g_manual_ns = start;
  {
    Span s(in, out);
    body();
    g_manual_ns = end;
  }
}

void test_span_tree() {
  set_clock(&manual_clock);
  Ledger::begin_op(true);
  // proxy [0,100] > net [10,90] > endpoint [20,80] > parse probe [25,75]
  //   > telemetry probe [30,70] > dispatch [35,65] > xmldb [40,50], [52,60]
  span_at(kProxy, kProxy, 0, 100, [] {
    span_at(kNet, kNet, 10, 90, [] {
      span_at(kChain, kChain, 20, 80, [] {
        span_at(kParse, kSerialize, 25, 75, [] {
          span_at(kChain, kChain, 30, 70, [] {
            span_at(kDispatch, kDispatch, 35, 65, [] {
              span_at(kXmldb, kXmldb, 40, 50, [] {});
              span_at(kXmldb, kXmldb, 52, 60, [] {});
            });
          });
        });
      });
    });
  });
  const LayerTimes& t = Ledger::self_times();
  expect_near("proxy self", t[kProxy], 20);
  expect_near("net self", t[kNet], 20);
  expect_near("chain self (endpoint + telemetry)", t[kChain], 20);
  expect_near("parse (inbound half)", t[kParse], 5);
  expect_near("serialize (outbound half)", t[kSerialize], 5);
  expect_near("dispatch self", t[kDispatch], 12);
  expect_near("xmldb self", t[kXmldb], 18);
  double sum = 0;
  for (double v : t) sum += v;
  expect_near("self times sum to the root span", sum, 100);
  expect_near("stack empty after the op", static_cast<double>(Ledger::depth()),
              0);

  // A split span with no child (a rejected request) is all inbound.
  Ledger::begin_op(true);
  span_at(kVerify, kSign, 0, 7, [] {});
  expect_near("childless split span: verify", Ledger::self_times()[kVerify], 7);
  expect_near("childless split span: sign", Ledger::self_times()[kSign], 0);

  // Untraced operations record nothing.
  Ledger::begin_op(false);
  span_at(kProxy, kProxy, 0, 50, [] {});
  expect_near("untraced op records nothing", Ledger::self_times()[kProxy], 0);
  set_clock(nullptr);
}

}  // namespace

int main() {
  test_percentile();
  test_span_tree();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
