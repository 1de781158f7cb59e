// Self-checks for the benchmark's own statistics (stats.h).  Exits non-zero
// on the first failed check; run.py runs it after every fresh build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

respect::obs::TraceEvent Span(const char* name, std::uint32_t tid,
                              std::int64_t dur, std::uint32_t depth) {
  respect::obs::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.dur_us = dur;
  e.depth = depth;
  return e;
}

void TestNearestRank() {
  const std::vector<double> v = Iota(100);
  Check(Near(perfbench::NearestRank(v, 0.5), 50.0), "p50 of 1..100 is 50");
  Check(Near(perfbench::NearestRank(v, 0.99), 99.0), "p99 of 1..100 is 99");
  Check(Near(perfbench::NearestRank(v, 1.0), 100.0), "p100 is the max");
  Check(Near(perfbench::NearestRank(v, 0.0), 1.0), "p0 is the min");
  Check(Near(perfbench::NearestRank(Iota(5), 0.5), 3.0), "p50 of 1..5 is 3");
  Check(perfbench::NearestRank({}, 0.5) == 0.0, "empty sample reads 0");
}

void TestTailRule() {
  // 2000 samples: p99 has 20 beyond, so p99 itself is reported.
  perfbench::Tail t = perfbench::TailPercentile(Iota(2000), 0.99);
  Check(Near(t.q, 0.99) && Near(t.value, 1980.0) && t.beyond == 20,
        "p99 kept when >= 10 samples lie beyond");
  // 1000 samples: exactly 10 beyond p99 — still p99.
  t = perfbench::TailPercentile(Iota(1000), 0.99);
  Check(Near(t.q, 0.99) && Near(t.value, 990.0) && t.beyond == 10,
        "p99 kept at exactly 10 beyond");
  // 500 samples: p99 would leave 5 beyond; fall back to rank 490.
  t = perfbench::TailPercentile(Iota(500), 0.99);
  Check(Near(t.q, 0.98) && Near(t.value, 490.0) && t.beyond == 10,
        "falls back to the highest percentile with 10 beyond");
  // 8 samples: no rank leaves 10 beyond; the median is reported.
  t = perfbench::TailPercentile(Iota(8), 0.99);
  Check(Near(t.value, 4.0) && t.count == 8, "tiny samples report the median");
  // 15 samples: rank 5 would leave 10 beyond but lies below the median.
  t = perfbench::TailPercentile(Iota(15), 0.99);
  Check(Near(t.value, 8.0), "the tail never reads below the median");
}

void TestGeoMean() {
  Check(Near(perfbench::GeoMean({2.0, 8.0}), 4.0), "geomean(2, 8) = 4");
  Check(Near(perfbench::GeoMean({5.0}), 5.0), "geomean of one value");
  Check(Near(perfbench::GeoMean({1.0, 10.0, 100.0}), 10.0),
        "geomean(1, 10, 100) = 10");
  bool threw = false;
  try {
    (void)perfbench::GeoMean({1.0, 0.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Check(threw, "geomean rejects a zero");
}

void TestSelfTime() {
  perfbench::SpanAggregator agg;
  // Thread 1: parent (100us) with two children (30 + 20); one grandchild
  // (5us) inside the first child.  Close order: grandchild, child, child,
  // parent.  Split across two Add calls to cover drain boundaries.
  agg.Add({Span("g", 1, 5, 2), Span("c", 1, 30, 1)});
  agg.Add({Span("c", 1, 20, 1), Span("p", 1, 100, 0)});
  // A cross-thread queue wait recorded by the popping worker at depth 1 and
  // a same-thread sibling parent afterwards: the wait must neither lose its
  // own duration nor be subtracted from the parent.
  agg.Add({Span("serve.queue_wait", 1, 40, 1), Span("p", 1, 60, 0)});
  // Thread 2 nests independently of thread 1.
  agg.Add({Span("c", 2, 7, 1), Span("p", 2, 10, 0)});

  const auto* p = agg.Find("p");
  const auto* c = agg.Find("c");
  const auto* g = agg.Find("g");
  const auto* q = agg.Find("serve.queue_wait");
  Check(p != nullptr && p->self_us.size() == 3, "three parent spans");
  Check(p != nullptr && Near(p->self_us[0], 50.0),
        "same-thread children subtract from their parent");
  Check(p != nullptr && Near(p->self_us[1], 60.0),
        "cross-thread queue wait does not subtract from a parent");
  Check(p != nullptr && Near(p->self_us[2], 3.0), "threads nest separately");
  Check(c != nullptr && Near(c->self_us[0], 25.0),
        "grandchild subtracts from its own parent only");
  Check(g != nullptr && Near(g->self_total_us, 5.0), "leaf self = duration");
  Check(q != nullptr && Near(q->self_total_us, 40.0),
        "queue wait keeps its full duration");
  Check(p != nullptr && p->tids.size() == 2, "emitting threads counted");
}

void TestZipf() {
  const perfbench::Zipf zipf(1000, 1.0);
  std::mt19937_64 a(42), b(42), c(43);
  std::vector<std::size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.Draw(a));
    db.push_back(zipf.Draw(b));
    dc.push_back(zipf.Draw(c));
  }
  Check(da == db, "same seed gives the same Zipf draws");
  Check(da != dc, "another seed gives other draws");
  std::mt19937_64 rng(7);
  int top = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) top += zipf.Draw(rng) == 0 ? 1 : 0;
  // P(rank 0) = 1 / H(1000) ~= 0.1336.
  Check(std::fabs(static_cast<double>(top) / n - 0.1336) < 0.005,
        "rank 0 drawn with probability 1/H_n");
}

}  // namespace

int main() {
  TestNearestRank();
  TestTailRule();
  TestGeoMean();
  TestSelfTime();
  TestZipf();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench stats: all checks passed\n");
  return EXIT_SUCCESS;
}
