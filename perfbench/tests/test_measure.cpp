// Unit tests for the benchmark's own arithmetic (src/measure.hpp and the
// per-run throughput statistic of src/runner.hpp).
#include <gtest/gtest.h>

#include <numeric>

#include "measure.hpp"
#include "runner.hpp"

namespace perfbench {
namespace {

// --- Span self time -------------------------------------------------------------

TEST(Tracer, SelfTimeSubtractsDirectChildrenOnly) {
  Tracer t{16};
  // measure [0,100) > sim.run [10,30) and sim.run [40,60) > bench.deliver [45,50)
  t.begin(SpanId::measure, 0, 0);
  t.begin(SpanId::sim_run, 10, 0);
  t.end(30, 2);
  t.begin(SpanId::sim_run, 40, 2);
  t.begin(SpanId::bench_deliver, 45, 2);
  t.end(50, 3);
  t.end(60, 5);
  t.end(100, 5);
  EXPECT_EQ(t.depth(), 0u);

  const SpanStats& root = t.stats(SpanId::measure);
  EXPECT_EQ(root.total_ns, 100);
  EXPECT_EQ(root.self_ns(), 100 - 20 - 20);
  EXPECT_EQ(root.allocs, 5u);
  EXPECT_EQ(root.self_allocs(), 0u);

  const SpanStats& run = t.stats(SpanId::sim_run);
  EXPECT_EQ(run.count, 2u);
  EXPECT_EQ(run.total_ns, 40);
  EXPECT_EQ(run.self_ns(), 40 - 5);
  EXPECT_EQ(run.allocs, 5u);
  EXPECT_EQ(run.self_allocs(), 4u);

  const SpanStats& deliver = t.stats(SpanId::bench_deliver);
  EXPECT_EQ(deliver.self_ns(), 5);
  EXPECT_EQ(deliver.self_allocs(), 1u);

  // Self times partition the root span exactly.
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < kSpanKinds; ++i) sum += t.stats(static_cast<SpanId>(i)).self_ns();
  EXPECT_EQ(sum, root.total_ns);
}

TEST(Tracer, RingKeepsMostRecentSpansWithParents) {
  Tracer t{2};
  t.begin(SpanId::measure, 0, 0);
  for (int i = 0; i < 3; ++i) {
    t.begin(SpanId::dataplane_send, 10 * i, 0);
    t.end(10 * i + 5, 0);
  }
  t.end(40, 0);
  EXPECT_EQ(t.recorded(), 4u);
  const auto recent = t.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].id, SpanId::dataplane_send);
  EXPECT_EQ(recent[0].start_ns, 20);
  EXPECT_EQ(recent[0].parent, SpanId::measure);
  EXPECT_EQ(recent[1].id, SpanId::measure);
  EXPECT_EQ(recent[1].parent, SpanId::count);
}

TEST(Tracer, UnbalancedUseThrows) {
  Tracer t{0};
  EXPECT_THROW(t.end(1, 0), std::logic_error);
  for (std::size_t i = 0; i < Tracer::kMaxDepth; ++i) t.begin(SpanId::sim_run, 0, 0);
  EXPECT_THROW(t.begin(SpanId::sim_run, 0, 0), std::logic_error);
}

// --- Percentile rule ----------------------------------------------------------------

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(1, 0.5), 1u);
  EXPECT_EQ(nearest_rank(100, 0.5), 50u);
  EXPECT_EQ(nearest_rank(101, 0.5), 51u);
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(nearest_rank(1001, 0.99), 991u);
  EXPECT_EQ(nearest_rank(7, 1.0), 7u);
  EXPECT_THROW((void)nearest_rank(0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank(10, 0.0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  OwdHistogram h;
  for (int i = 0; i < 999; ++i) h.add(30'000'000 + i * 1'000);
  EXPECT_FALSE(h.percentile_ms(0.99).has_value()) << "only 9 samples beyond p99";
  EXPECT_TRUE(h.percentile_ms(0.50).has_value());
  h.add(31'000'000);
  ASSERT_TRUE(h.percentile_ms(0.99).has_value());
}

TEST(Percentile, HistogramMatchesSortedNearestRank) {
  OwdHistogram h;
  std::vector<std::int64_t> owd;
  Rng rng{7};
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<std::int64_t>(20'000'000 + rng.below(40'000'000));
    owd.push_back(v);
    h.add(v);
  }
  std::sort(owd.begin(), owd.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const std::int64_t exact = owd[nearest_rank(owd.size(), q) - 1];
    const double bin_lo_ms = static_cast<double>(exact / 1000) / 1000.0;
    const double got = *h.percentile_ms(q);
    EXPECT_GE(got, bin_lo_ms) << q;
    EXPECT_LT(got, bin_lo_ms + 0.001) << q;
  }
}

TEST(Percentile, HistogramInterpolatesWithinABin) {
  // 1000 samples in bin 30000 us and 1000 in the next: the median is the
  // last sample of the first bin, placed at its evenly spread position.
  OwdHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(30'000'000 + 100);
  for (int i = 0; i < 1000; ++i) h.add(30'001'000 + 100);
  EXPECT_DOUBLE_EQ(*h.percentile_ms(0.5), (30'000.0 + 999.5 / 1000.0) / 1000.0);
  EXPECT_DOUBLE_EQ(*h.percentile_ms(0.25), (30'000.0 + 499.5 / 1000.0) / 1000.0);
}

TEST(Percentile, OutOfRangeSamplesPoisonTheHistogram) {
  OwdHistogram h;
  for (int i = 0; i < 2000; ++i) h.add(1'000'000);
  h.add(-1);
  EXPECT_EQ(h.out_of_range(), 1u);
  EXPECT_FALSE(h.percentile_ms(0.5).has_value());
}

TEST(Percentile, LogHistogramBucketsBoundValues) {
  for (std::uint64_t v : {0ull, 15ull, 16ull, 17ull, 1000ull, 123456789ull}) {
    const std::size_t i = LogHistogram::index(v);
    EXPECT_LE(LogHistogram::lower_bound(i), v);
    EXPECT_GT(LogHistogram::lower_bound(i + 1), v);
  }
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i);
  const auto p50 = h.percentile(0.5);
  ASSERT_TRUE(p50.has_value());
  // The 500th sample (500) sits in bucket [496, 512); placed evenly among
  // the bucket's 16 samples it reads 496 + 16 * 4.5 / 16.
  EXPECT_DOUBLE_EQ(*p50, 500.5);
  EXPECT_FALSE(h.percentile(0.995).has_value()) << "only 5 samples beyond";
}

TEST(Percentile, RunThroughputIsTheEleventhFastestLap) {
  Phase ph;
  for (int i = 1; i <= 100; ++i) ph.lap_rate.push_back(1000.0 * i);
  EXPECT_DOUBLE_EQ(ph.pkts_per_s(), 90'000.0) << "ten laps lie beyond it";
  Phase few;
  few.lap_rate = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(few.pkts_per_s(), 1.0) << "fewer than eleven laps: the slowest";
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v(10);
  std::iota(v.begin(), v.end(), 1.0);
  const auto q = quartiles(v);
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const auto small = quartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(small[0], 1.0);
  EXPECT_DOUBLE_EQ(small[1], 2.0);
  EXPECT_DOUBLE_EQ(small[2], 3.0);
  // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (clamped ends)
  const auto two = quartiles({5, 1});
  EXPECT_DOUBLE_EQ(two[0], 0.0);
  EXPECT_DOUBLE_EQ(two[1], 3.0);
  EXPECT_DOUBLE_EQ(two[2], 6.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

// --- Seeded schedules -----------------------------------------------------------------

std::vector<Arrival> arrivals(std::uint64_t seed, std::int64_t until_ns, std::int64_t lap_ns) {
  ArrivalSchedule s{seed, ArrivalSchedule::Params{}};
  std::vector<Arrival> all;
  std::vector<Arrival> lap;
  for (std::int64_t t = lap_ns; t <= until_ns; t += lap_ns) {
    s.fill(t, lap);
    for (const Arrival& a : lap) EXPECT_LT(a.due_ns, t);
    all.insert(all.end(), lap.begin(), lap.end());
  }
  return all;
}

bool same(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), [](auto& x, auto& y) {
           return x.due_ns == y.due_ns && x.flow == y.flow;
         });
}

TEST(Schedules, ArrivalsRepeatForASeedAndDifferAcrossSeeds) {
  const auto a = arrivals(1, 2'000'000'000, 250'000'000);
  const auto b = arrivals(1, 2'000'000'000, 250'000'000);
  const auto c = arrivals(2, 2'000'000'000, 250'000'000);
  EXPECT_TRUE(same(a, b));
  EXPECT_FALSE(same(a, c));
  // Lap boundaries do not change the schedule: one 2 s window gives the
  // same packets as eight 250 ms windows.
  EXPECT_TRUE(same(a, arrivals(1, 2'000'000'000, 2'000'000'000)));
}

TEST(Schedules, ArrivalsAreOrderedAndNearTheNominalRate) {
  const auto a = arrivals(3, 10'000'000'000, 1'000'000'000);
  for (std::size_t i = 1; i < a.size(); ++i) {
    ASSERT_TRUE(a[i - 1].due_ns < a[i].due_ns ||
                (a[i - 1].due_ns == a[i].due_ns && a[i - 1].flow < a[i].flow));
  }
  // 500 flows/s x ~40 packets over 10 s; the Pareto tail makes it noisy.
  EXPECT_GT(a.size(), 100'000u);
  EXPECT_LT(a.size(), 400'000u);
}

TEST(Schedules, ChurnRepeatsForASeedAndDiffersAcrossSeeds) {
  const auto eq = [](const std::vector<ChurnOp>& x, const std::vector<ChurnOp>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), [](auto& p, auto& q) {
      return p.kind == q.kind && p.target == q.target && p.uplink == q.uplink &&
             p.preference == q.preference;
    });
  };
  const auto a = churn_schedule(5, 200, 352, 88);
  EXPECT_TRUE(eq(a, churn_schedule(5, 200, 352, 88)));
  EXPECT_FALSE(eq(a, churn_schedule(6, 200, 352, 88)));
  std::size_t flaps = 0;
  for (const ChurnOp& op : a) {
    if (op.kind == ChurnOp::Kind::prefix_flap) {
      ++flaps;
      EXPECT_LT(op.target, 352u);
    } else {
      EXPECT_LT(op.target, 88u);
    }
  }
  EXPECT_EQ(flaps, 140u);
}

TEST(Schedules, StreamSeedsAreDistinct) {
  EXPECT_NE(stream_seed(1, 0), stream_seed(1, 1));
  EXPECT_NE(stream_seed(1, 0), stream_seed(2, 0));
  EXPECT_EQ(stream_seed(9, 3), stream_seed(9, 3));
}

}  // namespace
}  // namespace perfbench
