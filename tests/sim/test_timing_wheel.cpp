// Boundary and determinism tests for the timing-wheel scheduler, run against
// the binary-heap reference backend wherever the contract is shared.
#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"

namespace tango::sim {
namespace {

class BothBackends : public ::testing::TestWithParam<EventQueue::Backend> {};

INSTANTIATE_TEST_SUITE_P(Schedulers, BothBackends,
                         ::testing::Values(EventQueue::Backend::timing_wheel,
                                           EventQueue::Backend::binary_heap),
                         [](const auto& info) {
                           return info.param == EventQueue::Backend::timing_wheel ? "wheel"
                                                                                  : "heap";
                         });

TEST_P(BothBackends, EventExactlyAtRunUntilBoundFires) {
  EventQueue q{GetParam()};
  int fired = 0;
  q.schedule_at(1000, [&fired] { ++fired; });
  q.schedule_at(1001, [&fired] { fired += 100; });
  q.run_until(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 1000);
  EXPECT_EQ(q.pending(), 1u);
}

TEST_P(BothBackends, ClockRestsExactlyAtUntil) {
  EventQueue q{GetParam()};
  q.schedule_at(10, [] {});
  q.run_until(5'000'000);
  EXPECT_EQ(q.now(), 5'000'000);
  q.run_until(6'000'000);  // empty queue: clock still advances to the bound
  EXPECT_EQ(q.now(), 6'000'000);
}

TEST_P(BothBackends, FifoAcrossCascadeDepths) {
  // Two events at the same timestamp, scheduled from very different "now"s:
  // the first lands in a high wheel level and cascades down, the second is
  // scheduled straight into level 0 after the clock has moved close to the
  // deadline.  FIFO (scheduling order) must survive the cascades.
  EventQueue q{GetParam()};
  std::vector<int> order;
  const Time target = 40 * kMillisecond;
  q.schedule_at(target, [&order] { order.push_back(1) ; });          // deep level
  q.schedule_at(target - 100, [&order, &q, target] {
    order.push_back(0);
    q.schedule_at(target, [&order] { order.push_back(2); });         // level 0
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), target);
}

TEST_P(BothBackends, FifoForManyEqualTimestampsAcrossWindows) {
  // Equal-timestamp events scheduled from several different distances (each
  // landing in a different wheel level before cascading into the same
  // bucket) fire strictly in scheduling order.
  EventQueue q{GetParam()};
  const Time target = 300 * kMillisecond;
  std::vector<int> order;
  int label = 0;
  // Scheduled at t=0: deltas of ~300ms (level 3).
  for (int i = 0; i < 4; ++i) {
    q.schedule_at(target, [&order, label] { order.push_back(label); });
    ++label;
  }
  // Stepping stones that schedule more equal-time events ever closer in.
  for (Time lead : {200 * kMillisecond, 2 * kMillisecond, 40 * kMicrosecond, Time{200}}) {
    q.schedule_at(target - lead, [&q, &order, &label, target] {
      for (int i = 0; i < 2; ++i) {
        q.schedule_at(target, [&order, lbl = label] { order.push_back(lbl); });
        ++label;
      }
    });
  }
  q.run_all();
  ASSERT_EQ(order.size(), 12u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "equal-time events must fire in scheduling order";
}

TEST_P(BothBackends, FarFutureEventsSurviveCascades) {
  // An event beyond the wheel span (2^48 ns ~ 3.3 days) rides the overflow
  // heap; near-term churn and window advances must not disturb it.
  EventQueue q{GetParam()};
  const Time far_out = Time{1} << 49;
  bool far_fired = false;
  int near_fired = 0;
  q.schedule_at(far_out, [&far_fired] { far_fired = true; });
  for (int i = 1; i <= 50; ++i) {
    q.schedule_at(i * kHour, [&near_fired] { ++near_fired; });
  }
  q.run_until(far_out - 1);
  EXPECT_EQ(near_fired, 50);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_TRUE(far_fired);
  EXPECT_EQ(q.now(), far_out);
}

TEST_P(BothBackends, FarFutureTiebreaksAgainstWheelEntries) {
  // A far-future event at time T scheduled *before* a wheel event at the
  // same T must fire first (lower seq), even though they live in different
  // structures.
  EventQueue q{GetParam()};
  const Time t = (Time{1} << 49) + 12345;
  std::vector<int> order;
  q.schedule_at(t, [&order] { order.push_back(0); });  // overflow heap
  q.schedule_at(t - kMillisecond, [&q, &order, t] {    // near t: wheel
    q.schedule_at(t, [&order] { order.push_back(1); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_P(BothBackends, EpochBoundaryWrapDoesNotSkipEvents) {
  // Events placed just after a 2^16/2^24-aligned boundary while the cursor
  // sits just before it exercise the wrapped-slot paths of the wheel.
  EventQueue q{GetParam()};
  std::vector<Time> fired;
  const std::vector<Time> anchors = {(Time{1} << 16) - 3, (Time{1} << 24) - 2,
                                     (Time{1} << 32) - 5, (Time{1} << 40) - 1};
  for (Time a : anchors) {
    for (Time d : {Time{0}, Time{1}, Time{2}, Time{255}, Time{256}, Time{70000}}) {
      q.schedule_at(a + d, [&fired, t = a + d] { fired.push_back(t); });
    }
  }
  q.run_all();
  ASSERT_EQ(fired.size(), anchors.size() * 6);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(q.executed(), fired.size());
}

TEST_P(BothBackends, RunUntilThenLateSchedulingStaysConsistent) {
  // run_until far past the last event, then schedule again near "now": the
  // wheel cursor must not have been advanced beyond the clock.
  EventQueue q{GetParam()};
  int fired = 0;
  q.schedule_at(10 * kSecond, [&fired] { ++fired; });
  q.run_until(kMinute);
  EXPECT_EQ(fired, 1);
  q.schedule_at(kMinute, [&fired] { fired += 10; });      // exactly at now
  q.schedule_at(kMinute + 5, [&fired] { fired += 100; });
  q.run_all();
  EXPECT_EQ(fired, 111);
}

TEST_P(BothBackends, PendingBoundedRunUntilDoesNotAdvancePastLimit) {
  // An event far beyond the run_until bound must stay pending and intact
  // even when the bound lands inside an empty stretch of the wheel.
  EventQueue q{GetParam()};
  int fired = 0;
  q.schedule_at(2 * kHour, [&fired] { ++fired; });
  for (Time t = kSecond; t <= 10 * kSecond; t += kSecond) {
    q.schedule_at(t, [] {});
  }
  q.run_until(kMinute);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.pending(), 1u);
  // Scheduling between the bound and the far event must still be possible
  // and fire in order.
  std::vector<int> order;
  q.schedule_at(kMinute + 1, [&order] { order.push_back(1); });
  q.schedule_at(2 * kHour, [&order] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimingWheel, MatchesHeapOnRandomizedWorkload) {
  // Property test: a random mix of immediate, short-, mid- and long-horizon
  // events (some rescheduling on execution, like forwarding hops do) must
  // produce the identical execution trace on both backends.
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u}) {
    auto run = [seed](EventQueue::Backend backend) {
      EventQueue q{backend};
      std::mt19937 rng{seed};
      std::vector<std::pair<Time, int>> trace;
      int next_id = 0;
      // Delay mix mirrors the WAN: many sub-ms and ms-scale, a few huge.
      auto random_delay = [&rng]() -> Time {
        switch (rng() % 8) {
          case 0: return 0;
          case 1: return static_cast<Time>(rng() % 256);
          case 2: return static_cast<Time>(rng() % kMicrosecond);
          case 3:
          case 4:
          case 5: return static_cast<Time>(rng() % (50 * kMillisecond));
          case 6: return static_cast<Time>(rng() % kMinute);
          default: return static_cast<Time>(rng() % (100 * kHour));
        }
      };
      std::function<void(int, int)> hop = [&](int id, int remaining) {
        trace.emplace_back(q.now(), id);
        if (remaining > 0) {
          q.schedule_in(random_delay(),
                        [&hop, id = next_id++, remaining] { hop(id, remaining - 1); });
        }
      };
      for (int i = 0; i < 200; ++i) {
        q.schedule_at(random_delay(), [&hop, id = next_id++] { hop(id, 3); });
      }
      q.run_all();
      return trace;
    };
    const auto wheel = run(EventQueue::Backend::timing_wheel);
    const auto heap = run(EventQueue::Backend::binary_heap);
    EXPECT_EQ(wheel, heap) << "seed " << seed;
  }
}

TEST(TimingWheel, ClearDropsWheelFarAndStagedEntries) {
  EventQueue q{EventQueue::Backend::timing_wheel};
  int fired = 0;
  q.schedule_at(5, [&fired] { ++fired; });
  q.schedule_at(40 * kMillisecond, [&fired] { ++fired; });
  q.schedule_at(Time{1} << 50, [&fired] { ++fired; });
  EXPECT_EQ(q.pending(), 3u);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.run_all();
  EXPECT_EQ(fired, 0);
  // The queue stays usable after clear().
  q.schedule_at(q.now() + 10, [&fired] { fired = 77; });
  q.run_all();
  EXPECT_EQ(fired, 77);
}

TEST(TimingWheel, DrainsSameTimestampBatchFifo) {
  // The burst path: many events at one timestamp drain as a staged batch.
  TimingWheel w;
  std::vector<std::uint64_t> seqs;
  for (std::uint64_t s = 0; s < 100; ++s) {
    w.schedule(123456, s, [] {});
  }
  EXPECT_EQ(w.size(), 100u);
  std::uint64_t expected = 0;
  while (!w.empty()) {
    auto p = w.pop(kSecond);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.at, 123456);
    ++expected;
  }
  EXPECT_EQ(expected, 100u);
}

}  // namespace
}  // namespace tango::sim
