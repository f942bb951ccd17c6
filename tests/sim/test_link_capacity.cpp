// The deterministic virtual-queue capacity model: backlog growth at the
// service rate, congestion drops past the queue cap, byte-identical behaviour
// while disabled, and clean reset via set_capacity(0, ...).
#include "sim/link.hpp"

#include <gtest/gtest.h>

namespace tango::sim {
namespace {

topo::LinkProfile lossless_profile() {
  return topo::LinkProfile{.base_delay_ms = 10.0, .loss_rate = 0.0};
}

TEST(LinkCapacity, DisabledByDefaultAndByteIdenticalWhenReset) {
  Link plain{lossless_profile(), Rng{3}};
  Link reset{lossless_profile(), Rng{3}};
  reset.set_capacity(100.0, 50.0);
  reset.set_capacity(0.0, 0.0);  // back off: queue state must fully clear

  for (int i = 0; i < 200; ++i) {
    const Time now = i * kMillisecond;
    const Transmission a = plain.transmit(now, 42);
    const Transmission b = reset.transmit(now, 42);
    EXPECT_EQ(a.dropped, b.dropped) << "packet " << i;
    EXPECT_EQ(a.delay, b.delay) << "packet " << i;
  }
  EXPECT_EQ(plain.congestion_drops(), 0u);
  EXPECT_EQ(reset.congestion_drops(), 0u);
}

TEST(LinkCapacity, BacklogGrowsByOneServiceTimePerPacket) {
  Link link{lossless_profile(), Rng{4}};
  // 1000 pkt/s: 1 ms service time; generous queue so nothing drops here.
  link.set_capacity(1000.0, 1000.0);

  // A burst offered at the same instant serializes: packet i waits i ms.
  const Time base = from_ms(10.0);
  for (int i = 0; i < 10; ++i) {
    const Transmission t = link.transmit(/*now=*/kSecond, 42);
    ASSERT_FALSE(t.dropped);
    EXPECT_EQ(t.delay, base + i * kMillisecond) << "packet " << i;
  }

  // After the backlog drains the next packet rides the empty queue again.
  const Transmission later = link.transmit(kSecond + 10 * kMillisecond, 42);
  ASSERT_FALSE(later.dropped);
  EXPECT_EQ(later.delay, base);
}

TEST(LinkCapacity, PacketsPastTheQueueCapAreCongestionDrops) {
  Link link{lossless_profile(), Rng{5}};
  link.set_capacity(1000.0, /*max_queue_ms=*/5.0);

  // 5 ms of queue at 1 ms/packet: the backlog check admits packets 0..5
  // (waits 0..5 ms, at the cap inclusive) and congestion-drops the rest.
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    if (!link.transmit(kSecond, 42).dropped) ++admitted;
  }
  EXPECT_EQ(admitted, 6);
  EXPECT_EQ(link.congestion_drops(), 14u);
  EXPECT_EQ(link.drops(), 14u) << "congestion drops count as drops";

  // Offered at a sustainable pace the same link delivers everything.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(link.transmit(2 * kSecond + i * 2 * kMillisecond, 42).dropped);
  }
  EXPECT_EQ(link.congestion_drops(), 14u);
}

TEST(LinkCapacity, QueueingOnlyAddsDelayNeverDipsBelowFloor) {
  // The capacity model must only ever add to the propagation sample.  It
  // draws no RNG, so a capacitated and an uncapacitated link on the same
  // seed sample the same jittered propagation delays packet for packet.
  topo::LinkProfile jittery = lossless_profile();
  jittery.floor_ms = 8.0;
  jittery.jitter = topo::JitterKind::gaussian;
  jittery.jitter_sigma_ms = 1.0;
  Link capped{jittery, Rng{6}};
  Link uncapped{jittery, Rng{6}};
  // 2 ms service time, 100 ms queue: all 50 packets of the burst fit.
  capped.set_capacity(500.0, 100.0);
  for (int i = 0; i < 50; ++i) {
    const Transmission t = capped.transmit(kSecond, 42);
    const Transmission u = uncapped.transmit(kSecond, 42);
    ASSERT_FALSE(t.dropped) << "packet " << i;
    ASSERT_FALSE(u.dropped) << "packet " << i;
    EXPECT_GE(t.delay, u.delay) << "packet " << i;
  }
}

TEST(LinkCapacity, HardDownAndLossDrawPrecedeTheQueue) {
  // A down link drops before touching the queue: no backlog accumulates.
  Link link{lossless_profile(), Rng{7}};
  link.set_capacity(1000.0, 2.0);
  link.set_down(true);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(link.transmit(kSecond, 42).dropped);
  EXPECT_EQ(link.congestion_drops(), 0u);

  link.set_down(false);
  const Transmission t = link.transmit(kSecond, 42);
  ASSERT_FALSE(t.dropped);
  EXPECT_EQ(t.delay, from_ms(10.0)) << "queue stayed empty while down";
}

}  // namespace
}  // namespace tango::sim
