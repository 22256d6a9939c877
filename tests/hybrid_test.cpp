#include "src/hybrid/device.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/hybrid/link_metrics.hpp"
#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/checkpoint.hpp"
#include "src/testbed/experiment.hpp"
#include "src/testbed/testbed.hpp"

namespace efd::hybrid {
namespace {

/// Interface stub delivering packets after a fixed latency, with a fixed
/// service rate — a stand-in "medium" for scheduler/reorder tests.
class PipeInterface final : public net::Interface {
 public:
  PipeInterface(sim::Simulator& sim, sim::Time latency) : sim_(sim), latency_(latency) {}

  bool enqueue(const net::Packet& p) override {
    ++enqueued_;
    sim_.after(latency_, [this, p] {
      if (rx_) rx_(p, sim_.now());
    });
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return 0; }
  void set_rx_handler(RxHandler handler) override { rx_ = std::move(handler); }

  std::uint64_t enqueued_ = 0;

 private:
  sim::Simulator& sim_;
  sim::Time latency_;
  RxHandler rx_;
};

TEST(CapacityScheduler, SplitsProportionally) {
  CapacityScheduler sched{sim::Rng{4}};
  sched.set_capacities({30.0, 90.0});
  int counts[2] = {0, 0};
  net::Packet p;
  for (int i = 0; i < 20000; ++i) ++counts[sched.pick(p)];
  EXPECT_NEAR(counts[1] / static_cast<double>(counts[0] + counts[1]), 0.75, 0.02);
}

TEST(CapacityScheduler, ZeroCapacityInterfaceGetsNothing) {
  CapacityScheduler sched{sim::Rng{4}};
  sched.set_capacities({0.0, 50.0});
  net::Packet p;
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sched.pick(p), 1);
}

TEST(CapacityScheduler, NoCapacitiesDefaultsToFirst) {
  CapacityScheduler sched{sim::Rng{4}};
  net::Packet p;
  EXPECT_EQ(sched.pick(p), 0);
}

TEST(CapacityScheduler, AllZeroCapacitiesFallBackToRoundRobin) {
  // Cold start / every-member-tripped: proportional weights are undefined,
  // so the scheduler must keep cycling all interfaces instead of pinning
  // everything on interface 0.
  CapacityScheduler sched{sim::Rng{4}};
  sched.set_capacities({0.0, 0.0, 0.0});
  net::Packet p;
  EXPECT_EQ(sched.pick(p), 0);
  EXPECT_EQ(sched.pick(p), 1);
  EXPECT_EQ(sched.pick(p), 2);
  EXPECT_EQ(sched.pick(p), 0);
  // Restoring real capacities leaves the proportional path intact.
  sched.set_capacities({0.0, 50.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sched.pick(p), 1);
}

TEST(RoundRobinScheduler, AlternatesExactly) {
  RoundRobinScheduler sched{3};
  net::Packet p;
  EXPECT_EQ(sched.pick(p), 0);
  EXPECT_EQ(sched.pick(p), 1);
  EXPECT_EQ(sched.pick(p), 2);
  EXPECT_EQ(sched.pick(p), 0);
}

TEST(ReorderBuffer, ReleasesInSequenceAfterWarmup) {
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); });
  net::Packet p;
  for (std::uint32_t seq : {0u, 2u, 1u, 3u}) {
    p.seq = seq;
    rb.on_packet(p, sim.now());
  }
  EXPECT_TRUE(out.empty());  // warm-up holds the flow start briefly
  sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(rb.buffered(), 0u);
}

TEST(ReorderBuffer, WarmupAbsorbsOutOfOrderFlowStart) {
  // The flow's first sequence rides the slower medium and arrives second;
  // warm-up prevents it from being treated as a late straggler.
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 1;  // fast-medium packet first
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(5));
  p.seq = 0;  // true first packet arrives late via the slow medium
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(20));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
}

TEST(ReorderBuffer, TimeoutSkipsGap) {
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  p.seq = 2;  // 1 is lost
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(12));  // warm-up done: 0 out, gap at 1
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  sim.run_until(sim::milliseconds(30));  // gap timed out: 2 released
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(rb.timeouts(), 1u);
}

TEST(ReorderBuffer, LateStragglerAfterGapTimeoutIsDropped) {
  // Permanent-loss semantics: once a gap is abandoned, a late copy of the
  // missing packet must NOT be delivered out of order — it is dropped and
  // the flow continues strictly in sequence.
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(5);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  p.seq = 2;
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(15));  // warm-up + gap timeout: 0, 2 out
  ASSERT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
  p.seq = 1;  // straggler arrives after its gap was skipped
  rb.on_packet(p, sim.now());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(rb.stragglers_dropped(), 1u);
  EXPECT_EQ(rb.duplicates_dropped(), 0u);  // late != stale: distinct counters
  p.seq = 3;  // the live flow is unaffected
  rb.on_packet(p, sim.now());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(ReorderBuffer, DuplicateOfDeliveredPacketIsDropped) {
  // Failover salvage can re-send a packet that actually made it through on
  // the dying interface; the duplicate must not reach the app layer.
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(5);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(10));  // warm-up done, 0 delivered
  p.seq = 1;
  rb.on_packet(p, sim.now());
  ASSERT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  p.seq = 0;  // duplicate of an already-delivered packet
  rb.on_packet(p, sim.now());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  // A stale copy of a *delivered* sequence is a duplicate, not a late
  // straggler — the two drop reasons have separate counters.
  EXPECT_EQ(rb.duplicates_dropped(), 1u);
  EXPECT_EQ(rb.stragglers_dropped(), 0u);
}

TEST(ReorderBuffer, ClearResetsToFreshState) {
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(5);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  p.seq = 2;
  rb.on_packet(p, sim.now());
  EXPECT_EQ(rb.buffered(), 2u);
  rb.clear();
  EXPECT_EQ(rb.buffered(), 0u);
  EXPECT_TRUE(out.empty());
  // A fresh flow (new sequence range) starts cleanly after the reset.
  sim.run_until(sim::milliseconds(1));
  p.seq = 100;
  rb.on_packet(p, sim.now());
  p.seq = 101;
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(20));  // warm-up relocks onto 100
  EXPECT_EQ(out, (std::vector<std::uint32_t>{100, 101}));
}

TEST(ReorderBuffer, HandlesBurstLossOverflow) {
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::seconds(100);  // effectively never
  cfg.max_buffered = 16;
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  // Sequence 1 never arrives; 2..40 pile up until the overflow valve opens.
  for (std::uint32_t s = 2; s <= 40; ++s) {
    p.seq = s;
    rb.on_packet(p, sim.now());
  }
  EXPECT_GT(out.size(), 16u);
}

TEST(ReorderBuffer, StragglerExactlyAtGapTimeoutBoundaryIsDropped) {
  // Razor's edge of the gap timeout: the missing packet arrives at the
  // very instant the hold expires. The timeout event was armed when the
  // gap started blocking, so at the shared timestamp it is already in the
  // queue and fires first — the gap is abandoned, delivery skips ahead,
  // and the boundary packet is a straggler, not a rescue. One-nanosecond
  // earlier arrivals (tested below) are rescued instead.
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(11));  // warm-up elapsed, 0 delivered
  ASSERT_EQ(out, (std::vector<std::uint32_t>{0}));
  p.seq = 2;  // gap at 1 starts blocking now
  rb.on_packet(p, sim.now());
  const sim::Time boundary = sim.now() + cfg.hold_timeout;
  sim.run_until(boundary);  // the hold expires exactly now: 2 released
  ASSERT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(rb.timeouts(), 1u);
  p.seq = 1;  // arrives at the boundary instant, after the timeout fired
  rb.on_packet(p, sim.now());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(rb.stragglers_dropped(), 1u);
  EXPECT_EQ(rb.duplicates_dropped(), 0u);
  EXPECT_EQ(rb.buffered(), 0u);
}

TEST(ReorderBuffer, ArrivalOneTickBeforeGapTimeoutIsRescued) {
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(11));
  p.seq = 2;
  rb.on_packet(p, sim.now());
  const sim::Time boundary = sim.now() + cfg.hold_timeout;
  sim.run_until(boundary - sim::Time{1});  // 1 ns before the hold expires
  p.seq = 1;
  rb.on_packet(p, sim.now());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(rb.timeouts(), 0u);
  EXPECT_EQ(rb.stragglers_dropped(), 0u);
  EXPECT_EQ(rb.duplicates_dropped(), 0u);
  sim.run_until(boundary + sim::milliseconds(5));  // stale timer is harmless
  EXPECT_EQ(rb.timeouts(), 0u);
}

TEST(ReorderBuffer, ClearMidGapCancelsTimerAndSupportsReuse) {
  // Adapter reset while a gap is actively blocking: the armed hold timer
  // must die with the buffered packets (no ghost timeout against the next
  // flow), counters survive, and the buffer relocks cleanly on reuse.
  sim::Simulator sim;
  std::vector<std::uint32_t> out;
  ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(10);
  ReorderBuffer rb(sim, [&](const net::Packet& p, sim::Time) { out.push_back(p.seq); },
                   cfg);
  net::Packet p;
  p.seq = 0;
  rb.on_packet(p, sim.now());
  sim.run_until(sim::milliseconds(11));  // locked, 0 delivered
  p.seq = 2;
  rb.on_packet(p, sim.now());  // gap at 1: blocked, timer armed
  p.seq = 1;                   // deliberate straggler bump pre-reset
  sim.run_until(sim::milliseconds(13));
  rb.clear();                  // reset mid-gap, timer pending
  EXPECT_EQ(rb.buffered(), 0u);
  sim.run_until(sim::milliseconds(40));  // past the would-be timeout
  EXPECT_EQ(rb.timeouts(), 0u);          // cancelled timer never fired
  ASSERT_EQ(out, (std::vector<std::uint32_t>{0}));

  // Reuse: a new flow, lower sequence range than the pre-reset one. Without
  // the next_seq_ reset it would all be misclassified as stragglers.
  for (std::uint32_t s : {0u, 2u, 1u}) {
    p.seq = s;
    rb.on_packet(p, sim.now());
  }
  sim.run_until(sim::milliseconds(80));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 0, 1, 2}));
  EXPECT_EQ(rb.buffered(), 0u);
  EXPECT_EQ(rb.stragglers_dropped(), 0u);
  EXPECT_EQ(rb.duplicates_dropped(), 0u);
}

TEST(HybridDevice, AggregatesTwoPipes) {
  sim::Simulator sim;
  PipeInterface fast(sim, sim::milliseconds(2));
  PipeInterface slow(sim, sim::milliseconds(8));
  auto sched = std::make_unique<CapacityScheduler>(sim::Rng{7});
  HybridDevice tx_dev(sim, {&fast, &slow}, std::move(sched));
  tx_dev.set_capacities({80.0, 20.0});

  HybridDevice rx_dev(sim, {&fast, &slow},
                      std::make_unique<RoundRobinScheduler>(2));
  net::OrderMeter order;
  std::uint64_t delivered = 0;
  rx_dev.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    order.on_packet(p, t);
    ++delivered;
  });
  rx_dev.start_receiving();

  net::Packet p;
  for (std::uint32_t s = 0; s < 500; ++s) {
    p.seq = s;
    p.created = sim.now();
    tx_dev.enqueue(p);
    sim.run_until(sim.now() + sim::microseconds(100.0));
  }
  sim.run_until(sim.now() + sim::seconds(1));
  EXPECT_EQ(delivered, 500u);
  EXPECT_EQ(order.out_of_order(), 0u);  // reorder buffer restored sequence
  // Proportional split: the fast pipe carried roughly 80 %.
  const double frac = tx_dev.sent_per_interface(0) /
                      static_cast<double>(500);
  EXPECT_NEAR(frac, 0.8, 0.07);
}

TEST(HybridDevice, SaturatedTestbedRunMatchesTheGoldenPins) {
  // The Fig. 20 pair at 400 Mb/s of UDP through HybridDevice +
  // CapacityScheduler. Most offered sequences die at a full tx queue, so the
  // receiver's resequencer runs at max_buffered with its overflow valve
  // firing on almost every packet. These absolute values pin delivery order
  // and times and every reorder counter. Recorded with gcc.
  obs::MetricsRegistry::instance().reset();
  sim::Simulator sim;
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  testbed::Testbed tb(sim, cfg);
  sim.run_until(testbed::weekday_afternoon());
  int src = -1;
  int dst = -1;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 18.0) continue;
    const double wifi_snr = tb.wifi().channel().mean_snr_db(a, b);
    if (wifi_snr > 12.0 && wifi_snr < 25.0) {
      src = a;
      dst = b;
      break;
    }
  }
  ASSERT_GE(src, 0);
  const auto plc = testbed::measure_plc_throughput(tb, src, dst, sim::seconds(1));
  const auto wifi = testbed::measure_wifi_throughput(tb, src, dst, sim::seconds(1));

  HybridDevice tx(sim, {&tb.plc_station(src).mac(), &tb.wifi_station(src)},
                  std::make_unique<CapacityScheduler>(sim::Rng{11}));
  tx.set_capacities({plc.mean_mbps, wifi.mean_mbps});
  HybridDevice rx(sim, {&tb.plc_station(dst).mac(), &tb.wifi_station(dst)},
                  std::make_unique<RoundRobinScheduler>(2));
  sim::Fnv1a64 digest;
  std::uint64_t delivered = 0;
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    digest.mix(static_cast<std::uint64_t>(p.seq));
    digest.mix(t);
    ++delivered;
  });
  rx.start_receiving();
  net::UdpSource::Config ucfg;
  ucfg.src = src;
  ucfg.dst = dst;
  ucfg.rate_bps = 400e6;
  net::UdpSource source(sim, tx, ucfg);
  const sim::Time start = sim.now();
  source.run(start, start + sim::seconds(3));
  sim.run_until(start + sim::seconds(3));
  source.stop();
  sim.run_until(sim.now() + sim::milliseconds(200));

  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(digest.h, 0xaa7f48095f2ced6dULL);
  EXPECT_EQ(delivered, 27851u);
  EXPECT_EQ(rx.reorder().timeouts(), 78u);
  EXPECT_EQ(rx.reorder().stragglers_dropped(), 0u);
  EXPECT_EQ(rx.reorder().duplicates_dropped(), 0u);
  EXPECT_EQ(snap.counter("hybrid.reorder.overflows"), 10724u);
  EXPECT_EQ(snap.counter("hybrid.reorder.delivered"), delivered);
}

/// Loopback pipe whose wire can be cut: while `dead_`, enqueued packets
/// pile up in a salvageable queue instead of being delivered. Packets (and
/// probe echoes) otherwise return to this pipe's own rx handler after a
/// fixed latency, which lets a single HybridDevice exercise the full
/// probe -> echo -> result round trip.
class KillablePipe final : public net::Interface {
 public:
  KillablePipe(sim::Simulator& sim, sim::Time latency) : sim_(sim), latency_(latency) {}

  bool enqueue(const net::Packet& p) override {
    ++enqueued_;
    if (dead_) {
      queued_.push_back(p);
      return true;
    }
    sim_.after(latency_, [this, p] {
      if (!dead_ && rx_) rx_(p, sim_.now());
    });
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return queued_.size(); }
  void set_rx_handler(RxHandler handler) override { rx_ = std::move(handler); }
  void clear_queue() override { queued_.clear(); }
  std::vector<net::Packet> take_queue() override {
    std::vector<net::Packet> out;
    out.swap(queued_);
    return out;
  }

  bool dead_ = false;
  std::uint64_t enqueued_ = 0;
  std::vector<net::Packet> queued_;

 private:
  sim::Simulator& sim_;
  sim::Time latency_;
  RxHandler rx_;
};

TEST(HybridDevice, ClearQueueFansOutToMembersAndReorder) {
  sim::Simulator sim;
  KillablePipe a(sim, sim::milliseconds(1));
  KillablePipe b(sim, sim::milliseconds(1));
  HybridDevice dev(sim, {&a, &b}, std::make_unique<RoundRobinScheduler>(2));
  std::vector<std::uint32_t> out;
  dev.set_rx_handler([&](const net::Packet& p, sim::Time) { out.push_back(p.seq); });
  dev.start_receiving();

  // Park an out-of-order packet in the reorder buffer (warm-up holds it)...
  net::Packet p;
  p.seq = 7;
  dev.enqueue(p);
  sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(dev.reorder().buffered(), 1u);

  // ...and a backlog in both member queues.
  a.dead_ = b.dead_ = true;
  for (std::uint32_t s = 0; s < 10; ++s) {
    p.seq = s;
    dev.enqueue(p);
  }
  EXPECT_EQ(dev.queue_length(), 10u);

  // The logical interface's flush reaches every member and the resequencer.
  dev.clear_queue();
  EXPECT_EQ(dev.queue_length(), 0u);
  EXPECT_EQ(dev.reorder().buffered(), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(HybridDevice, FailoverTripsSalvagesAndRecovers) {
  sim::Simulator sim;
  KillablePipe a(sim, sim::milliseconds(1));
  KillablePipe b(sim, sim::milliseconds(1));
  HybridDevice dev(sim, {&a, &b},
                   std::make_unique<CapacityScheduler>(sim::Rng{9}));
  dev.set_capacities({50.0, 50.0});

  std::vector<std::pair<int, fault::HealthMonitor::State>> transitions;
  HybridDevice::FailoverConfig fc;
  fc.health.probe_interval = sim::milliseconds(10);
  fc.health.probe_timeout = sim::milliseconds(5);
  fc.health.trip_threshold = 2;
  fc.health.backoff_initial = sim::milliseconds(20);
  fc.health.backoff_max = sim::milliseconds(40);
  fc.health.recovery_successes = 2;
  fc.on_transition = [&](int m, fault::HealthMonitor::State s, sim::Time) {
    transitions.emplace_back(m, s);
  };
  dev.enable_failover(fc);

  sim.run_until(sim::milliseconds(100));
  EXPECT_TRUE(dev.member_live(0));
  EXPECT_TRUE(dev.member_live(1));
  EXPECT_GT(dev.monitor(0).probes_sent(), 0u);
  EXPECT_EQ(dev.monitor(0).trips(), 0u);

  // Cut member 0's wire with traffic queued on it: the breaker must trip
  // and the backlog must move to the survivor.
  a.dead_ = true;
  net::Packet p;
  for (std::uint32_t s = 0; s < 40; ++s) {
    p.seq = s;
    dev.enqueue(p);
  }
  ASSERT_GT(a.queue_length(), 0u);
  const std::uint64_t b_before_salvage = b.enqueued_;
  sim.run_until(sim::milliseconds(200));
  EXPECT_FALSE(dev.member_live(0));
  EXPECT_TRUE(dev.member_live(1));
  EXPECT_EQ(dev.monitor(0).trips(), 1u);
  EXPECT_GT(dev.salvaged_packets(), 0u);
  EXPECT_GE(b.enqueued_, b_before_salvage + dev.salvaged_packets());

  // While tripped, new packets avoid the dead member entirely.
  const std::uint64_t a_before = a.enqueued_;
  const std::uint64_t b_before = b.enqueued_;
  for (std::uint32_t s = 100; s < 150; ++s) {
    p.seq = s;
    dev.enqueue(p);
  }
  EXPECT_EQ(a.enqueued_, a_before);  // only reprobes may touch the dead pipe
  EXPECT_EQ(b.enqueued_, b_before + 50);

  // Wire restored: the breaker walks open -> half-open -> closed and the
  // member rejoins the split.
  a.dead_ = false;
  sim.run_until(sim::milliseconds(500));
  EXPECT_TRUE(dev.member_live(0));
  EXPECT_GE(dev.monitor(0).recoveries(), 1u);

  bool saw_open = false, saw_closed_after_open = false;
  for (const auto& [m, s] : transitions) {
    if (m != 0) continue;
    if (s == fault::HealthMonitor::State::kOpen) saw_open = true;
    if (saw_open && s == fault::HealthMonitor::State::kClosed) {
      saw_closed_after_open = true;
    }
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_closed_after_open);
}

TEST(RoundRobinSplitter, AlternatesStrictly) {
  sim::Simulator sim;
  PipeInterface a(sim, sim::milliseconds(1));
  PipeInterface b(sim, sim::milliseconds(1));
  RoundRobinSplitter splitter(sim, {&a, &b});
  net::Packet p;
  for (std::uint32_t s = 0; s < 10; ++s) {
    p.seq = s;
    splitter.enqueue(p);
  }
  EXPECT_EQ(a.enqueued_, 5u);
  EXPECT_EQ(b.enqueued_, 5u);
}

/// Interface stub with a controllable queue length, to exercise the
/// head-of-line blocking semantics.
class StubQueue final : public net::Interface {
 public:
  bool enqueue(const net::Packet&) override {
    ++accepted_;
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return depth_; }
  void set_rx_handler(RxHandler) override {}
  std::size_t depth_ = 0;
  std::uint64_t accepted_ = 0;
};

TEST(RoundRobinSplitter, HeadOfLineBlocksBothInterfaces) {
  sim::Simulator sim;
  StubQueue slow, fast;
  slow.depth_ = 1000;  // permanently over the watermark
  RoundRobinSplitter splitter(sim, {&slow, &fast});
  net::Packet p;
  for (std::uint32_t s = 0; s < 20; ++s) {
    p.seq = s;
    splitter.enqueue(p);
  }
  sim.run_until(sim::seconds(1));
  // Strict alternation: the stalled slow interface starves the fast one —
  // this is exactly the paper's round-robin bottleneck (Fig. 20).
  EXPECT_EQ(slow.accepted_, 0u);
  EXPECT_EQ(fast.accepted_, 0u);
  EXPECT_EQ(splitter.queue_length(), 20u);
  // The moment the slow queue drains, the stage flushes in order.
  slow.depth_ = 0;
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(slow.accepted_, 10u);
  EXPECT_EQ(fast.accepted_, 10u);
}

TEST(RoundRobinSplitter, StageLimitDropsExcess) {
  sim::Simulator sim;
  StubQueue blocked;
  blocked.depth_ = 1000;
  RoundRobinSplitter::Config cfg;
  cfg.stage_limit = 8;
  RoundRobinSplitter splitter(sim, {&blocked}, cfg);
  net::Packet p;
  int accepted = 0;
  for (std::uint32_t s = 0; s < 20; ++s) {
    p.seq = s;
    accepted += splitter.enqueue(p) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 8);
}

TEST(LinkMetricTable, UpdateAndGet) {
  LinkMetricTable table;
  EXPECT_FALSE(table.get(0, 1, Medium::kPlc).has_value());
  table.update(0, 1, Medium::kPlc, {120.0, 0.01, sim::seconds(10)});
  const auto m = table.get(0, 1, Medium::kPlc);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->capacity_mbps, 120.0);
  // Directed and per-medium: the reverse/other-medium entries are absent.
  EXPECT_FALSE(table.get(1, 0, Medium::kPlc).has_value());
  EXPECT_FALSE(table.get(0, 1, Medium::kWifi).has_value());
}

TEST(LinkMetricTable, FreshnessWindow) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kWifi, {65.0, 0.0, sim::seconds(10)});
  EXPECT_DOUBLE_EQ(table.fresh_capacity_mbps(0, 1, Medium::kWifi, sim::seconds(12),
                                             sim::seconds(5)),
                   65.0);
  EXPECT_DOUBLE_EQ(table.fresh_capacity_mbps(0, 1, Medium::kWifi, sim::seconds(30),
                                             sim::seconds(5)),
                   0.0);
}

TEST(LinkMetricTable, EntriesEnumerates) {
  LinkMetricTable table;
  table.update(0, 1, Medium::kPlc, {100.0, 0.0, {}});
  table.update(0, 1, Medium::kWifi, {60.0, 0.0, {}});
  table.update(2, 3, Medium::kPlc, {40.0, 0.1, {}});
  EXPECT_EQ(table.entries().size(), 3u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(MediumNames, ToString) {
  EXPECT_EQ(to_string(Medium::kPlc), "plc");
  EXPECT_EQ(to_string(Medium::kWifi), "wifi");
}

}  // namespace
}  // namespace efd::hybrid
