#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace pcieb::sim {
namespace {

proto::Tlp write_tlp(std::uint32_t payload) {
  return proto::Tlp{proto::TlpType::MemWr, 0x1000, payload, 0, 0};
}

TEST(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  Simulator sim;
  proto::LinkConfig cfg = proto::gen3_x8();
  Link link(sim, cfg, from_nanos(100));
  Picos delivered = -1;
  link.set_deliver([&](const proto::Tlp&) { delivered = sim.now(); });
  const proto::Tlp t = write_tlp(256);  // 280 wire bytes
  const Picos predicted = link.send(t);
  sim.run();
  EXPECT_EQ(delivered, predicted);
  const Picos ser = serialization_ps(280, cfg.tlp_gbps());
  EXPECT_EQ(delivered, ser + from_nanos(100));
}

TEST(LinkTest, BackToBackTlpsSerialize) {
  Simulator sim;
  proto::LinkConfig cfg = proto::gen3_x8();
  Link link(sim, cfg, 0);
  std::vector<Picos> times;
  link.set_deliver([&](const proto::Tlp&) { times.push_back(sim.now()); });
  link.send(write_tlp(256));
  link.send(write_tlp(256));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1] - times[0], serialization_ps(280, cfg.tlp_gbps()));
}

TEST(LinkTest, DeliveryPreservesOrder) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), from_nanos(50));
  std::vector<std::uint32_t> tags;
  link.set_deliver([&](const proto::Tlp& t) { tags.push_back(t.tag); });
  for (std::uint32_t i = 0; i < 20; ++i) {
    proto::Tlp t = write_tlp(64);
    t.tag = i;
    link.send(t);
  }
  sim.run();
  ASSERT_EQ(tags.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(tags[i], i);
}

TEST(LinkTest, CountsBytesAndTlps) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  link.set_deliver([](const proto::Tlp&) {});
  link.send(write_tlp(64));   // 88 wire bytes
  link.send(write_tlp(128));  // 152 wire bytes
  sim.run();
  EXPECT_EQ(link.tlps_sent(), 2u);
  EXPECT_EQ(link.wire_bytes_sent(), 240u);
  EXPECT_EQ(link.payload_bytes_sent(), 192u);
}

TEST(LinkTest, SustainedRateMatchesConfiguredBandwidth) {
  Simulator sim;
  proto::LinkConfig cfg = proto::gen3_x8();
  Link link(sim, cfg, from_nanos(100));
  std::size_t delivered = 0;
  link.set_deliver([&](const proto::Tlp&) { ++delivered; });
  const int n = 1000;
  for (int i = 0; i < n; ++i) link.send(write_tlp(256));
  sim.run();
  EXPECT_EQ(delivered, static_cast<std::size_t>(n));
  // Payload goodput over the busy interval: 256/280 of the TLP rate.
  const double achieved = gbps(static_cast<std::uint64_t>(n) * 256,
                               sim.now() - from_nanos(100));
  EXPECT_NEAR(achieved, cfg.tlp_gbps() * 256.0 / 280.0, 0.2);
}

TEST(LinkTest, NoDeliverCallbackIsSafe) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  link.send(write_tlp(64));
  EXPECT_NO_THROW(sim.run());
}

// --- lanes -------------------------------------------------------------

// Delivery times, wire bytes and DLL counters of one link run under a
// corrupt + ack-loss + drop plan, with TLPs sent in bursts of mixed sizes.
struct LaneRun {
  std::vector<Picos> returned;
  std::vector<Picos> delivered;
  std::vector<std::uint32_t> tags;
  std::uint64_t wire_bytes = 0;
  std::uint64_t replays = 0;
  std::uint64_t retrains = 0;
  std::uint64_t dropped = 0;
};

LaneRun run_faulted(bool one_lane_tenant_mode) {
  Simulator sim;
  fault::FaultInjector injector(fault::parse_plan(
      "corrupt@every=3;ack-loss@every=5;drop@every=7;corrupt@nth=20,count=6"));
  Link link(sim, proto::gen3_x8(), from_nanos(100));
  if (one_lane_tenant_mode) link.configure_tenants({1});
  link.set_fault_injector(&injector, /*upstream=*/true);
  LaneRun r;
  link.set_deliver([&](const proto::Tlp& t) {
    r.delivered.push_back(sim.now());
    r.tags.push_back(t.tag);
  });
  for (std::uint32_t i = 0; i < 60; ++i) {
    proto::Tlp t = write_tlp(64u << (i % 4));
    t.tag = i;
    sim.at(from_nanos(40) * (i / 6), [&link, &r, t] {
      r.returned.push_back(link.send(t));
    });
  }
  sim.run();
  r.wire_bytes = link.wire_bytes_sent();
  r.replays = link.replays();
  r.retrains = link.retrains();
  r.dropped = link.dropped();
  return r;
}

TEST(LinkTest, OneLaneTenantModeMatchesPlainLink) {
  const LaneRun plain = run_faulted(false);
  const LaneRun lane = run_faulted(true);
  // The plan must actually exercise replay, retrain and drop.
  EXPECT_GT(plain.replays, 0u);
  EXPECT_EQ(plain.retrains, 1u);
  EXPECT_GT(plain.dropped, 0u);
  EXPECT_EQ(lane.returned, plain.returned);
  EXPECT_EQ(lane.delivered, plain.delivered);
  EXPECT_EQ(lane.tags, plain.tags);
  EXPECT_EQ(lane.wire_bytes, plain.wire_bytes);
  EXPECT_EQ(lane.replays, plain.replays);
  EXPECT_EQ(lane.retrains, plain.retrains);
  EXPECT_EQ(lane.dropped, plain.dropped);
}

TEST(LinkTest, AggregateCountersAreLaneSums) {
  Simulator sim;
  fault::FaultInjector injector(fault::parse_plan(
      "corrupt@every=5;ack-loss@every=11;drop@every=13;poison@every=17;"
      "corrupt@nth=30,count=6"));
  Link link(sim, proto::gen3_x8(), from_nanos(100));
  link.configure_tenants({1, 2, 3, 4});
  link.set_fault_injector(&injector, /*upstream=*/true);
  link.set_deliver([](const proto::Tlp&) {});
  for (std::uint32_t i = 0; i < 200; ++i) {
    proto::Tlp t = write_tlp(128);
    t.tag = i;
    t.func = static_cast<std::uint8_t>(i % 4);
    sim.at(from_nanos(20) * i, [&link, t] { link.send(t); });
  }
  // Contain function 2 mid-run (discarding its in-flight and later TLPs),
  // then release it.
  sim.at(from_nanos(1000), [&link] { link.set_func_blocked(2, true); });
  sim.at(from_nanos(3000), [&link] { link.set_func_blocked(2, false); });
  sim.run();

  Link::FuncCounters sum;
  for (unsigned f = 0; f < 4; ++f) {
    const Link::FuncCounters& c = link.func_counters(f);
    sum.tlps += c.tlps;
    sum.wire_bytes += c.wire_bytes;
    sum.payload_bytes += c.payload_bytes;
    sum.replays += c.replays;
    sum.replay_timeouts += c.replay_timeouts;
    sum.retrains += c.retrains;
    sum.dropped += c.dropped;
    sum.poisoned += c.poisoned;
    sum.blocked_drops += c.blocked_drops;
  }
  EXPECT_GT(sum.replays, 0u);
  EXPECT_GT(sum.replay_timeouts, 0u);
  EXPECT_EQ(sum.retrains, 1u);
  EXPECT_GT(sum.dropped, 0u);
  EXPECT_GT(sum.poisoned, 0u);
  EXPECT_GT(link.func_counters(2).blocked_drops, 0u);
  EXPECT_EQ(link.tlps_sent(), sum.tlps);
  EXPECT_EQ(link.wire_bytes_sent(), sum.wire_bytes);
  EXPECT_EQ(link.payload_bytes_sent(), sum.payload_bytes);
  EXPECT_EQ(link.replays(), sum.replays);
  EXPECT_EQ(link.replay_timeouts(), sum.replay_timeouts);
  EXPECT_EQ(link.retrains(), sum.retrains);
  EXPECT_EQ(link.dropped(), sum.dropped);
  EXPECT_EQ(link.poisoned(), sum.poisoned);
  EXPECT_EQ(link.blocked_drops(), sum.blocked_drops);
  EXPECT_EQ(link.unacked(), 0u);
}

TEST(LinkTest, CounterSourcesSurviveReset) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  const Link::CounterSources s = link.counter_sources();
  link.send(write_tlp(64));   // 88 wire bytes
  link.send(write_tlp(128));  // 152 wire bytes
  sim.run();
  EXPECT_EQ(*s.tlps, 2u);
  EXPECT_EQ(*s.wire_bytes, 240u);
  EXPECT_EQ(*s.payload_bytes, 192u);

  sim.reset();
  link.reset({});
  EXPECT_EQ(*s.tlps, 0u);
  EXPECT_EQ(*s.wire_bytes, 0u);
  fault::FaultInjector injector(fault::parse_plan("corrupt@every=1"));
  link.set_fault_injector(&injector, /*upstream=*/true);
  link.send(write_tlp(64));
  sim.run();
  EXPECT_EQ(*s.tlps, 1u);
  EXPECT_EQ(*s.wire_bytes, 2u * 88u);
  EXPECT_EQ(*s.replays, 1u);

  // A trial in tenant mode, then back to a plain link: lane 0 stays put.
  sim.reset();
  link.reset({});
  link.configure_tenants({1, 1});
  EXPECT_THROW(link.counter_sources(), std::logic_error);
  proto::Tlp t = write_tlp(64);
  t.func = 1;
  link.send(t);
  sim.run();
  EXPECT_EQ(*s.tlps, 0u);
  EXPECT_EQ(link.tlps_sent(), 1u);
  sim.reset();
  link.reset({});
  EXPECT_EQ(link.counter_sources().tlps, s.tlps);
  link.send(write_tlp(64));
  sim.run();
  EXPECT_EQ(*s.tlps, 1u);
  EXPECT_EQ(*s.wire_bytes, 88u);
  EXPECT_EQ(*s.replays, 0u);
}

}  // namespace
}  // namespace pcieb::sim
