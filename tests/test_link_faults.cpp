#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/link.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::sim {
namespace {

proto::Tlp write_tlp(std::uint32_t payload) {
  return proto::Tlp{proto::TlpType::MemWr, 0x1000, payload, 0, 0};
}

TEST(LinkFaultsTest, NoFaultsByDefault) {
  Simulator sim;
  Link link(sim, proto::gen3_x8(), 0);
  for (int i = 0; i < 1000; ++i) link.send(write_tlp(64));
  sim.run();
  EXPECT_EQ(link.replays(), 0u);
}

TEST(LinkFaultsTest, AlwaysFaultReplaysEveryTlp) {
  Simulator sim;
  fault::FaultInjector injector(fault::parse_plan("corrupt@every=1"));
  Link link(sim, proto::gen3_x8(), 0);
  link.set_fault_injector(&injector, /*upstream=*/true);
  for (int i = 0; i < 100; ++i) link.send(write_tlp(64));
  sim.run();
  EXPECT_EQ(link.replays(), 100u);
  // Wire bytes counted twice per TLP.
  EXPECT_EQ(link.wire_bytes_sent(), 2u * 100u * 88u);
}

TEST(LinkFaultsTest, ReplayDelaysDelivery) {
  const proto::LinkConfig cfg = proto::gen3_x8();
  Simulator clean_sim;
  Link clean(clean_sim, cfg, 0);
  const Picos clean_done = clean.send(write_tlp(64));

  Simulator faulty_sim;
  fault::FaultInjector injector(fault::parse_plan("corrupt@every=1"));
  LinkDllConfig dll;
  dll.ack_latency = from_nanos(250);
  Link faulty(faulty_sim, cfg, 0, dll);
  faulty.set_fault_injector(&injector, /*upstream=*/true);
  const Picos faulty_done = faulty.send(write_tlp(64));
  // One extra serialization plus the NAK round trip.
  EXPECT_EQ(faulty_done - clean_done,
            serialization_ps(88, cfg.tlp_gbps()) + from_nanos(250));
}

TEST(LinkFaultsTest, DeliveryStillInOrder) {
  Simulator sim;
  fault::FaultInjector injector(fault::parse_plan("corrupt@prob=0.5"));
  Link link(sim, proto::gen3_x8(), from_nanos(10));
  link.set_fault_injector(&injector, /*upstream=*/true);
  std::vector<std::uint32_t> tags;
  link.set_deliver([&](const proto::Tlp& t) { tags.push_back(t.tag); });
  for (std::uint32_t i = 0; i < 50; ++i) {
    proto::Tlp t = write_tlp(64);
    t.tag = i;
    link.send(t);
  }
  sim.run();
  EXPECT_GT(link.replays(), 0u);
  ASSERT_EQ(tags.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(tags[i], i);
}

TEST(LinkFaultsTest, RareReplaysWidenLatencyTailNotMedian) {
  auto clean_cfg = sys::netfpga_hsw().config;
  auto faulty_cfg = clean_cfg;
  faulty_cfg.fault_plan = fault::parse_plan("corrupt@prob=0.01");

  core::BenchParams p;
  p.kind = core::BenchKind::LatRd;
  p.transfer_size = 256;
  p.iterations = 4000;
  sim::System clean_sys(clean_cfg);
  const auto clean = core::run_latency_bench(clean_sys, p);
  sim::System faulty_sys(faulty_cfg);
  const auto faulty = core::run_latency_bench(faulty_sys, p);

  EXPECT_NEAR(faulty.summary.median_ns, clean.summary.median_ns, 10.0);
  EXPECT_GT(faulty.summary.p99_ns, clean.summary.p99_ns + 150.0);
}

TEST(LinkFaultsTest, HeavyReplaysCutWriteBandwidth) {
  auto clean_cfg = sys::netfpga_hsw().config;
  auto faulty_cfg = clean_cfg;
  faulty_cfg.fault_plan = fault::parse_plan("corrupt@prob=0.1");

  core::BenchParams p;
  p.kind = core::BenchKind::BwWr;
  p.transfer_size = 256;
  p.iterations = 15000;
  sim::System clean_sys(clean_cfg);
  const double clean = core::run_bandwidth_bench(clean_sys, p).gbps;
  sim::System faulty_sys(faulty_cfg);
  const double faulty = core::run_bandwidth_bench(faulty_sys, p).gbps;
  EXPECT_LT(faulty, 0.75 * clean);
}

}  // namespace
}  // namespace pcieb::sim
