// Ablation: data-link-layer error recovery. PCIe's DLL retransmits
// corrupted TLPs transparently (§3), which clean testbeds never see —
// this sweep injects per-TLP fault probabilities and shows the cost in
// latency tail, bandwidth, and goodput, e.g. a marginal riser or
// connector.
//
// Two sections:
//  1. LCRC-corruption sweep (corrupt@prob=P fault plans): each replayed
//     TLP occupies the wire twice plus a NAK round trip — rare replays
//     surface as a latency tail long before they dent throughput.
//  2. goodput vs injected error rate: drops lose payload for good (the
//     device retries reads, but posted writes are gone), corruption only
//     costs wire efficiency. Emitted as CSV; pass an output path to
//     regenerate the committed tier-2 snapshot
//     (bench/expected/fault_goodput.csv).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "fault_sweep.hpp"

int main(int argc, char** argv) {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Ablation: DLL fault injection (NetFPGA-HSW, 256 B transfers)",
      "Each replayed TLP occupies the wire twice plus an ack-timeout "
      "penalty; rare replays surface as a latency tail long before they "
      "dent throughput. Dropped TLPs cost goodput instead.");

  TextTable table({"corrupt_prob", "BW_WR_Gbps", "LAT_RD_med_ns",
                   "LAT_RD_p99_ns", "LAT_RD_max_ns"});
  for (double prob : {0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.1}) {
    auto cfg = sys::netfpga_hsw().config;
    if (prob > 0.0) {
      char spec[48];
      std::snprintf(spec, sizeof spec, "corrupt@prob=%g", prob);
      cfg.fault_plan = fault::parse_plan(spec);
    }

    bench::BandwidthSpec bw;
    bw.kind = BenchKind::BwWr;
    bw.size = 256;
    bw.iterations = 25000;
    const double gbps = bench::run_bw_gbps(cfg, bw);

    bench::LatencySpec lat;
    lat.size = 256;
    lat.iterations = 20000;
    const auto r = bench::run_latency(cfg, lat);

    table.add_row({TextTable::num(prob, 6), TextTable::num(gbps, 2),
                   TextTable::num(r.summary.median_ns, 0),
                   TextTable::num(r.summary.p99_ns, 0),
                   TextTable::num(r.summary.max_ns, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("goodput vs injected error rate (BW_WR 256 B, dir=up):\n");
  const auto rows = bench::run_fault_sweep();
  TextTable curve({"kind", "rate", "offered_Gbps", "goodput_Gbps",
                   "wire_Gbps", "lost_B", "injected"});
  for (const auto& row : rows) {
    curve.add_row({row.kind, TextTable::num(row.rate, 6),
                   TextTable::num(row.result.gbps, 2),
                   TextTable::num(row.result.goodput_gbps, 2),
                   TextTable::num(row.result.wire_gbps, 2),
                   std::to_string(row.result.lost_payload_bytes),
                   std::to_string(row.injected)});
  }
  std::printf("%s", curve.to_string().c_str());

  if (argc > 1) {
    const std::string csv = bench::fault_sweep_csv(rows);
    std::FILE* f = std::fopen(argv[1], "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", argv[1]);
  }
  return 0;
}
