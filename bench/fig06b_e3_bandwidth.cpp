// §6.2's bandwidth observations, which the paper describes but does not
// plot ("The differences are also reflected in the bandwidth benchmarks
// (not shown) where for DMA reads the Xeon E3 system only matches the
// Xeon E5 system for transfers larger than 512B and, for DMA writes,
// never achieves the throughput required for 40Gb/s Ethernet for any
// transfer size.").
#include <cstdio>

#include "bench_common.hpp"
#include "pcie/bandwidth.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Fig 6 companion: Xeon E3 vs E5 bandwidth (described in §6.2, not "
      "plotted in the paper)",
      "E3 reads match the E5 only above 512 B; E3 writes never reach the "
      "40GbE requirement at any size.");

  const auto e5 = sys::nfp6000_hsw().config;
  const auto e3 = sys::nfp6000_hsw_e3().config;

  const std::uint32_t sizes[] = {64, 128, 256, 512, 1024, 1536, 2048};
  // Per size: E5_RD, E3_RD, E5_WR, E3_WR, all in one batch.
  std::vector<bench::Point> points;
  for (std::uint32_t sz : sizes) {
    for (auto [cfg, kind] : {std::pair{&e5, BenchKind::BwRd},
                             std::pair{&e3, BenchKind::BwRd},
                             std::pair{&e5, BenchKind::BwWr},
                             std::pair{&e3, BenchKind::BwWr}}) {
      bench::BandwidthSpec spec;
      spec.kind = kind;
      spec.size = sz;
      spec.iterations = 20000;
      points.push_back({cfg, spec});
    }
  }
  const auto gbps = bench::run_points(points);

  TextTable table({"size_B", "E5_RD", "E3_RD", "E5_WR", "E3_WR",
                   "40G_demand", "E3_WR_meets_40G"});
  std::size_t k = 0;
  for (std::uint32_t sz : sizes) {
    const double demand = proto::ethernet_pcie_demand_gbps(40.0, sz);
    const double e3_wr = gbps[k + 3];
    table.add_row({std::to_string(sz), TextTable::num(gbps[k], 1),
                   TextTable::num(gbps[k + 1], 1),
                   TextTable::num(gbps[k + 2], 1), TextTable::num(e3_wr, 1),
                   TextTable::num(demand, 1),
                   e3_wr >= demand ? "yes (BUG)" : "no"});
    k += 4;
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
