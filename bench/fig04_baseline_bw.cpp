// Figure 4: baseline DMA bandwidth (BW_RD / BW_WR / BW_RDWR) for the
// NFP6000-HSW and NetFPGA-HSW pairings against the §3 model and the
// 40GbE requirement. Warm 8 KB buffer, as in the paper.
#include <cstdio>

#include "bench_common.hpp"
#include "pcie/bandwidth.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Figure 4: baseline PCIe DMA bandwidth (warm 8 KB buffer)",
      "Paper: NetFPGA closely follows the model; NFP slightly below "
      "(internal staging and engine overheads); neither sustains 40GbE "
      "line rate for small-transfer reads.");

  const auto nfp = sys::nfp6000_hsw().config;
  const auto fpga = sys::netfpga_hsw().config;
  const auto link = nfp.link;

  struct Panel {
    const char* title;
    BenchKind kind;
    double (*model)(const proto::LinkConfig&, std::uint32_t, std::uint64_t);
  };
  const Panel panels[] = {
      {"(a) PCIe Read Bandwidth", BenchKind::BwRd, proto::effective_read_gbps},
      {"(b) PCIe Write Bandwidth", BenchKind::BwWr, proto::effective_write_gbps},
      {"(c) PCIe Read/Write Bandwidth", BenchKind::BwRdWr,
       proto::effective_rdwr_gbps},
  };

  // Every (panel, size, system) point in one batch, NFP then NetFPGA.
  const auto sizes = bench::transfer_ladder();
  std::vector<bench::Point> points;
  for (const auto& panel : panels) {
    for (std::uint32_t sz : sizes) {
      bench::BandwidthSpec spec;
      spec.kind = panel.kind;
      spec.size = sz;
      spec.iterations = 25000;
      points.push_back({&nfp, spec});
      points.push_back({&fpga, spec});
    }
  }
  const auto gbps = bench::run_points(points);

  std::size_t k = 0;
  for (const auto& panel : panels) {
    std::printf("--- %s ---\n", panel.title);
    TextTable table({"size_B", "model_Gbps", "40G_ethernet", "NFP6000-HSW",
                     "NetFPGA-HSW"});
    for (std::uint32_t sz : sizes) {
      table.add_row({std::to_string(sz),
                     TextTable::num(panel.model(link, sz, 0)),
                     TextTable::num(proto::ethernet_pcie_demand_gbps(40.0, sz)),
                     TextTable::num(gbps[k]), TextTable::num(gbps[k + 1])});
      k += 2;
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  return 0;
}
