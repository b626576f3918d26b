// Figure 5: median DMA latency (min / 95th percentile as extra columns)
// vs transfer size for LAT_RD and LAT_WRRD on both devices.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Figure 5: DMA latency vs transfer size (warm 8 KB buffer)",
      "Paper: 400-1600 ns band; NFP carries a ~100 ns fixed enqueue offset "
      "over the NetFPGA, widening with size (internal staging transfer); "
      "LAT_WRRD sits above LAT_RD.");

  const auto nfp = sys::nfp6000_hsw().config;
  const auto fpga = sys::netfpga_hsw().config;

  const std::pair<BenchKind, const char*> panels[] = {
      {BenchKind::LatRd, "LAT_RD"}, {BenchKind::LatWrRd, "LAT_WRRD"}};
  const std::uint32_t sizes[] = {8, 16, 32, 64, 128, 256, 512, 1024, 2048};

  // Every (panel, size, system) point in one batch, NFP then NetFPGA.
  std::vector<std::pair<const sim::SystemConfig*, bench::LatencySpec>> points;
  for (const auto& [kind, label] : panels) {
    for (std::uint32_t sz : sizes) {
      bench::LatencySpec spec;
      spec.kind = kind;
      spec.size = sz;
      spec.iterations = 8000;
      points.emplace_back(&nfp, spec);
      points.emplace_back(&fpga, spec);
    }
  }
  const auto results = bench::parallel_map(points.size(), [&](std::size_t i) {
    return bench::run_latency(*points[i].first, points[i].second).summary;
  });

  std::size_t k = 0;
  for (const auto& panel : panels) {
    std::printf("--- %s ---\n", panel.second);
    TextTable table({"size_B", "NFP_med_ns", "NFP_min", "NFP_p95",
                     "NetFPGA_med_ns", "NetFPGA_min", "NetFPGA_p95"});
    for (std::uint32_t sz : sizes) {
      const auto& a = results[k];
      const auto& b = results[k + 1];
      k += 2;
      table.add_row({std::to_string(sz), TextTable::num(a.median_ns, 0),
                     TextTable::num(a.min_ns, 0), TextTable::num(a.p95_ns, 0),
                     TextTable::num(b.median_ns, 0),
                     TextTable::num(b.min_ns, 0), TextTable::num(b.p95_ns, 0)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  return 0;
}
