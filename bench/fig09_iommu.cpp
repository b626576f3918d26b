// Figure 9: IOMMU impact on DMA read bandwidth (NFP6000-BDW, warm cache,
// intel_iommu=on with superpages disabled i.e. 4 KB pages): percentage
// change vs the IOMMU-off baseline, per transfer size, across windows.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Figure 9: IOMMU impact on DMA reads (NFP6000-BDW, warm, 4 KB pages)",
      "Paper: no impact up to a 256 KB window (64-entry IO-TLB x 4 KB), "
      "then 64 B reads drop by almost 70%, 256 B by ~30%, and 512 B+ are "
      "unaffected; the IO-TLB miss costs ~330 ns.");

  const auto base = sys::nfp6000_bdw().config;
  const auto on = sys::with_iommu(base, true, 4096);

  const std::uint32_t sizes[] = {64, 128, 256, 512};
  // Per (window, size): IOMMU off then on. The latency and write
  // spot-checks' off/on pairs go last in the same batch.
  std::vector<bench::Point> points;
  for (std::uint64_t w : bench::window_ladder()) {
    for (std::uint32_t sz : sizes) {
      bench::BandwidthSpec spec;
      spec.kind = BenchKind::BwRd;
      spec.size = sz;
      spec.window = w;
      spec.iterations = 25000;
      points.push_back({&base, spec});
      points.push_back({&on, spec});
    }
  }
  bench::LatencySpec lat;
  lat.size = 64;
  lat.window = 16ull << 20;
  lat.cmd_if = true;
  lat.iterations = 8000;
  points.push_back({&base, lat});
  points.push_back({&on, lat});
  bench::BandwidthSpec wr;
  wr.kind = BenchKind::BwWr;
  wr.size = 64;
  wr.window = 16ull << 20;
  points.push_back({&base, wr});
  points.push_back({&on, wr});
  const auto values = bench::run_points(points);

  TextTable table({"window", "64B_%", "128B_%", "256B_%", "512B_%"});
  std::size_t k = 0;
  for (std::uint64_t w : bench::window_ladder()) {
    std::vector<std::string> row{bench::human_window(w)};
    for (std::size_t c = 0; c < std::size(sizes); ++c, k += 2)
      row.push_back(
          TextTable::num(core::pct_change(values[k], values[k + 1]), 1));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());

  // Latency view of the miss cost (§6.5: ~430 ns -> ~760 ns at 64 B).
  const double l_off = values[k];
  const double l_on = values[k + 1];
  std::printf("64 B read latency, 16M window: %.0f ns (off) -> %.0f ns (on); "
              "IO-TLB miss + walk = %.0f ns\n", l_off, l_on, l_on - l_off);

  // Writes drop too, but less (§6.5: ~55%% at 64 B).
  const double w_off = values[k + 2];
  const double w_on = values[k + 3];
  std::printf("BW_WR 64B, 16M window: %.1f -> %.1f Gb/s (%+.1f%%)\n", w_off,
              w_on, core::pct_change(w_off, w_on));
  return 0;
}
