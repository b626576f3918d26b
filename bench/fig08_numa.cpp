// Figure 8: NUMA impact on DMA read bandwidth (NFP6000-BDW, warm cache):
// percentage change of remote-node vs local-node buffers, per transfer
// size, across window sizes.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  bench::print_header(
      "Figure 8: local vs remote DMA read bandwidth (NFP6000-BDW, warm)",
      "Paper: 64 B reads lose ~20% while cache-resident, ~10% beyond the "
      "LLC; 128/256 B lose ~5-7%; 512 B shows no penalty. Writes are "
      "unaffected by locality.");

  const auto cfg = sys::nfp6000_bdw().config;
  const std::uint32_t sizes[] = {64, 128, 256, 512};
  // Per (window, size): local then remote read. The write spot-check's
  // local/remote pair goes last in the same batch.
  std::vector<bench::Point> points;
  for (std::uint64_t w : bench::window_ladder()) {
    for (std::uint32_t sz : sizes) {
      bench::BandwidthSpec spec;
      spec.kind = BenchKind::BwRd;
      spec.size = sz;
      spec.window = w;
      spec.iterations = 25000;
      spec.local = true;
      points.push_back({&cfg, spec});
      spec.local = false;
      points.push_back({&cfg, spec});
    }
  }
  bench::BandwidthSpec wr;
  wr.kind = BenchKind::BwWr;
  wr.size = 64;
  wr.window = 64ull << 10;
  wr.local = true;
  points.push_back({&cfg, wr});
  wr.local = false;
  points.push_back({&cfg, wr});
  const auto gbps = bench::run_points(points);

  TextTable table({"window", "64B_%", "128B_%", "256B_%", "512B_%"});
  std::size_t k = 0;
  for (std::uint64_t w : bench::window_ladder()) {
    std::vector<std::string> row{bench::human_window(w)};
    for (std::size_t c = 0; c < std::size(sizes); ++c, k += 2)
      row.push_back(TextTable::num(core::pct_change(gbps[k], gbps[k + 1]), 1));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());

  // The write-locality claim, spot-checked at 64 B.
  const double wl = gbps[k];
  const double wrem = gbps[k + 1];
  std::printf("BW_WR 64B local %.1f vs remote %.1f Gb/s (%+.1f%%) — "
              "writes land in the local DDIO cache regardless.\n",
              wl, wrem, core::pct_change(wl, wrem));
  return 0;
}
