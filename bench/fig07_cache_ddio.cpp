// Figure 7: cache and DDIO effects on NFP6000-SNB.
//  (a) 8 B LAT_RD / LAT_WRRD, cold vs warm, across window sizes (via the
//      NFP's direct PCIe command interface, as in the paper);
//  (b) 64 B BW_RD / BW_WR, cold vs warm, across window sizes.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  using core::CacheState;
  bench::print_header(
      "Figure 7: cache effects on latency and bandwidth (NFP6000-SNB)",
      "Paper: warm reads ~70 ns faster until the window exceeds the 15 MB "
      "LLC; cold writes stay fast until the window exceeds the ~10% DDIO "
      "quota, then pay a ~70 ns dirty-line flush; BW_WR is insensitive to "
      "cache state; 64 B BW_RD gains from residency.");

  const auto cfg = sys::nfp6000_snb().config;

  // Per window: RD cold, RD warm, WRRD/WR cold, WRRD/WR warm. Panel (a)
  // then panel (b), all in one batch.
  const auto windows = bench::window_ladder();
  const std::pair<BenchKind, CacheState> lat_cols[] = {
      {BenchKind::LatRd, CacheState::Thrash},
      {BenchKind::LatRd, CacheState::HostWarm},
      {BenchKind::LatWrRd, CacheState::Thrash},
      {BenchKind::LatWrRd, CacheState::HostWarm}};
  const std::pair<BenchKind, CacheState> bw_cols[] = {
      {BenchKind::BwRd, CacheState::Thrash},
      {BenchKind::BwRd, CacheState::HostWarm},
      {BenchKind::BwWr, CacheState::Thrash},
      {BenchKind::BwWr, CacheState::HostWarm}};
  std::vector<bench::Point> points;
  for (std::uint64_t w : windows) {
    for (const auto& [kind, cs] : lat_cols) {
      bench::LatencySpec spec;
      spec.kind = kind;
      spec.size = 8;
      spec.window = w;
      spec.cache = cs;
      spec.cmd_if = true;
      spec.iterations = 12000;
      spec.warmup = 50000;  // settle the DDIO quota, as 2M-sample runs do
      points.push_back({&cfg, spec});
    }
  }
  for (std::uint64_t w : windows) {
    for (const auto& [kind, cs] : bw_cols) {
      bench::BandwidthSpec spec;
      spec.kind = kind;
      spec.size = 64;
      spec.window = w;
      spec.cache = cs;
      spec.iterations = 25000;
      points.push_back({&cfg, spec});
    }
  }
  const auto values = bench::run_points(points);

  std::size_t k = 0;
  auto add_rows = [&](TextTable& table, int precision) {
    for (std::uint64_t w : windows) {
      std::vector<std::string> row{bench::human_window(w)};
      for (int c = 0; c < 4; ++c)
        row.push_back(TextTable::num(values[k++], precision));
      table.add_row(std::move(row));
    }
  };

  std::printf("--- (a) 8 B latency, PCIe command interface ---\n");
  TextTable lat({"window", "RD_cold_ns", "RD_warm_ns", "WRRD_cold_ns",
                 "WRRD_warm_ns"});
  add_rows(lat, 0);
  std::printf("%s\n", lat.to_string().c_str());

  std::printf("--- (b) 64 B bandwidth ---\n");
  TextTable bw({"window", "RD_cold_Gbps", "RD_warm_Gbps", "WR_cold_Gbps",
                "WR_warm_Gbps"});
  add_rows(bw, 1);
  std::printf("%s", bw.to_string().c_str());
  return 0;
}
