// Table 2: the paper's notable findings, re-derived from measurements on
// the simulated systems rather than restated. Each row runs the relevant
// experiment and checks the observation holds.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcieb;
  using core::BenchKind;
  using core::CacheState;
  bench::print_header(
      "Table 2: notable findings, re-derived experimentally",
      "Each observation is re-measured; the recommendation follows §7.");

  const auto bdw = sys::nfp6000_bdw().config;
  const auto snb = sys::nfp6000_snb().config;
  const auto on = sys::with_iommu(bdw, true, 4096);

  // Every finding's measurements in one batch; the rows below read them
  // back in this order.
  std::vector<bench::Point> points;
  {  // IOMMU: 64 B reads off/on at a 128 KB, then a 16 MB window.
    bench::BandwidthSpec spec;
    spec.size = 64;
    spec.window = 128ull << 10;
    points.push_back({&bdw, spec});
    points.push_back({&on, spec});
    spec.window = 16ull << 20;
    points.push_back({&bdw, spec});
    points.push_back({&on, spec});
  }
  {  // DDIO: 8 B reads warm, then cold.
    bench::LatencySpec spec;
    spec.size = 8;
    spec.window = 64ull << 10;
    spec.cmd_if = true;
    spec.iterations = 6000;
    spec.cache = CacheState::HostWarm;
    points.push_back({&snb, spec});
    spec.cache = CacheState::Thrash;
    points.push_back({&snb, spec});
  }
  for (std::uint32_t size : {64u, 512u}) {  // NUMA: local, then remote.
    bench::BandwidthSpec spec;
    spec.size = size;
    spec.window = 64ull << 10;
    spec.local = true;
    points.push_back({&bdw, spec});
    spec.local = false;
    points.push_back({&bdw, spec});
  }
  const auto v = bench::run_points(points);

  int failures = 0;
  TextTable table({"Area", "Observation (measured)", "Holds",
                   "Recommendation"});

  {  // IOMMU: throughput collapses as the working set grows.
    const double small_drop = core::pct_change(v[0], v[1]);
    const double big_drop = core::pct_change(v[2], v[3]);
    const bool holds = small_drop > -5.0 && big_drop < -50.0;
    failures += !holds;
    char obs[128];
    std::snprintf(obs, sizeof obs,
                  "64B BW_RD %+.0f%% at 128K window, %+.0f%% at 16M", small_drop,
                  big_drop);
    table.add_row({"IOMMU (Fig 9)", obs, holds ? "yes" : "NO",
                   "Co-locate I/O buffers into superpages."});
  }
  {  // DDIO: small transactions faster when cache-resident.
    const double warm = v[4];
    const double cold = v[5];
    const bool holds = cold - warm > 40.0;
    failures += !holds;
    char obs[128];
    std::snprintf(obs, sizeof obs, "8B LAT_RD warm %.0f ns vs cold %.0f ns",
                  warm, cold);
    table.add_row({"DDIO (Fig 7)", obs, holds ? "yes" : "NO",
                   "DDIO speeds descriptor rings and small-packet receive."});
  }
  {  // NUMA small reads: remote cache reads cost ~20%.
    const double local = v[6];
    const double remote = v[7];
    const double drop = core::pct_change(local, remote);
    const bool holds = drop < -10.0;
    failures += !holds;
    char obs[128];
    std::snprintf(obs, sizeof obs, "64B BW_RD local %.1f vs remote %.1f (%+.0f%%)",
                  local, remote, drop);
    table.add_row({"NUMA, small (Fig 8)", obs, holds ? "yes" : "NO",
                   "Place descriptor rings on the local node."});
  }
  {  // NUMA large transactions: locality does not matter.
    const double local = v[8];
    const double remote = v[9];
    const bool holds = std::abs(core::pct_change(local, remote)) < 3.0;
    failures += !holds;
    char obs[128];
    std::snprintf(obs, sizeof obs, "512B BW_RD local %.1f vs remote %.1f",
                  local, remote);
    table.add_row({"NUMA, large (Fig 8)", obs, holds ? "yes" : "NO",
                   "Place packet buffers where processing happens."});
  }

  std::printf("%s\n", table.to_string().c_str());
  if (failures == 0) {
    std::printf("All findings hold.\n");
  } else {
    std::printf("%d finding(s) FAILED to reproduce!\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
