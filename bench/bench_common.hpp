// Shared helpers for the figure/table reproduction binaries.
//
// Each binary regenerates one table or figure of the paper as an aligned
// text table (one row per x value, one column per curve), plus a short
// header stating what the paper shows so the output is self-describing.
//
// Sweep points are independent pure functions of (system, spec): each
// builds its own sim::System. A binary first lists its points, computes
// them in one parallel_map() batch on every CPU it may run on, then
// prints from the index-ordered results, so stdout is byte-identical to
// a serial run (and `taskset -c 0` gives the serial path).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/table.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "exec/thread_pool.hpp"
#include "sysconfig/profiles.hpp"

namespace pcieb::bench {

/// The window-size ladder of Figures 7-9 (4 KB .. 64 MB).
inline std::vector<std::uint64_t> window_ladder() {
  return {4ull << 10,   16ull << 10,  64ull << 10,   256ull << 10,
          1024ull << 10, 4096ull << 10, 16384ull << 10, 65536ull << 10};
}

/// The transfer-size ladder of Figures 4-5, with the paper's -1/+1 B
/// probes around TLP-relevant boundaries.
inline std::vector<std::uint32_t> transfer_ladder() {
  return {64,  127, 128, 129, 192, 255, 256,  257,  384,
          511, 512, 513, 768, 1024, 1535, 1536, 2047, 2048};
}

inline std::string human_window(std::uint64_t bytes) {
  if (bytes >= (1ull << 20)) return std::to_string(bytes >> 20) + "M";
  return std::to_string(bytes >> 10) + "K";
}

struct LatencySpec {
  core::BenchKind kind = core::BenchKind::LatRd;
  std::uint32_t size = 64;
  std::uint64_t window = 8192;
  core::CacheState cache = core::CacheState::HostWarm;
  bool cmd_if = false;
  bool local = true;
  std::size_t iterations = 20000;
  std::size_t warmup = 0;
};

inline core::LatencyResult run_latency(const sim::SystemConfig& cfg,
                                       const LatencySpec& s) {
  sim::System system(cfg);
  core::BenchParams p;
  p.kind = s.kind;
  p.transfer_size = s.size;
  p.window_bytes = s.window;
  p.cache_state = s.cache;
  p.use_cmd_if = s.cmd_if;
  p.numa_local = s.local;
  p.iterations = s.iterations;
  p.warmup = s.warmup;
  return core::run_latency_bench(system, p);
}

struct BandwidthSpec {
  core::BenchKind kind = core::BenchKind::BwRd;
  std::uint32_t size = 64;
  std::uint64_t window = 8192;
  core::CacheState cache = core::CacheState::HostWarm;
  bool local = true;
  std::uint64_t page_bytes = 4096;
  std::size_t iterations = 30000;
  std::size_t warmup = 6000;
};

inline double run_bw_gbps(const sim::SystemConfig& cfg,
                          const BandwidthSpec& s) {
  sim::System system(cfg);
  core::BenchParams p;
  p.kind = s.kind;
  p.transfer_size = s.size;
  p.window_bytes = s.window;
  p.cache_state = s.cache;
  p.numa_local = s.local;
  p.page_bytes = s.page_bytes;
  p.iterations = s.iterations;
  p.warmup = s.warmup;
  return core::run_bandwidth_bench(system, p).gbps;
}

/// fn(0) .. fn(n-1) on an exec::ThreadPool of `threads` workers (0 = every
/// CPU in the affinity mask), returned in index order whatever order the
/// tasks finished in. If tasks threw, the lowest failing index's
/// exception is rethrown, as a serial loop would have surfaced first.
template <class Fn>
auto parallel_map(std::size_t n, Fn fn, std::size_t threads = 0) {
  using T = std::invoke_result_t<Fn&, std::size_t>;
  // std::vector<bool> packs bits: concurrent writes to neighbours race.
  static_assert(!std::is_same_v<T, bool>, "parallel_map cannot return bool");
  std::vector<T> out(n);
  exec::ThreadPool(threads).parallel_indexed(
      n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// One sweep point: a system and a latency or bandwidth spec.
struct Point {
  const sim::SystemConfig* cfg;
  std::variant<LatencySpec, BandwidthSpec> spec;
};

/// Each point's headline number, in list order: median latency in ns for
/// a LatencySpec, offered bandwidth in Gb/s for a BandwidthSpec.
inline std::vector<double> run_points(const std::vector<Point>& points,
                                      std::size_t threads = 0) {
  return parallel_map(
      points.size(),
      [&](std::size_t i) {
        const Point& p = points[i];
        if (const auto* lat = std::get_if<LatencySpec>(&p.spec))
          return run_latency(*p.cfg, *lat).summary.median_ns;
        return run_bw_gbps(*p.cfg, std::get<BandwidthSpec>(p.spec));
      },
      threads);
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("%s\n\n", paper.c_str());
}

}  // namespace pcieb::bench
