// Figure 6: latency distribution of 64 B DMA reads with warm caches on a
// Xeon E5 (NFP6000-HSW) vs a Xeon E3 (NFP6000-HSW-E3) — 2 M transactions
// per system, as in the paper.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace pcieb;
  bench::print_header(
      "Figure 6: 64 B DMA read latency CDF, Xeon E5 vs Xeon E3 (warm)",
      "Paper: E5 min 520 / median 547 / 99.9% within 80 ns / max 947 ns. "
      "E3 min 493 / median 1213 / p99 5707 / p99.9 11987 ns, with rare "
      "millisecond-scale excursions up to 5.8 ms.");

  constexpr std::size_t kSamples = 2'000'000;

  const sim::SystemConfig systems[] = {sys::nfp6000_hsw().config,
                                       sys::nfp6000_hsw_e3().config};
  const auto results = bench::parallel_map(2, [&](std::size_t i) {
    bench::LatencySpec spec;
    spec.size = 64;
    spec.iterations = kSamples;
    return bench::run_latency(systems[i], spec);
  });
  const auto& e5 = results[0];
  const auto& e3 = results[1];

  TextTable summary({"system", "min_ns", "median_ns", "p90", "p99", "p99.9",
                     "max_ns"});
  for (const auto* r : {&e5, &e3}) {
    summary.add_row({r == &e5 ? "NFP6000-HSW (E5)" : "NFP6000-HSW-E3",
                     TextTable::num(r->summary.min_ns, 0),
                     TextTable::num(r->summary.median_ns, 0),
                     TextTable::num(r->samples_ns.percentile(90), 0),
                     TextTable::num(r->summary.p99_ns, 0),
                     TextTable::num(r->summary.p999_ns, 0),
                     TextTable::num(r->summary.max_ns, 0)});
  }
  std::printf("%s\n", summary.to_string().c_str());

  std::printf("CDF (latency_ns at cumulative fraction):\n");
  TextTable cdf({"fraction", "E5_ns", "E3_ns"});
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.63, 0.75, 0.9, 0.95, 0.99, 0.999,
                   0.9999}) {
    cdf.add_row({TextTable::num(q, 4),
                 TextTable::num(e5.samples_ns.percentile(q * 100.0), 0),
                 TextTable::num(e3.samples_ns.percentile(q * 100.0), 0)});
  }
  std::printf("%s", cdf.to_string().c_str());
  return 0;
}
