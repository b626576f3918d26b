// In-process half of the repository benchmark (see perfbench/README.md).
//
// Runs one in-process workload for a fixed host-time budget and prints a
// single JSON document of raw measurements on stdout; perfbench/run.py
// turns it into metrics and checks the simulated outputs against the
// golden files. The driver only calls the modules' public functions and
// reads the counters they already expose; nothing inside src/ is
// instrumented. Spans are recorded here, around those calls, and only
// on traced passes.
//
//   perfbench_driver --workload dma|chaos|repro_setup
//                    --seed N --seconds S --trace 0|1
//
// A run is: set-up samples, one untimed record pass (warms the pooled
// systems and allocator, and records every operation's canonical output
// line), then timed passes until the budget is spent. Each timed pass
// re-runs the same operations in a seed-derived order and must reproduce
// the record pass's lines exactly. With --trace 1 the timed passes
// alternate untraced/traced so the trace overhead is measured in the same
// process, and one more untimed pass runs with the simulator's own
// cost-centre profiler (obs::Profiler) armed.
//
// Only each operation's quiet cost (the minimum over its samples) is
// kept, so the driver's memory does not grow with the number of passes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/chaos.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "fault/recovery.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "pcie/bandwidth.hpp"
#include "sim/system.hpp"
#include "sysconfig/profiles.hpp"

namespace {

using namespace pcieb;

std::int64_t wall_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- spans ----------------------------------------------------------------

struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  const char* name;
  std::uint64_t op;  ///< sweep point / trial id (0 = pass level)
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span recorder. Disarmed scopes cost one branch.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op) : t_(t) {
      if (!t_.armed_) return;
      idx_ = t_.spans_.size();
      t_.spans_.push_back({t_.next_id_++, t_.stack_.empty() ? 0 : t_.stack_.back(),
                           name, op, wall_ns(), 0});
      t_.stack_.push_back(t_.spans_.back().id);
    }
    ~Scope() {
      if (idx_ == kNone) return;
      t_.spans_[idx_].end_ns = wall_ns();
      t_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    Tracer& t_;
    std::size_t idx_ = kNone;
  };

  void arm(bool on) { armed_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool armed_ = false;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

// ---- measurements ----------------------------------------------------------

/// Named sub-durations of one operation, microseconds.
using Parts = std::vector<std::pair<const char*, double>>;

/// One operation: its output and what it cost.
struct OpResult {
  std::string key;   ///< stable across passes: sweep point or trial
  std::string line;  ///< canonical simulated output
  std::uint64_t tlps = 0;
  std::uint64_t events = 0;
  std::uint64_t dmas = 0;
  Parts parts;
  double gbps = 0.0;  ///< bandwidth points only
  bool ok = true;     ///< invariants held
  std::string why;
};

/// An operation's quiet cost over a run: the minimum of its wall time,
/// CPU time and every part, over `n` samples.
struct OpQuiet {
  std::uint64_t n = 0;
  double wall_us = 0.0;
  double cpu_us = 0.0;
  std::uint64_t tlps = 0;
  std::uint64_t events = 0;
  std::uint64_t dmas = 0;
  Parts parts;

  void add(const OpResult& r, double wall, double cpu) {
    if (n++ == 0) {
      wall_us = wall;
      cpu_us = cpu;
      tlps = r.tlps;
      events = r.events;
      dmas = r.dmas;
      parts = r.parts;
      return;
    }
    wall_us = std::min(wall_us, wall);
    cpu_us = std::min(cpu_us, cpu);
    for (std::size_t i = 0; i < parts.size() && i < r.parts.size(); ++i) {
      parts[i].second = std::min(parts[i].second, r.parts[i].second);
    }
  }
};

struct PassSample {
  bool traced;
  double wall_s;
  double cpu_s;
};

/// A set-up shape's quickest System and BenchRunner construction.
struct SetupQuiet {
  std::uint64_t n = 0;
  double build_s = 0.0;
  double prepare_s = 0.0;
};

/// Everything one run reports; serialized once at exit.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  std::map<std::string, SetupQuiet> setups;
  std::vector<PassSample> passes;
  /// Quiet cost per (operation key, traced).
  std::map<std::pair<std::string, bool>, OpQuiet> ops;
  /// Record-pass canonical output line per operation, in record order.
  std::vector<std::string> lines;
  /// Record-pass counter snapshot per dma point.
  std::vector<std::pair<std::string, std::vector<obs::MetricSample>>> counters;
  std::map<std::string, double> totals;  ///< identity counts, record pass
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  double model_gap_pct = 0.0;
  Tracer tracer;
  obs::Profiler profiler;  ///< armed for the profile pass only
};

void add_setup(Report& rep, const std::string& key, double build_s, double prepare_s) {
  SetupQuiet& q = rep.setups[key];
  q.build_s = q.n == 0 ? build_s : std::min(q.build_s, build_s);
  q.prepare_s = q.n == 0 ? prepare_s : std::min(q.prepare_s, prepare_s);
  ++q.n;
}

/// Time the construction of a System and a BenchRunner on it.
void time_setup(Report& rep, const std::string& key, const sim::SystemConfig& cfg,
                const core::BenchParams& params) {
  const std::int64_t b0 = wall_ns();
  auto system = std::make_unique<sim::System>(cfg);
  const std::int64_t b1 = wall_ns();
  core::BenchRunner runner(*system, params);
  const std::int64_t b2 = wall_ns();
  add_setup(rep, key, (b1 - b0) * 1e-9, (b2 - b1) * 1e-9);
}

// ---- dma workloads -----------------------------------------------------------

struct DmaPoint {
  std::string key;
  sim::SystemConfig cfg;
  core::BenchParams params;
};

const char* run_span(core::BenchKind k) {
  switch (k) {
    case core::BenchKind::BwRd: return "core.run.bw_rd";
    case core::BenchKind::BwWr: return "core.run.bw_wr";
    case core::BenchKind::BwRdWr: return "core.run.bw_rdwr";
    case core::BenchKind::LatRd: return "core.run.lat_rd";
    case core::BenchKind::LatWrRd: return "core.run.lat_wrrd";
  }
  return "core.run";
}

DmaPoint dma_point(const char* set, const sim::SystemConfig& cfg,
                   core::BenchKind kind, std::uint32_t size) {
  DmaPoint p;
  p.key = std::string(set) + ' ' + core::to_string(kind) + "/" + std::to_string(size);
  p.cfg = cfg;
  p.params.kind = kind;
  p.params.transfer_size = size;
  return p;
}

/// The Fig 4 transfer ladder on NFP6000-HSW: warm 8 KB window, IOMMU
/// off. Every cache lookup hits and the IOMMU is idle.
std::vector<DmaPoint> dma_stream_points() {
  static constexpr std::uint32_t kSizes[] = {64,  127, 128,  129,  256, 257,
                                             512, 513, 1024, 1536, 2047, 2048};
  const auto& cfg = sys::profile_by_name("NFP6000-HSW").config;
  std::vector<DmaPoint> pts;
  for (const auto kind : {core::BenchKind::BwRd, core::BenchKind::BwWr,
                          core::BenchKind::BwRdWr}) {
    for (const std::uint32_t size : kSizes) {
      DmaPoint p = dma_point("stream", cfg, kind, size);
      p.params.window_bytes = 8ull << 10;
      p.params.cache_state = core::CacheState::HostWarm;
      p.params.iterations = 3000;
      p.params.warmup = 500;
      pts.push_back(std::move(p));
    }
  }
  return pts;
}

/// The Figs 7-9 shape on NFP6000-BDW: 64 MB cold window, IOMMU on with
/// 4 KB pages, remote NUMA node. The IO-TLB walker, LLC misses, DDIO
/// evictions and DRAM do the work.
std::vector<DmaPoint> dma_host_miss_points() {
  static constexpr std::uint32_t kSizes[] = {64, 128, 256, 512, 1024, 2048};
  const auto cfg =
      sys::with_iommu(sys::profile_by_name("NFP6000-BDW").config, true, 4096);
  std::vector<DmaPoint> pts;
  for (const auto kind : {core::BenchKind::LatRd, core::BenchKind::LatWrRd,
                          core::BenchKind::BwRd}) {
    for (const std::uint32_t size : kSizes) {
      DmaPoint p = dma_point("miss", cfg, kind, size);
      p.params.window_bytes = 64ull << 20;
      p.params.cache_state = core::CacheState::Thrash;
      p.params.numa_local = false;
      p.params.page_bytes = 4096;
      const bool lat = core::is_latency(kind);
      p.params.iterations = lat ? 1000 : 2000;
      p.params.warmup = lat ? 100 : 400;
      pts.push_back(std::move(p));
    }
  }
  return pts;
}

OpResult run_dma_point(Report& rep, const DmaPoint& pt, std::uint64_t op_id,
                       bool record) {
  Tracer& tr = rep.tracer;
  OpResult r;
  r.key = pt.key;
  std::unique_ptr<sim::System> system;
  std::unique_ptr<core::BenchRunner> runner;
  const std::int64_t b0 = wall_ns();
  {
    Tracer::Scope s(tr, "sim.build", op_id);
    system = std::make_unique<sim::System>(pt.cfg);
  }
  const std::int64_t b1 = wall_ns();
  {
    Tracer::Scope s(tr, "core.prepare", op_id);
    runner = std::make_unique<core::BenchRunner>(*system, pt.params);
  }
  const std::int64_t b2 = wall_ns();
  if (!record) add_setup(rep, pt.key, (b1 - b0) * 1e-9, (b2 - b1) * 1e-9);

  std::ostringstream line;
  line << pt.key;
  const std::int64_t c0 = thread_cpu_ns();
  {
    Tracer::Scope s(tr, run_span(pt.params.kind), op_id);
    if (core::is_latency(pt.params.kind)) {
      const auto res = runner->run_latency();
      const auto& m = res.summary;
      line << " n=" << m.count << " mean=" << num(m.mean_ns)
           << " p50=" << num(m.median_ns) << " min=" << num(m.min_ns)
           << " max=" << num(m.max_ns) << " p99=" << num(m.p99_ns)
           << " p999=" << num(m.p999_ns);
      if (m.count != pt.params.iterations || !(m.min_ns > 0.0)) {
        r.ok = false;
        r.why = "latency sample count or minimum out of range";
      }
    } else {
      const auto res = runner->run_bandwidth();
      r.gbps = res.gbps;
      line << " gbps=" << num(res.gbps) << " mtps=" << num(res.mtps)
           << " payload=" << res.payload_bytes << " elapsed_ps=" << res.elapsed
           << " wire=" << res.wire_bytes << " goodput=" << num(res.goodput_gbps)
           << " lost=" << res.lost_payload_bytes;
      if (!(res.gbps > 0.0) || res.lost_payload_bytes != 0 ||
          res.goodput_gbps != res.gbps) {
        r.ok = false;
        r.why = "fault-free bandwidth run lost payload or moved nothing";
      }
    }
  }
  const std::int64_t c1 = thread_cpu_ns();
  const std::int64_t b3 = wall_ns();
  r.parts = {{"sim.build", (b1 - b0) * 1e-3},
             {"core.prepare", (b2 - b1) * 1e-3},
             {"core.run", (b3 - b2) * 1e-3},
             {"core.run_cpu", (c1 - c0) * 1e-3}};
  const std::uint64_t up = system->upstream().tlps_sent();
  const std::uint64_t down = system->downstream().tlps_sent();
  r.tlps = up + down;
  r.events = system->sim().executed();
  r.dmas = pt.params.iterations + pt.params.warmup;
  line << " tlps_up=" << up << " tlps_down=" << down;
  r.line = line.str();
  if (record) {
    obs::CounterRegistry reg;
    system->register_counters(reg);
    rep.counters.push_back({pt.key, reg.snapshot()});
  }
  {
    Tracer::Scope s(tr, "sim.teardown", op_id);
    runner.reset();
    system.reset();
  }
  return r;
}

/// Mean |sim - model| / model over the bandwidth points, in percent of
/// the §3 model (simulated time; the model is the only reference held).
double model_gap_pct(const std::vector<DmaPoint>& pts,
                     const std::vector<double>& gbps) {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto& link = pts[i].cfg.link;
    const std::uint32_t sz = pts[i].params.transfer_size;
    double model = 0.0;
    switch (pts[i].params.kind) {
      case core::BenchKind::BwRd: model = proto::effective_read_gbps(link, sz); break;
      case core::BenchKind::BwWr: model = proto::effective_write_gbps(link, sz); break;
      case core::BenchKind::BwRdWr: model = proto::effective_rdwr_gbps(link, sz); break;
      default: continue;
    }
    sum += std::fabs(gbps[i] - model) / model * 100.0;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

// ---- chaos workload ------------------------------------------------------------

constexpr const char* kModes[] = {"classic", "recovery", "overload", "tenant"};
/// A chaos pass is two campaigns rotating over the four modes: the
/// reference campaign (the CI soaks' master seed, the same for every run)
/// and the campaign of the run's seed. Trials run 300 iterations, 200 for
/// overload, against the CI soaks' 1000 and 300, so that each trial is
/// sampled often; perfbench/README.md gives the profiled cost split at
/// both sizes. Trial costs vary a lot with the drawn spec; the fixed part
/// keeps the pass cost from depending much on the seed, and its outputs
/// are golden-checked on every seed. The pass is kept short so that each
/// trial is sampled often within a run.
constexpr std::size_t kChaosReference = 100;
constexpr std::size_t kChaosSeeded = 20;
constexpr std::uint64_t kReferenceSeed = 0xc4a05;

std::vector<check::ChaosConfig> chaos_configs(std::uint64_t seed) {
  std::vector<check::ChaosConfig> cfgs(4);
  for (auto& c : cfgs) {
    c.master_seed = seed;
    c.iterations = 300;
    c.shrink = false;
  }
  cfgs[1].recovery = fault::parse_recovery_policy("default");
  cfgs[1].monitors_throw = true;
  cfgs[2].offered_load = 2.0;
  cfgs[2].service = nic::ServiceMode::BusyPoll;
  cfgs[2].backpressure = false;
  cfgs[2].monitors_throw = true;
  cfgs[2].iterations = 200;
  cfgs[3].tenants = 4;
  cfgs[3].attacker = 1;
  cfgs[3].monitors_throw = true;
  return cfgs;
}

OpResult run_chaos_trial(Report& rep, const std::vector<check::ChaosConfig>& cfgs,
                         const char* campaign, std::uint64_t index, std::uint64_t op_id,
                         bool record) {
  static const char* kRunSpan[] = {"check.run_trial.classic", "check.run_trial.recovery",
                                   "check.run_trial.overload", "check.run_trial.tenant"};
  Tracer& tr = rep.tracer;
  const std::size_t mode = index % 4;
  const auto& cfg = cfgs[mode];
  OpResult r;
  r.key = std::string(campaign) + ' ' + std::to_string(index) + ' ' + kModes[mode];
  check::TrialSpec spec;
  const std::int64_t g0 = wall_ns();
  {
    Tracer::Scope s(tr, "check.generate_trial", op_id);
    spec = check::generate_trial(cfg, index);
  }
  const std::int64_t g1 = wall_ns();
  check::TrialOutcome out;
  {
    Tracer::Scope s(tr, kRunSpan[mode], op_id);
    out = check::run_trial(spec, false, cfg.monitors_throw);
  }
  const std::int64_t g2 = wall_ns();
  r.parts = {{"check.generate_trial", (g1 - g0) * 1e-3},
             {"check.run_trial", (g2 - g1) * 1e-3}};
  r.tlps = out.tlps;
  r.events = out.events;

  std::ostringstream line;
  line << r.key << ' ' << out.summary() << " | violations=" << out.total_violations
       << " tlps=" << out.tlps << " recovery=" << out.recovery_state << ' '
       << out.recovery_digest << " | overload=" << out.overload
       << " | victims=" << out.perturbed_victims
       << " device_wide=" << out.device_wide_actions << " | " << spec.describe();
  r.line = line.str();
  if (out.failed || out.total_violations != 0) {
    r.ok = false;
    r.why = out.summary();
  }
  std::uint64_t off = 0, del = 0, drop = 0;
  if (!out.overload.empty() &&
      (!check::parse_overload_ledger(out.overload, off, del, drop) ||
       off != del + drop)) {
    r.ok = false;
    r.why = "overload frame ledger does not balance: " + out.overload;
  }
  if (record) {
    rep.totals["nic.overload.offered"] += static_cast<double>(off);
    rep.totals["nic.overload.delivered"] += static_cast<double>(del);
    rep.totals["nic.overload.dropped"] += static_cast<double>(drop);
    rep.totals["check.violations"] += static_cast<double>(out.total_violations);
    rep.totals["fault.quarantined_trials"] += out.recovery_state == "quarantined";
    rep.totals["vf.perturbed_victims"] += static_cast<double>(out.perturbed_victims);
    rep.totals["vf.device_wide_actions"] += static_cast<double>(out.device_wide_actions);
  }
  return r;
}

// ---- pass loop -------------------------------------------------------------------

/// Runs `n` operations per pass through `op(index, op_id, record)`; the
/// first pass records, later passes are timed and must reproduce it.
template <typename Op>
void run_passes(Report& rep, std::size_t n, double seconds, bool trace, const Op& op) {
  std::mt19937_64 rng(rep.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uint64_t op_id = 0;

  for (std::size_t i = 0; i < n; ++i) {
    OpResult r = op(i, ++op_id, true);
    ++rep.attempted;
    if (!r.ok) rep.failures.push_back(r.line + " :: " + r.why);
    rep.lines.push_back(std::move(r.line));
  }

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t untraced = 0, traced_n = 0;
  for (std::size_t pass = 1;; ++pass) {
    const bool traced = trace && pass % 2 == 0;
    if (wall_ns() >= deadline && untraced > 0 && (!trace || traced_n > 0)) break;
    std::shuffle(order.begin(), order.end(), rng);
    rep.tracer.arm(traced);
    const std::int64_t w0 = wall_ns();
    const std::int64_t c0 = thread_cpu_ns();
    {
      Tracer::Scope s(rep.tracer, "bench.pass", 0);
      for (const std::size_t i : order) {
        const std::uint64_t id = ++op_id;
        const std::int64_t ow0 = wall_ns();
        const std::int64_t oc0 = thread_cpu_ns();
        OpResult r;
        {
          Tracer::Scope s2(rep.tracer, "bench.op", id);
          r = op(i, id, false);
        }
        const double ow = (wall_ns() - ow0) * 1e-3;
        const double oc = (thread_cpu_ns() - oc0) * 1e-3;
        ++rep.attempted;
        if (!r.ok) {
          rep.failures.push_back(r.line + " :: " + r.why);
        } else if (r.line != rep.lines[i]) {
          rep.failures.push_back("not reproduced in pass " + std::to_string(pass) +
                                 ": " + r.line);
        }
        rep.ops[{r.key, traced}].add(r, ow, oc);
      }
    }
    rep.passes.push_back({traced, (wall_ns() - w0) * 1e-9,
                          (thread_cpu_ns() - c0) * 1e-9});
    rep.tracer.arm(false);
    (traced ? traced_n : untraced) += 1;
  }
  if (!trace) return;

  // Profile pass: untimed, record order, obs::Profiler armed. Arming it
  // must not change simulated outputs, so the pass is checked too.
  obs::Profiler::set_current(&rep.profiler);
  rep.profiler.start();
  for (std::size_t i = 0; i < n; ++i) {
    const OpResult r = op(i, ++op_id, false);
    ++rep.attempted;
    if (!r.ok || r.line != rep.lines[i]) {
      rep.failures.push_back("not reproduced with the profiler armed: " + r.line);
    }
  }
  rep.profiler.stop();
  obs::Profiler::set_current(nullptr);
}

/// Both sweeps in one pass: the stream points, then the host-miss points.
/// The model gap is taken over the stream points alone, the shape the §3
/// model describes (warm cache, no IOMMU).
void run_dma(Report& rep, double seconds, bool trace) {
  std::vector<DmaPoint> pts = dma_stream_points();
  const std::size_t n_stream = pts.size();
  for (auto& p : dma_host_miss_points()) pts.push_back(std::move(p));
  std::vector<double> gbps(pts.size());
  run_passes(rep, pts.size(), seconds, trace,
             [&](std::size_t i, std::uint64_t id, bool record) {
               OpResult r = run_dma_point(rep, pts[i], id, record);
               if (record) gbps[i] = r.gbps;
               return r;
             });
  pts.resize(n_stream);
  gbps.resize(n_stream);
  rep.model_gap_pct = model_gap_pct(pts, gbps);
}

void run_chaos(Report& rep, double seconds, bool trace) {
  const auto reference = chaos_configs(kReferenceSeed);
  const auto seeded = chaos_configs(rep.seed);
  // Set-up: fresh System + BenchRunner for the first 24 classic trial
  // shapes of the reference campaign, so it does not depend on the seed;
  // the first round warms up and is discarded.
  for (int round = 0; round < 2; ++round) {
    rep.setups.clear();
    for (std::uint64_t i = 0; i < 16 * 24; ++i) {
      const auto spec = check::generate_trial(reference[0], i % 24);
      auto cfg = sys::profile_by_name(spec.system).config;
      if (spec.iommu) cfg = sys::with_iommu(cfg, true, spec.params.page_bytes);
      time_setup(rep, "trial " + std::to_string(i % 24), cfg, spec.params);
    }
  }
  run_passes(rep, kChaosReference + kChaosSeeded, seconds, trace,
             [&](std::size_t i, std::uint64_t id, bool record) {
               return i < kChaosReference
                          ? run_chaos_trial(rep, reference, "ref", i, id, record)
                          : run_chaos_trial(rep, seeded, "seed", i - kChaosReference, id,
                                            record);
             });
}

/// Repro set-up: System + BenchRunner at the Fig 4 shape for every
/// Table 1 profile, the construction every figure binary pays per sweep
/// point. The first round warms up and is discarded.
void run_repro_setup(Report& rep) {
  core::BenchParams p;
  p.kind = core::BenchKind::BwRd;
  p.window_bytes = 8ull << 10;
  for (int round = 0; round < 65; ++round) {
    if (round == 1) rep.setups.clear();
    for (const auto& prof : sys::all_profiles()) {
      time_setup(rep, prof.name, prof.config, p);
    }
  }
}

// ---- output --------------------------------------------------------------------

void print_report(const Report& rep) {
  std::ostringstream os;
  os << "{\"workload\":" << json_str(rep.workload) << ",\"seed\":" << rep.seed;
  os << ",\"attempted\":" << rep.attempted << ",\"failures\":[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    os << (i ? "," : "") << json_str(rep.failures[i]);
  }
  // setups: [key, samples, build_s, prepare_s]
  os << "],\"setups\":[";
  bool first = true;
  for (const auto& [key, s] : rep.setups) {
    os << (first ? "" : ",") << '[' << json_str(key) << ',' << s.n << ','
       << num(s.build_s) << ',' << num(s.prepare_s) << ']';
    first = false;
  }
  os << "],\"passes\":[";
  for (std::size_t i = 0; i < rep.passes.size(); ++i) {
    const auto& p = rep.passes[i];
    os << (i ? "," : "") << "{\"index\":" << i + 1
       << ",\"traced\":" << (p.traced ? "true" : "false")
       << ",\"wall_s\":" << num(p.wall_s) << ",\"cpu_s\":" << num(p.cpu_s) << '}';
  }
  // ops: [key, traced, samples, wall_us, cpu_us, tlps, events, dmas, {part: us}]
  os << "],\"ops\":[";
  first = true;
  for (const auto& [id, o] : rep.ops) {
    os << (first ? "" : ",") << '[' << json_str(id.first) << ',' << (id.second ? 1 : 0)
       << ',' << o.n << ',' << num(o.wall_us) << ',' << num(o.cpu_us) << ',' << o.tlps
       << ',' << o.events << ',' << o.dmas << ",{";
    for (std::size_t j = 0; j < o.parts.size(); ++j) {
      os << (j ? "," : "") << json_str(o.parts[j].first) << ':' << num(o.parts[j].second);
    }
    os << "}]";
    first = false;
  }
  os << "],\"lines\":[";
  for (std::size_t i = 0; i < rep.lines.size(); ++i) {
    os << (i ? "," : "") << json_str(rep.lines[i]);
  }
  os << "],\"counters\":[";
  for (std::size_t i = 0; i < rep.counters.size(); ++i) {
    os << (i ? "," : "") << '[' << json_str(rep.counters[i].first) << ",{";
    const auto& snap = rep.counters[i].second;
    for (std::size_t j = 0; j < snap.size(); ++j) {
      os << (j ? "," : "") << json_str(snap[j].name) << ':' << num(snap[j].value);
    }
    os << "}]";
  }
  os << "],\"totals\":{";
  first = true;
  for (const auto& [k, v] : rep.totals) {
    os << (first ? "" : ",") << json_str(k) << ':' << num(v);
    first = false;
  }
  os << "},\"model_gap_pct\":" << num(rep.model_gap_pct);
  // profile: [cost centre, seconds, events], most expensive first
  os << ",\"profile\":[";
  first = true;
  for (const auto& row : rep.profiler.ranked()) {
    os << (first ? "" : ",") << '[' << json_str(obs::to_string(row.center)) << ','
       << num(row.seconds) << ',' << row.events << ']';
    first = false;
  }
  os << "],\"spans\":[";
  const auto& spans = rep.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i ? "," : "") << '[' << s.id << ',' << s.parent << ','
       << json_str(s.name) << ',' << s.op << ',' << s.start_ns << ',' << s.end_ns
       << ']';
  }
  os << "]}\n";
  std::fputs(os.str().c_str(), stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "dma|chaos|repro_setup --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Report rep;
  double seconds = 1.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") rep.workload = v;
      else if (a == "--seed") rep.seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v) != 0;
      else usage(("unknown option " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(seconds > 0.0)) usage("--seconds must be positive");
  wall_ns();
  if (rep.workload == "dma") {
    run_dma(rep, seconds, trace);
  } else if (rep.workload == "chaos") {
    run_chaos(rep, seconds, trace);
  } else if (rep.workload == "repro_setup") {
    run_repro_setup(rep);
  } else {
    usage("unknown workload");
  }
  print_report(rep);
  return 0;
}
