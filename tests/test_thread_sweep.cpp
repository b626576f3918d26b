// Thread-parallel sweep determinism — the ISSUE's golden contract: running
// chaos campaigns and suite experiments on the in-process work-stealing
// pool must produce output byte-identical to a serial run and to the
// fork-isolated pool, regardless of completion order.
//
// Also unit-tests the exec::ThreadPool itself: every index runs exactly
// once, exceptions propagate (lowest index wins), thread counts
// degenerate gracefully and 0 threads follows the CPU affinity mask; and
// pins the figure binaries' bench::parallel_map batches bit-identical to
// a serial loop over the same sweep points.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/chaos.hpp"
#include "core/multi_runner.hpp"
#include "core/suite.hpp"
#include "bench_common.hpp"
#include "exec/journal.hpp"
#include "exec/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace pcieb;

namespace {

struct TempDir {
  std::string path = exec::make_temp_dir("pcieb-thread-sweep-");
  ~TempDir() { fs::remove_all(path); }
};

/// Canonical transcript of a campaign as the observer sees it — any
/// divergence in trial order, content or count shows up here.
std::string campaign_transcript(const check::ChaosConfig& cfg,
                                check::CampaignResult& result_out) {
  std::ostringstream os;
  result_out = check::run_campaign(
      cfg, [&os](const check::TrialSpec& spec, const check::TrialOutcome& out) {
        os << spec.describe() << "\n" << out.summary() << "\n";
      });
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// exec::ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(997);  // prime: uneven deal
  pool.parallel_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroThreadsResolvesToAffinityCount) {
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), static_cast<std::size_t>(CPU_COUNT(&mask)));
  std::atomic<int> ran{0};
  pool.parallel_indexed(3, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 3);

  // Narrow this thread's own mask to one CPU, as `taskset -c N` would:
  // 0 threads must then mean the serial path.
  int cpu = 0;
  while (!CPU_ISSET(cpu, &mask)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t pinned = exec::ThreadPool(0).threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof mask, &mask), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(ThreadPool, MoreThreadsThanTasksAndEmptyRangesAreFine) {
  exec::ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.parallel_indexed(2, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
  pool.parallel_indexed(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, LowestIndexExceptionPropagatesAfterAllTasksFinish) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.parallel_indexed(hits.size(), [&](std::size_t i) {
      ++hits[i];
      if (i == 7 || i == 40) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");  // lowest failing index wins
  }
  // No early cancellation: every task still ran.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------------
// Figure sweep points: bench::parallel_map byte-identical to serial.

TEST(ParallelMap, ResultsComeBackInIndexOrder) {
  const auto squares = bench::parallel_map(
      257, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
  EXPECT_TRUE(bench::parallel_map(0, [](std::size_t i) { return i; }).empty());
}

TEST(ParallelMap, ConcurrentFigurePointsBitEqualToSerial) {
  // Real figure points at small iteration counts. Concurrent sim::Systems
  // sharing any hidden state (a cache, an RNG, a pool) would show up as
  // a differing bit.
  const auto snb = sys::nfp6000_snb().config;
  const auto bdw = sys::nfp6000_bdw().config;
  const auto bdw_iommu = sys::with_iommu(bdw, true, 4096);

  std::vector<bench::Point> points;
  for (const auto cache : {core::CacheState::Thrash,
                           core::CacheState::HostWarm}) {  // Fig 7 (a)
    bench::LatencySpec lat;
    lat.size = 8;
    lat.window = 16ull << 20;
    lat.cache = cache;
    lat.cmd_if = true;
    lat.iterations = 1500;
    lat.warmup = 2000;
    points.push_back({&snb, lat});
  }
  for (const auto* cfg : {&bdw, &bdw_iommu}) {  // Fig 9, 64 B at 16 MB
    bench::BandwidthSpec bw;
    bw.size = 64;
    bw.window = 16ull << 20;
    bw.iterations = 2000;
    bw.warmup = 200;
    points.push_back({cfg, bw});
  }
  for (const bool local : {true, false}) {  // Fig 8, 64 B at 64 KB
    bench::BandwidthSpec bw;
    bw.size = 64;
    bw.window = 64ull << 10;
    bw.local = local;
    bw.iterations = 2000;
    bw.warmup = 200;
    points.push_back({&bdw, bw});
  }

  std::vector<double> serial;
  for (const auto& p : points) {
    if (const auto* lat = std::get_if<bench::LatencySpec>(&p.spec)) {
      serial.push_back(bench::run_latency(*p.cfg, *lat).summary.median_ns);
    } else {
      serial.push_back(
          bench::run_bw_gbps(*p.cfg, std::get<bench::BandwidthSpec>(p.spec)));
    }
  }
  // Sanity: the points measure what their figures show, so a batch that
  // returned one point's value everywhere could not pass.
  EXPECT_GT(serial[0], serial[1]) << "cold read slower than warm (Fig 7)";
  EXPECT_GT(serial[2], serial[3]) << "IOMMU misses cut bandwidth (Fig 9)";
  EXPECT_GT(serial[4], serial[5]) << "remote node slower (Fig 8)";

  for (int round = 0; round < 2; ++round) {
    const auto parallel = bench::run_points(points, 4);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << "point " << i << ": " << parallel[i] << " vs " << serial[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos campaigns: threads=N byte-identical to serial.

TEST(ThreadSweep, CleanCampaignByteIdenticalToSerial) {
  check::ChaosConfig serial_cfg;
  serial_cfg.trials = 12;
  serial_cfg.iterations = 120;
  serial_cfg.shrink = false;

  check::CampaignResult serial_res;
  const std::string serial = campaign_transcript(serial_cfg, serial_res);
  ASSERT_TRUE(serial_res.ok());
  EXPECT_EQ(serial_res.trials_run, 12u);

  for (const std::size_t threads : {2u, 8u}) {
    auto cfg = serial_cfg;
    cfg.threads = threads;
    check::CampaignResult res;
    const std::string threaded = campaign_transcript(cfg, res);
    EXPECT_EQ(threaded, serial) << "threads=" << threads;
    EXPECT_EQ(res.trials_run, serial_res.trials_run);
    EXPECT_EQ(res.failures, serial_res.failures);
  }
}

TEST(ThreadSweep, FailingCampaignStopsAtSameTrialAsSerial) {
  // The seeded credit-leak bug makes some trial fail; the threaded run
  // must report the identical first failure and observer sequence even
  // though workers past the failing index may already have executed.
  check::ChaosConfig serial_cfg;
  serial_cfg.trials = 40;
  serial_cfg.iterations = 2000;
  serial_cfg.seed_credit_leak_bug = true;
  serial_cfg.shrink = false;

  check::CampaignResult serial_res;
  const std::string serial = campaign_transcript(serial_cfg, serial_res);
  ASSERT_FALSE(serial_res.ok()) << "seeded bug not caught; test is vacuous";
  ASSERT_TRUE(serial_res.first_failure.has_value());

  auto cfg = serial_cfg;
  cfg.threads = 8;
  check::CampaignResult res;
  const std::string threaded = campaign_transcript(cfg, res);
  EXPECT_EQ(threaded, serial);
  EXPECT_EQ(res.trials_run, serial_res.trials_run);
  EXPECT_EQ(res.failures, serial_res.failures);
  ASSERT_TRUE(res.first_failure.has_value());
  EXPECT_EQ(res.first_failure->describe(),
            serial_res.first_failure->describe());
  EXPECT_EQ(res.first_failure->repro_command(),
            serial_res.first_failure->repro_command());
}

// ---------------------------------------------------------------------------
// Suite experiments: threads=N byte-identical to the fork-isolated pool.

TEST(ThreadSweep, SuiteThreadedMatchesForkIsolatedByteForByte) {
  TempDir fork_dir, thread_dir;
  const auto suite = core::Suite::standard("NFP6000-HSW");
  const std::string filter = "LAT_RD/8/";  // cold + warm: two experiments

  core::IsolatedRunConfig fork_cfg;
  fork_cfg.pool.jobs = 2;
  fork_cfg.journal_dir = fork_dir.path;
  const auto forked = core::MultiRunner(suite, fork_cfg).run(filter);
  ASSERT_EQ(forked.records.size(), 2u);

  core::IsolatedRunConfig thr_cfg;
  thr_cfg.threads = 8;
  thr_cfg.journal_dir = thread_dir.path;
  const auto threaded = core::MultiRunner(suite, thr_cfg).run(filter);
  ASSERT_EQ(threaded.records.size(), 2u);
  EXPECT_TRUE(threaded.quarantined.empty());

  EXPECT_EQ(core::summarize(threaded.records), core::summarize(forked.records));
  core::write_csv(forked.records, fork_dir.path + "/fork.csv");
  core::write_csv(threaded.records, fork_dir.path + "/threads.csv");
  EXPECT_EQ(exec::read_file(fork_dir.path + "/fork.csv"),
            exec::read_file(fork_dir.path + "/threads.csv"));
}

TEST(ThreadSweep, ThreadedSuiteJournalResumes) {
  // The threaded pool writes the same journal format, so a run cut short
  // resumes — including resuming into a fork-isolated run.
  TempDir tmp;
  const auto suite = core::Suite::standard("NFP6000-HSW");
  const std::string filter = "LAT_RD/8/";

  core::IsolatedRunConfig cut;
  cut.threads = 2;
  cut.journal_dir = tmp.path;
  cut.stop_after = 1;
  const auto partial = core::MultiRunner(suite, cut).run(filter);
  EXPECT_EQ(partial.records.size(), 1u);

  cut.stop_after = 0;
  cut.resume = true;
  cut.threads = 0;  // finish under the fork-isolated pool
  const auto resumed = core::MultiRunner(suite, cut).run(filter);
  EXPECT_EQ(resumed.resumed, 1u);
  ASSERT_EQ(resumed.records.size(), 2u);

  TempDir ref_dir;
  core::IsolatedRunConfig full;
  full.threads = 2;
  full.journal_dir = ref_dir.path;
  const auto ref = core::MultiRunner(suite, full).run(filter);
  EXPECT_EQ(core::summarize(resumed.records), core::summarize(ref.records));
}
