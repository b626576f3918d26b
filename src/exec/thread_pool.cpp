#include "exec/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace pcieb::exec {

namespace {

/// CPUs this process may run on: the size of its affinity mask, else
/// hardware_concurrency(), else 1. hardware_concurrency() alone counts
/// every online CPU and ignores the mask, so a `taskset -c 0` run would
/// still get one thread per CPU of the machine.
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;  // the standard allows 0 = "unknown"
}

/// One worker's deque. A mutex per deque is plenty: tasks here are whole
/// simulator runs (milliseconds), so lock traffic is noise.
struct WorkerQueue {
  std::mutex m;
  std::deque<std::size_t> q;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? available_cpus() : threads) {}

void ThreadPool::parallel_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  const std::size_t workers = std::min(threads_, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::vector<WorkerQueue> queues(workers);
  // Round-robin deal: worker w starts with indices w, w+workers, ... so
  // early (often formative) indices spread across all workers.
  for (std::size_t i = 0; i < n; ++i) queues[i % workers].q.push_back(i);

  std::mutex err_m;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  const auto worker = [&](std::size_t self) {
    for (;;) {
      std::size_t idx = 0;
      bool got = false;
      {
        std::lock_guard<std::mutex> lock(queues[self].m);
        if (!queues[self].q.empty()) {
          idx = queues[self].q.front();
          queues[self].q.pop_front();
          got = true;
        }
      }
      if (!got) {
        // Steal from the back of the nearest non-empty victim.
        for (std::size_t off = 1; off < workers && !got; ++off) {
          WorkerQueue& victim = queues[(self + off) % workers];
          std::lock_guard<std::mutex> lock(victim.m);
          if (!victim.q.empty()) {
            idx = victim.q.back();
            victim.q.pop_back();
            got = true;
          }
        }
      }
      if (!got) return;  // every deque empty: done
      try {
        fn(idx);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_m);
        if (idx < err_index) {
          err_index = idx;
          err = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();

  if (err) std::rethrow_exception(err);
}

}  // namespace pcieb::exec
