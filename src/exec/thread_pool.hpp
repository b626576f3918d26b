// In-process work-stealing pool for thread-parallel sweeps.
//
// The cheap sibling of the fork-isolated worker pool (pool.hpp): no
// process boundary, no deadline or RSS budget — just N threads sharing
// one address space, for workloads that are already pure functions of
// their index (chaos trials are pure in (master_seed, i); suite
// experiments build their own Simulator). A crashed task takes the whole
// process down, which is exactly the trade the caller opts into with
// `threads=N` instead of `jobs=N`.
//
// Scheduling is work-stealing over per-worker deques: indices are dealt
// round-robin at the start, each worker drains its own deque from the
// front and steals from a victim's back when empty. Long and short tasks
// mix freely without a straggler serializing the tail.
//
// Determinism contract: task order and placement are scheduler-dependent,
// so anything byte-stable must be derived from results buffered by index
// — never from completion order. parallel_indexed() therefore makes one
// guarantee the campaign layers build on: every index in [0, n) runs
// exactly once, and if any tasks threw, the exception of the LOWEST
// failing index is rethrown (matching what a serial loop would have
// surfaced first).
#pragma once

#include <cstddef>
#include <functional>

namespace pcieb::exec {

class ThreadPool {
 public:
  /// `threads` == 0 picks the number of CPUs in the calling thread's
  /// affinity mask (sched_getaffinity; `taskset -c 0` gives 1), falling
  /// back to std::thread::hardware_concurrency(), then to 1.
  explicit ThreadPool(std::size_t threads);

  std::size_t threads() const { return threads_; }

  /// Run fn(0) .. fn(n-1), each exactly once, across the pool. Blocks
  /// until all n tasks finished. If one or more tasks threw, rethrows
  /// the exception of the lowest failing index after every task has
  /// completed (no early cancellation — later tasks still run, keeping
  /// "which indices executed" independent of timing).
  void parallel_indexed(std::size_t n,
                        const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t threads_;
};

}  // namespace pcieb::exec
