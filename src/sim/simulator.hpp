// Discrete-event simulation engine.
//
// Time is integer picoseconds; events at equal timestamps run in schedule
// order, so runs are fully deterministic and bit-reproducible across
// platforms. (The ordering used to be enforced by an explicit sequence
// number in a priority queue; the hierarchical timing wheel in
// sim/event_queue.hpp preserves the identical (time, schedule-order)
// contract structurally — see the header comment there.)
//
// Scheduling is allocation-free on the hot path: `at`/`after` accept any
// callable and store captures up to SmallFn::kInlineBytes (48 B) inline
// in a pooled event node. Passing a prebuilt std::function still works —
// it is moved, not copied, into the node.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace pcieb::obs {
class Profiler;
}  // namespace pcieb::obs

namespace pcieb::sim {

using Callback = std::function<void()>;

class Simulator {
 public:
  /// Caches the calling thread's armed obs::Profiler (if any) so the
  /// per-event profiling check is a member null test, not a thread-local
  /// read. Arm the profiler before constructing the Simulator.
  Simulator();

  Picos now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must not be in the past).
  template <typename F>
  void at(Picos t, F&& fn) {
    if (t < now_) {
      throw_past_schedule();
    }
    queue_.push(t, std::forward<F>(fn));
  }

  /// Schedule `fn` after `delay` from now.
  template <typename F>
  void after(Picos delay, F&& fn) {
    at(now_ + delay, std::forward<F>(fn));
  }

  /// Execute one event; false if the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run events with time <= t, then set now() to t. The step-hook
  /// cadence counter is NOT reset at run_until boundaries: hooks keep
  /// firing every `every` executed events across chunked runs exactly as
  /// they would across one uninterrupted run().
  void run_until(Picos t);

  bool empty() const { return queue_.empty(); }
  std::size_t executed() const { return executed_; }
  std::size_t pending() const { return queue_.size(); }

  /// Event-node cells ever allocated by the pool (test probe: steady
  /// traffic recycles nodes, so this stays flat once warmed).
  std::size_t event_nodes_allocated() const {
    return queue_.nodes_allocated();
  }

  /// Invoke `hook(now, executed)` once per `every` executed events —
  /// the watchdog's sampling point. One branch per event when unset;
  /// pass an empty hook to detach. The hook may throw to abort the run.
  using StepHook = std::function<void(Picos, std::size_t)>;
  void set_step_hook(StepHook hook, std::uint64_t every = 1 << 12);

  /// Per-event invariant monitors (check::MonitorSuite) — the devirtualized
  /// replacement for the old std::function check hook. Each armed monitor
  /// is a plain function pointer plus a context pointer, dispatched from a
  /// flattened array after every event's callback; the disarmed path pays
  /// exactly one integer test (monitor_count_ == 0). Monitors run in
  /// registration order and may throw to abort the run.
  using MonitorFn = void (*)(void*, Picos);
  static constexpr std::size_t kMaxMonitors = 8;
  void add_monitor(MonitorFn fn, void* ctx);
  /// Remove the first slot matching (fn, ctx); later slots shift down,
  /// preserving registration order. Unknown pairs are ignored.
  void remove_monitor(MonitorFn fn, void* ctx);
  std::size_t monitor_count() const { return monitor_count_; }

  /// Invoke `hook(now)` after every `every` executed events, after the
  /// event's callback (and the check hook) ran — the telemetry sampler's
  /// point (obs::TimeSeries::observe). A third independent slot so
  /// telemetry, monitors, and the watchdog compose. Like the step hook,
  /// the cadence counter is NOT reset by run_until boundaries; one branch
  /// per event when unset. Pass an empty hook to detach.
  using SampleHook = std::function<void(Picos)>;
  void set_sample_hook(SampleHook hook, std::uint64_t every = 1);

  /// Trial-reuse reset: rewind the engine to its just-constructed state —
  /// time zero, zero executed events, empty queue (pool kept warm), all
  /// hooks and monitors detached, default cadences — and re-cache the
  /// calling thread's armed profiler (a pooled Simulator outlives
  /// individual profiler arm/disarm windows, so the constructor-time
  /// pointer may be stale).
  void reset();

 private:
  [[noreturn]] static void throw_past_schedule();
  bool step_profiled();
  void dispatch_monitors(Picos now) {
    for (std::size_t i = 0; i < monitor_count_; ++i) {
      monitors_[i].fn(monitors_[i].ctx, now);
    }
  }

  struct MonitorSlot {
    MonitorFn fn = nullptr;
    void* ctx = nullptr;
  };

  Picos now_ = 0;
  std::size_t executed_ = 0;
  EventQueue queue_;
  StepHook step_hook_;
  SampleHook sample_hook_;
  MonitorSlot monitors_[kMaxMonitors];
  std::size_t monitor_count_ = 0;
  std::uint64_t hook_every_ = 1 << 12;
  std::uint64_t since_hook_ = 0;
  std::uint64_t sample_every_ = 1;
  std::uint64_t since_sample_ = 0;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace pcieb::sim
