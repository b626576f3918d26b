#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "obs/profiler.hpp"

namespace pcieb::sim {
namespace {

/// Recycles a popped node even when the callable (or a hook) throws, so
/// aborting a run via a throwing hook never leaks event cells.
struct NodeGuard {
  EventQueue& queue;
  EventQueue::EventNode* node;
  ~NodeGuard() { queue.recycle(node); }
};

}  // namespace

void Simulator::throw_past_schedule() {
  throw std::logic_error("Simulator::at: scheduling into the past");
}

Simulator::Simulator() : profiler_(obs::Profiler::current()) {}

bool Simulator::step() {
  if (profiler_) return step_profiled();
  EventQueue::EventNode* node = queue_.pop();
  if (node == nullptr) return false;
  NodeGuard guard{queue_, node};
  now_ = node->time;
  ++executed_;
  if (step_hook_ && ++since_hook_ >= hook_every_) {
    since_hook_ = 0;
    step_hook_(now_, executed_);
  }
  node->fn.invoke_consume();
  // Checked after the callback so monitors observe the post-event state.
  if (monitor_count_ != 0) dispatch_monitors(now_);
  // Sampled last so telemetry intervals include this event's effects.
  if (sample_hook_ && ++since_sample_ >= sample_every_) {
    since_sample_ = 0;
    sample_hook_(now_);
  }
  return true;
}

/// step() with cost-center attribution — same semantics, with the four
/// phases (wheel pop, callback, check hook, step/sample hooks) wrapped in
/// ProfScopes. Kept as a separate body so the unprofiled path pays only
/// the `profiler_` null check.
bool Simulator::step_profiled() {
  obs::Profiler& prof = *profiler_;
  prof.enter(obs::CostCenter::WheelDispatch);
  EventQueue::EventNode* node = queue_.pop();
  if (node == nullptr) {
    prof.leave();
    return false;
  }
  NodeGuard guard{queue_, node};
  now_ = node->time;
  ++executed_;
  prof.leave();
  if (step_hook_ && ++since_hook_ >= hook_every_) {
    since_hook_ = 0;
    obs::ProfScope scope(&prof, obs::CostCenter::StepHook);
    step_hook_(now_, executed_);
  }
  {
    obs::ProfScope scope(&prof, obs::CostCenter::EventCallback);
    node->fn.invoke_consume();
  }
  if (monitor_count_ != 0) {
    obs::ProfScope scope(&prof, obs::CostCenter::Monitors);
    dispatch_monitors(now_);
  }
  if (sample_hook_ && ++since_sample_ >= sample_every_) {
    since_sample_ = 0;
    obs::ProfScope scope(&prof, obs::CostCenter::CountersTrace);
    sample_hook_(now_);
  }
  return true;
}

void Simulator::add_monitor(MonitorFn fn, void* ctx) {
  if (fn == nullptr) {
    throw std::logic_error("Simulator::add_monitor: null monitor");
  }
  if (monitor_count_ == kMaxMonitors) {
    throw std::logic_error("Simulator::add_monitor: monitor slots exhausted");
  }
  monitors_[monitor_count_++] = MonitorSlot{fn, ctx};
}

void Simulator::remove_monitor(MonitorFn fn, void* ctx) {
  for (std::size_t i = 0; i < monitor_count_; ++i) {
    if (monitors_[i].fn == fn && monitors_[i].ctx == ctx) {
      for (std::size_t j = i + 1; j < monitor_count_; ++j) {
        monitors_[j - 1] = monitors_[j];
      }
      monitors_[--monitor_count_] = MonitorSlot{};
      return;
    }
  }
}

void Simulator::reset() {
  queue_.reset();
  now_ = 0;
  executed_ = 0;
  step_hook_ = {};
  sample_hook_ = {};
  for (MonitorSlot& slot : monitors_) slot = MonitorSlot{};
  monitor_count_ = 0;
  hook_every_ = 1 << 12;
  since_hook_ = 0;
  sample_every_ = 1;
  since_sample_ = 0;
  profiler_ = obs::Profiler::current();
}

void Simulator::set_step_hook(StepHook hook, std::uint64_t every) {
  step_hook_ = std::move(hook);
  hook_every_ = every == 0 ? 1 : every;
  since_hook_ = 0;
}

void Simulator::set_sample_hook(SampleHook hook, std::uint64_t every) {
  sample_hook_ = std::move(hook);
  sample_every_ = every == 0 ? 1 : every;
  since_sample_ = 0;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Picos t) {
  // Deliberately leaves since_hook_ alone: hook cadence is a property of
  // executed events, not of how the caller chunks simulated time, so a
  // sequence of run_until() calls fires hooks at exactly the same events
  // as one uninterrupted run().
  while (!queue_.empty() && queue_.next_time() <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace pcieb::sim
