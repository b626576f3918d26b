// Invariant monitors: a self-checking harness over the PCIe functions of
// one port — the single function of a sim::System, or every VF of a
// sim::MultiTenantSystem.
//
// A MonitorSuite registers one slot on the simulator's per-event monitor
// dispatch and asserts, after every executed event, the conservation laws
// the components are supposed to uphold by construction. Credits, tags
// and payload are per-function ledgers and are checked for each function
// separately (an aggregate-only check would let one tenant's bytes or
// credits leak into another's ledger without firing); the rest are
// port-wide:
//
//  * bleed — cross-function tag bleed is zero: no function ever accepts
//    (or even sees counted) a TLP carrying another function's requester
//    ID. Armed only when the port has more than one function; a
//    misrouted completion or a shared-tag-space bug fires it on the
//    victim immediately.
//  * credits — the posted-write credit ledger never goes negative and
//    never exceeds the advertised window; at quiesce the full window has
//    been returned (every consumed credit came back, via commit, RC drop
//    or link drop).
//  * tags — every DMA read request tag that was issued is retired exactly
//    once (delivered, failed, or reclaimed by a timeout/error
//    completion): issued == retired + in-flight at every step, and
//    in-flight == 0 at quiesce with no leaked ops or queued writes.
//  * payload — byte conservation at quiesce: write payload that consumed
//    credits equals payload committed by the root complex plus payload
//    accounted lost to drops; read payload requested equals payload
//    delivered plus payload accounted failed.
//  * replay — the DLL retry buffer is bounded: sent-but-unacked TLPs
//    never exceed TLPs sent and the buffer is empty at quiesce.
//  * clock — the event clock never moves backwards.
//  * recovery — convergence (liveness) of the port's error-recovery
//    ladder: once the event queue drains, the device has either returned
//    to Operational or been permanently Quarantined — never stuck
//    mid-ladder (Contained/Resetting) or left Degraded with no probation
//    pending — and the port state agrees with the verdict (Operational =
//    links unblocked at full rate; Quarantined = port frozen). Only
//    checked when a sim::System has a recovery policy armed; per-VF
//    ladders are not checked.
//
// Violations of a function other than a sim::System's carry a "vfN: "
// detail prefix. Monitors are strictly opt-in: nothing constructs a
// MonitorSuite unless asked (pciebench --monitors, the chaos driver,
// tests), and an unarmed simulator pays exactly one integer test per
// event — runs without a suite attached stay bit-identical to the
// seed. Every suite (this one and OverloadMonitorSuite) keeps its
// breaches in a ViolationLog: recorded (record mode, default) or thrown
// (throw_on_violation) — record mode is what the chaos shrinker needs,
// since it must re-run failing trials to completion. See
// docs/CHECKING.md and docs/ISOLATION.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/system.hpp"
#include "sim/vf.hpp"

namespace pcieb::check {

/// One invariant breach: which monitor, when, and what the ledger said.
struct Violation {
  /// bleed | credits | tags | payload | replay | clock | recovery |
  /// overload.*
  std::string monitor;
  Picos when = 0;
  std::string detail;

  std::string format() const;
};

class InvariantError : public std::runtime_error {
 public:
  explicit InvariantError(const Violation& v)
      : std::runtime_error(v.format()), violation_(v) {}
  const Violation& violation() const { return violation_; }

 private:
  Violation violation_;
};

struct MonitorConfig {
  /// Throw InvariantError at the first breach instead of recording it.
  bool throw_on_violation = false;
  /// Recorded-violation cap: past it, breaches are counted but not kept
  /// (one broken invariant re-fires every event; keep reports readable).
  std::size_t max_recorded = 16;
};

/// The breach bookkeeping every monitor suite shares: count each breach,
/// keep the first `max_recorded` of them, or throw at the first one in
/// throw mode.
class ViolationLog {
 public:
  explicit ViolationLog(MonitorConfig cfg = {}) : cfg_(cfg) {}

  /// Count a breach; throws InvariantError in throw mode.
  void record(const char* monitor, Picos when, std::string detail);

  bool ok() const { return total_ == 0; }
  /// All breaches observed, including re-fires past the recording cap.
  std::uint64_t total() const { return total_; }
  /// The first `max_recorded` breaches, in order of occurrence.
  const std::vector<Violation>& violations() const { return violations_; }

  /// Human-readable summary: every recorded violation plus totals, or a
  /// one-line all-clear, each under `label`.
  std::string report(const char* label) const;

 private:
  MonitorConfig cfg_;
  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
};

class MonitorSuite {
 public:
  /// Registers one devirtualized monitor slot on `system`'s simulator and
  /// captures baseline payload tallies per function, so a suite attached
  /// mid-life checks only the delta. The destructor removes exactly its
  /// own slot, leaving any other registered monitors untouched. `system`
  /// must outlive the suite; System::reset detaches the slot, so attach
  /// a fresh suite after each reset.
  explicit MonitorSuite(sim::System& system, MonitorConfig cfg = {});
  /// The same suite over every VF of `system`, with `bleed` armed when
  /// there is more than one.
  explicit MonitorSuite(sim::MultiTenantSystem& system, MonitorConfig cfg = {});
  ~MonitorSuite();

  MonitorSuite(const MonitorSuite&) = delete;
  MonitorSuite& operator=(const MonitorSuite&) = delete;

  /// Run the per-step invariants immediately (they otherwise run after
  /// every executed event).
  void check_now();

  /// Run the quiesce invariants — call once the event queue has drained
  /// (after the benchmark returns). Also re-runs the step invariants.
  void check_quiescent();

  bool ok() const { return log_.ok(); }
  /// All breaches observed, including re-fires past the recording cap.
  std::uint64_t total_violations() const { return log_.total(); }
  /// The first `max_recorded` breaches, in order of occurrence.
  const std::vector<Violation>& violations() const { return log_.violations(); }

  /// Human-readable summary: every recorded violation plus totals, or a
  /// one-line all-clear.
  std::string report() const { return log_.report("monitors"); }

 private:
  /// Payload tallies at attach time (all zero on a fresh system).
  struct Baseline {
    std::uint64_t write_issued;
    std::uint64_t write_committed;
    std::uint64_t write_lost;
    std::uint64_t read_requested;
    std::uint64_t read_delivered;
    std::uint64_t read_failed;
  };
  /// One function's ledgers: what the per-function checks read.
  struct Function {
    const sim::DmaDevice* device;
    const sim::RootComplex* rc;
    const std::uint64_t* lost_write_bytes;
    Baseline base;
    std::string prefix;  ///< violation detail prefix: "" or "vfN: "
  };

  MonitorSuite(sim::Simulator& sim, const sim::Link& up, const sim::Link& down,
               const fault::RecoveryManager* recovery, MonitorConfig cfg);
  void add_function(const sim::DmaDevice& device, const sim::RootComplex& rc,
                    const std::uint64_t& lost_write_bytes, std::string prefix);

  /// Simulator::MonitorFn trampoline: the per-event path is one indirect
  /// call through a plain function pointer instead of a std::function.
  static void step_monitor(void* ctx, Picos now);
  void on_step(Picos now);
  void step_checks(Picos now);
  void quiescent_checks(const Function& f, Picos now);
  void recovery_checks(Picos now);

  sim::Simulator& sim_;
  const sim::Link& up_;
  const sim::Link& down_;
  const fault::RecoveryManager* recovery_;
  std::vector<Function> functions_;
  ViolationLog log_;

  Picos last_now_ = 0;
  bool clock_seen_ = false;
};

}  // namespace pcieb::check
