// Top-level composition: device <-> link pair <-> root complex <-> memory.
//
// A System owns a Simulator plus every component and wires them together,
// matching one row of the paper's Table 1 (host CPU + network adapter).
// Addressing note: DMA targets are IOVAs; with the IOMMU disabled Linux
// direct-maps DMA, and with it enabled our page mappings are identity at
// the chunk level, so the memory system indexes caches by IOVA directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "fault/watchdog.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "sim/host_buffer.hpp"
#include "sim/iommu.hpp"
#include "sim/jitter.hpp"
#include "sim/link.hpp"
#include "sim/memory_system.hpp"
#include "sim/root_complex.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

struct SystemConfig {
  std::string name = "generic";
  proto::LinkConfig link;
  RootComplexConfig rc;
  CacheConfig cache;
  MemoryConfig mem;
  IommuConfig iommu;
  JitterModel jitter = JitterModel::none();
  DeviceProfile device = DeviceProfile::netfpga_sume();
  /// One-way PHY + switch-fabric pipeline delay per direction.
  Picos up_propagation = from_nanos(140);
  Picos down_propagation = from_nanos(140);
  /// DLL recovery parameters (ACK latency, REPLAY_TIMER/NUM, retrain).
  LinkDllConfig dll;
  /// Deterministic fault plan; empty keeps the system entirely fault-free
  /// (no injector, no read timeouts, no watchdog — seed benchmarks stay
  /// bit-identical).
  fault::FaultPlan fault_plan;
  /// Watchdog thresholds; armed together with the fault plan.
  fault::WatchdogConfig watchdog;
  /// Error containment & recovery escalation ladder (AER-driven
  /// downtrain, FLR, DPC containment, hot reset); disabled by default —
  /// when off the manager is never constructed and nothing changes.
  fault::RecoveryPolicy recovery;
  std::uint64_t seed = 1;
};

/// Registers one PCIe function's outstanding-work ledger with `w`: the
/// five counters a quiescent-deadlock report lists (device read ops, read
/// requests and queued write TLPs; RC posted writes and host MMIO reads)
/// plus the outstanding-tag dump and AER-total diags, in report order.
/// Shared by System and every VF of a MultiTenantSystem.
void watch_function(fault::Watchdog& w, const DmaDevice& dev,
                    const RootComplex& rc, const fault::AerLog& aer);

class System {
 public:
  explicit System(const SystemConfig& cfg);

  /// Trial-reuse reset: rewind every component to its just-constructed
  /// state and re-arm from `cfg`, without reallocating the component
  /// graph. `cfg` must describe the same system *shape* as construction —
  /// identical link, cache, memory, IOMMU, RC, device, jitter,
  /// propagation, legacy link-fault and seed fields; only the per-trial
  /// fields (fault_plan, watchdog, recovery) may differ. Used by
  /// check::run_campaign to reuse one pooled System per system spec; the
  /// reset-vs-fresh property test pins byte-identical behaviour.
  void reset(const SystemConfig& cfg);

  Simulator& sim() { return sim_; }
  DmaDevice& device() { return *device_; }
  RootComplex& root_complex() { return *rc_; }
  MemorySystem& memory() { return *mem_; }
  Iommu& iommu() { return *iommu_; }
  Link& upstream() { return *up_; }
  Link& downstream() { return *down_; }
  const SystemConfig& config() const { return cfg_; }

  /// Register the benchmark buffer so NUMA locality resolves per-address.
  void attach_buffer(const HostBuffer* buf);

  /// Observe posted-write commits (payload bytes) — used to time BW_WR.
  /// The observer must not replace or clear itself from within its own
  /// invocation (that destroys the std::function mid-call); install it
  /// for the run and clear it once the simulator has drained.
  using WriteObserver = std::function<void(std::uint32_t)>;
  void set_write_observer(WriteObserver obs) { write_observer_ = std::move(obs); }

  /// Observe posted-write payload lost to a drop anywhere on the path
  /// (link loss, poisoned/malformed reject, IOMMU fault) — BW_WR uses
  /// commits + drops to terminate under faults and report goodput.
  void set_write_drop_observer(WriteObserver obs) {
    write_drop_observer_ = std::move(obs);
  }
  /// Posted-write payload bytes lost to drops so far.
  const std::uint64_t& lost_write_bytes() const { return lost_write_bytes_; }

  // --- fault machinery (armed iff config().fault_plan is non-empty) ----
  /// AER-style error log; always attached, cheap when nothing records.
  fault::AerLog& aer() { return aer_; }
  const fault::AerLog& aer() const { return aer_; }
  /// The active injector, or nullptr when no fault plan is armed.
  fault::FaultInjector* fault_injector() { return injector_.get(); }
  fault::Watchdog* watchdog() { return watchdog_.get(); }
  bool faults_armed() const { return injector_ != nullptr; }
  /// The recovery ladder, or nullptr when config().recovery is disabled.
  fault::RecoveryManager* recovery() { return recovery_.get(); }
  const fault::RecoveryManager* recovery() const { return recovery_.get(); }

  /// Call once the event queue drains: throws fault::WatchdogError when
  /// transactions are still outstanding (swallowed completion with no
  /// timeout armed). No-op when faults are unarmed.
  void check_deadlock();

  /// TEST-ONLY bug seeding for the invariant monitors (check::MonitorSuite
  /// self-tests): when enabled, the up-link drop path "forgets" to return
  /// the dropped write's posted credits — the one-line credit-return
  /// omission the credit-conservation monitor exists to catch. Loss
  /// accounting is untouched so benchmarks still terminate; only the
  /// credit ledger drifts. Never enable outside tests.
  void test_leak_credits_on_drop(bool on) { test_leak_credits_on_drop_ = on; }
  bool test_leaks_credits_on_drop() const { return test_leak_credits_on_drop_; }

  /// Attach a trace sink to every component (nullptr detaches). Costs one
  /// null-pointer check per would-be event when detached.
  void set_trace_sink(obs::TraceSink* sink);
  obs::TraceSink* trace_sink() const { return trace_; }

  /// Register every component's counters and gauges with `reg` under the
  /// stable names documented in docs/OBSERVABILITY.md. Gauges sample live
  /// state, so the registry must not outlive this System.
  void register_counters(obs::CounterRegistry& reg);

  // --- cache state control (the §4 warm/thrash levers) -----------------
  /// Host warms a window by writing it (dirty lines, any way).
  void warm_host(const HostBuffer& buf, std::uint64_t offset,
                 std::uint64_t len);
  /// Device warms a window (models prior DMA writes: DDIO ways, dirty).
  void warm_device(const HostBuffer& buf, std::uint64_t offset,
                   std::uint64_t len);
  /// Fill the LLC with unrelated clean lines.
  void thrash_cache();

 private:
  /// Shared by the constructor and reset(): install the inter-component
  /// hooks and AER attachments, then arm fault/recovery machinery per
  /// cfg_. Components must be in their just-constructed (or just-reset)
  /// state when called.
  void wire();
  void arm_faults();
  void arm_recovery();
  /// DPC/linkdown port freeze: block both directions. In-flight TLPs are
  /// discarded at delivery time; new sends drop at the entry check.
  void freeze_port();

  SystemConfig cfg_;
  Simulator sim_;
  std::unique_ptr<Link> up_;
  std::unique_ptr<Link> down_;
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<RootComplex> rc_;
  std::unique_ptr<DmaDevice> device_;
  const HostBuffer* buffer_ = nullptr;
  WriteObserver write_observer_;
  WriteObserver write_drop_observer_;
  obs::TraceSink* trace_ = nullptr;
  fault::AerLog aer_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::Watchdog> watchdog_;
  std::unique_ptr<fault::RecoveryManager> recovery_;
  std::uint64_t lost_write_bytes_ = 0;
  bool test_leak_credits_on_drop_ = false;
};

}  // namespace pcieb::sim
