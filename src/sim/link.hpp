// One direction of a PCIe link as a serializing resource.
//
// Each TLP occupies the wire for wire_bytes at the TLP-layer rate (the raw
// rate derated by DLLP traffic — see LinkConfig::tlp_gbps), then arrives
// at the far end after a fixed propagation/PHY-pipeline delay. Delivery is
// in order, matching PCIe's per-VC ordering.
//
// The data link layer's recovery machinery is modelled explicitly: a TLP
// whose LCRC fails is NAKed and replayed from the retry buffer after the
// ACK/NAK round trip; a lost ACK expires REPLAY_TIMER and forces the same
// replay; and when one TLP accumulates REPLAY_NUM (4) replays the link
// escalates to a retrain, which blocks the wire for LinkDllConfig::
// retrain_time. The retry buffer preserves order, so recovery simply
// extends the wire occupancy in front of later TLPs. Faults come from an
// attached fault::FaultInjector (drops, corruption bursts, ack loss,
// poison, downtrain windows, surprise link-down).
//
// Every TLP is transmitted on a lane: a plain link is one lane holding the
// whole rate, and SR-IOV tenant mode splits the direction into one TDM
// lane per function (configure_tenants). Both run the same send path.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/aer.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "pcie/link_config.hpp"
#include "pcie/tlp.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace pcieb::sim {

/// Data-link-layer recovery parameters.
struct LinkDllConfig {
  /// NAK round trip before a corrupted TLP's replay begins.
  Picos ack_latency = from_nanos(250);
  /// REPLAY_TIMER expiry when an ACK is lost (spec: ~ twice the ack
  /// latency plus receiver L0s exit; dominated by the timeout).
  Picos replay_timer = from_nanos(1000);
  /// Replays of one TLP before the DLL escalates to a link retrain.
  unsigned replay_num = 4;
  /// Recovery/retrain duration — the wire is dead for this long.
  Picos retrain_time = from_micros(5);
};

class Link {
 public:
  using Deliver = std::function<void(const proto::Tlp&)>;

  Link(Simulator& sim, const proto::LinkConfig& cfg, Picos propagation,
       const LinkDllConfig& dll = {});

  void set_deliver(Deliver d) { deliver_ = std::move(d); }

  /// Queue a TLP for transmission on its lane. Serialization starts when
  /// the lane is free; the receiver's deliver callback fires at
  /// serialization-complete + propagation. Returns the delivery time
  /// (for dropped TLPs: when delivery would have happened).
  Picos send(const proto::Tlp& tlp);

  // Totals over every lane.
  std::uint64_t tlps_sent() const { return total(&FuncCounters::tlps); }
  std::uint64_t wire_bytes_sent() const {
    return total(&FuncCounters::wire_bytes);
  }
  std::uint64_t payload_bytes_sent() const {
    return total(&FuncCounters::payload_bytes);
  }
  std::uint64_t replays() const { return total(&FuncCounters::replays); }
  std::uint64_t replay_timeouts() const {
    return total(&FuncCounters::replay_timeouts);
  }
  std::uint64_t retrains() const { return total(&FuncCounters::retrains); }
  std::uint64_t dropped() const { return total(&FuncCounters::dropped); }
  std::uint64_t poisoned() const { return total(&FuncCounters::poisoned); }
  std::uint64_t blocked_drops() const {
    return total(&FuncCounters::blocked_drops);
  }
  std::uint64_t downtrains() const { return downtrains_; }
  /// TLPs sent but not yet delivered (retry-buffer occupancy proxy).
  std::uint64_t unacked() const { return unacked_; }
  Picos busy_total() const;

  /// Attach fault machinery (nullptrs detach). `upstream` names this
  /// direction for the injector's dir= predicate (device -> RC is up).
  void set_fault_injector(fault::FaultInjector* inj, bool upstream) {
    injector_ = inj;
    upstream_ = upstream;
  }
  void set_aer(fault::AerLog* aer) { aer_ = aer; }

  /// Invoked with every TLP the link loses to an injected drop — the
  /// System uses it to reclaim posted-write credits and account lost
  /// goodput, since a dropped TLP produces no downstream event at all.
  using DropHook = std::function<void(const proto::Tlp&)>;
  void set_drop_hook(DropHook h) { on_drop_ = std::move(h); }

  /// Invoked once per surprise link-down the injector fires on this
  /// direction, after the SurpriseLinkDown AER record; the System uses it
  /// to freeze both directions of the port (DPC-style containment needs
  /// the pair, not just the direction the trigger TLP was on).
  using LinkDownHook = std::function<void()>;
  void set_linkdown_hook(LinkDownHook h) { on_linkdown_ = std::move(h); }

  /// Containment: a blocked link discards every TLP instead of
  /// transmitting it — deterministically, before the injector is even
  /// consulted, so fault ordinals and RNG draws are not consumed while
  /// the port is down. Discards are accounted through the drop hook.
  void set_blocked(bool blocked) { blocked_ = blocked; }
  bool blocked() const { return blocked_; }

  /// Recovery-action derate (adaptive downtrain): retrain this direction
  /// to `lanes`/`gen` until cleared. An injected downtrain window takes
  /// precedence while it is active — the fault models the marginal
  /// hardware, the recovery derate models policy on top of it.
  void set_recovery_derate(unsigned lanes, unsigned gen);
  void clear_recovery_derate() { recovery_derate_active_ = false; }
  bool recovery_derated() const { return recovery_derate_active_; }

  // --- SR-IOV tenant mode: weighted TDM virtual lanes -----------------
  //
  // configure_tenants splits this direction into one virtual lane per
  // function, each serializing independently at weight/total of the link
  // rate (non-work-conserving time-division arbitration, like a fixed
  // DLL timeslot schedule). A lane's timing is a pure function of its own
  // traffic: one tenant saturating its slice never delays another — the
  // property the isolation-identity acceptance pins. The link totals
  // above are sums over the lanes.

  /// Enter tenant mode with one lane per function; weights[f] is lane
  /// f's arbitration weight (> 0). Call once, before any traffic.
  void configure_tenants(const std::vector<unsigned>& weights);
  bool tenant_mode() const { return tenant_; }

  /// Per-function containment: discard function f's TLPs at this port
  /// (before the injector is consulted — same determinism contract as
  /// set_blocked) while other functions keep transmitting.
  void set_func_blocked(unsigned func, bool blocked) {
    lane_of(func).blocked = blocked;
  }

  /// VF-scoped recovery derate: only function f's lane retrains to the
  /// reduced lanes/gen share.
  void set_func_recovery_derate(unsigned func, unsigned lanes, unsigned gen);
  void clear_func_recovery_derate(unsigned func) {
    lane_of(func).derate_active = false;
  }

  /// Route function f's DLL error records (replays, retrains, poison) to
  /// its own AER log; link-wide events (surprise link-down, downtrain)
  /// stay on the shared log.
  void set_func_aer(unsigned func, fault::AerLog* aer) {
    lane_of(func).aer = aer;
  }

  /// Per-lane counters; in tenant mode lane f carries function f.
  struct FuncCounters {
    std::uint64_t tlps = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t replays = 0;
    std::uint64_t replay_timeouts = 0;
    std::uint64_t retrains = 0;
    std::uint64_t dropped = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t blocked_drops = 0;
  };
  const FuncCounters& func_counters(unsigned func) const {
    return lane_of(func).counters;
  }

  /// Stable addresses of this direction's monotonic totals, for
  /// obs::CounterRegistry's raw readers — snapshot reads skip the
  /// std::function hop. On a plain link the totals are lane 0's counters,
  /// which stay in place for the Link's lifetime, across reset()
  /// included. Tenant-mode totals are lane sums with no single address,
  /// so this throws std::logic_error in tenant mode.
  struct CounterSources {
    const std::uint64_t* tlps;
    const std::uint64_t* wire_bytes;
    const std::uint64_t* payload_bytes;
    const std::uint64_t* replays;
    const std::uint64_t* replay_timeouts;
    const std::uint64_t* retrains;
    const std::uint64_t* dropped;
    const std::uint64_t* poisoned;
  };
  CounterSources counter_sources() const;

  /// Attach tracing (nullptr detaches); `comp` names this direction's
  /// trace track (LinkUp / LinkDown).
  void set_trace(obs::TraceSink* sink, obs::Component comp) {
    trace_ = sink;
    trace_comp_ = comp;
  }

  /// Trial-reuse reset to the just-constructed state for the same wire
  /// shape (LinkConfig and propagation are fixed at construction): every
  /// hook, attachment, counter, containment/derate latch and tenant lane
  /// is dropped. Lane 0 is reset in place.
  void reset(const LinkDllConfig& dll);

 private:
  /// One serializing lane: the whole link (share 1.0) on a plain link,
  /// one function's TDM slice in tenant mode.
  struct Lane {
    Lane(Simulator& sim, double lane_share, double line_rate)
        : wire(sim), share(lane_share), base_rate(lane_share * line_rate) {}
    /// Memo bound: max header + MPS payload with margin.
    static constexpr unsigned kSerMemoMax = 8192;

    SerialResource wire;
    double share;      ///< weight / total weight (1.0 on a plain link)
    double base_rate;  ///< share * line rate, memo anchor
    bool blocked = false;
    bool derate_active = false;
    double derate_rate = 0.0;  ///< derated link rate (share applied later)
    fault::AerLog* aer = nullptr;  ///< nullptr: the link's shared log
    FuncCounters counters;
    /// wire_bytes -> serialization time at base_rate (-1 = not yet
    /// computed).
    std::vector<Picos> ser_memo;
  };

  Lane& lane_of(unsigned func) {
    return func == 0 ? lane0_ : more_lanes_.at(func - 1);
  }
  const Lane& lane_of(unsigned func) const {
    return func == 0 ? lane0_ : more_lanes_.at(func - 1);
  }
  std::uint64_t total(std::uint64_t FuncCounters::*field) const {
    std::uint64_t sum = lane0_.counters.*field;
    for (const Lane& l : more_lanes_) sum += l.counters.*field;
    return sum;
  }

  /// TLP-layer rate honouring any active downtrain window; logs the
  /// transition into a window once per entry.
  double effective_rate();
  /// Run `n` replay attempts on `lane` (each: wasted serialization +
  /// `gap`), escalating to a retrain at REPLAY_NUM. Returns false once a
  /// retrain happened (the fault is gone; stop injecting attempts).
  bool replay_attempts(Lane& lane, fault::AerLog* aer, unsigned n, Picos gap,
                       Picos ser, unsigned wire_bytes, const proto::Tlp& tlp,
                       fault::ErrorType type, unsigned& consecutive);

  Simulator& sim_;
  proto::LinkConfig cfg_;
  Picos propagation_;
  LinkDllConfig dll_;
  Deliver deliver_;
  DropHook on_drop_;
  LinkDownHook on_linkdown_;
  fault::FaultInjector* injector_ = nullptr;
  fault::AerLog* aer_ = nullptr;
  bool upstream_ = true;
  obs::TraceSink* trace_ = nullptr;
  obs::Component trace_comp_ = obs::Component::LinkUp;
  std::uint64_t downtrains_ = 0;
  std::uint64_t unacked_ = 0;
  bool downtrained_ = false;
  const fault::FaultRule* derated_rule_ = nullptr;
  double derated_rate_ = 0.0;
  bool blocked_ = false;
  bool recovery_derate_active_ = false;
  double recovery_rate_ = 0.0;
  /// Per-TLP wire accounting without the per-call switch chain in
  /// proto::overhead_bytes: the overhead is a pure function of (type,
  /// cfg_), both fixed for this link's lifetime (reset() keeps the same
  /// wire shape), so one 4-entry table covers every TLP.
  std::array<unsigned, proto::kTlpTypeCount> overhead_{};
  unsigned wire_bytes_of(const proto::Tlp& t) const {
    return overhead_[static_cast<std::size_t>(t.type)] + t.payload;
  }
  /// cfg_.tlp_gbps() computed once — it chains two switch lookups and
  /// floating-point math, far too heavy for a per-TLP call.
  double line_rate_;
  /// Set by configure_tenants: TLPs pick their lane by function number.
  /// Otherwise every TLP rides lane 0.
  bool tenant_ = false;
  /// Lane 0 lives inline so its counters (the plain link's totals) keep
  /// their addresses for counter_sources(); tenant lanes 1..n-1 follow.
  Lane lane0_;
  std::vector<Lane> more_lanes_;
};

}  // namespace pcieb::sim
