#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.hpp"

namespace pcieb::sim {

double Link::effective_rate() {
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    if (const fault::FaultRule* rule = injector_->downtrain_now(sim_.now())) {
      if (!downtrained_) {
        downtrained_ = true;
        ++downtrains_;
        injector_->tally_downtrain();
        if (aer_) {
          aer_->record(fault::ErrorType::LinkDowntrain, sim_.now(), 0, 0,
                       rule->lanes ? rule->lanes : cfg_.lanes);
        }
      }
      if (rule != derated_rule_) {
        proto::LinkConfig derated = cfg_;
        if (rule->lanes) derated.lanes = rule->lanes;
        if (rule->gen) derated.gen = static_cast<proto::Generation>(rule->gen);
        derated_rule_ = rule;
        derated_rate_ = derated.tlp_gbps();
      }
      return derated_rate_;
    }
    downtrained_ = false;
  }
  if (recovery_derate_active_) return recovery_rate_;
  return line_rate_;
}

void Link::set_recovery_derate(unsigned lanes, unsigned gen) {
  proto::LinkConfig derated = cfg_;
  if (lanes) derated.lanes = lanes;
  if (gen) derated.gen = static_cast<proto::Generation>(gen);
  recovery_rate_ = derated.tlp_gbps();
  recovery_derate_active_ = true;
}

Link::Link(Simulator& sim, const proto::LinkConfig& cfg, Picos propagation,
           const LinkDllConfig& dll)
    : sim_(sim), cfg_(cfg), propagation_(propagation), dll_(dll),
      line_rate_(cfg.tlp_gbps()), lane0_(sim, 1.0, line_rate_) {
  for (std::size_t t = 0; t < proto::kTlpTypeCount; ++t) {
    overhead_[t] =
        proto::overhead_bytes(static_cast<proto::TlpType>(t), cfg_);
  }
}

void Link::reset(const LinkDllConfig& dll) {
  dll_ = dll;
  deliver_ = {};
  on_drop_ = {};
  on_linkdown_ = {};
  injector_ = nullptr;
  aer_ = nullptr;
  upstream_ = true;
  trace_ = nullptr;
  trace_comp_ = obs::Component::LinkUp;
  downtrains_ = 0;
  unacked_ = 0;
  downtrained_ = false;
  derated_rule_ = nullptr;
  derated_rate_ = 0.0;
  blocked_ = false;
  recovery_derate_active_ = false;
  recovery_rate_ = 0.0;
  // Lane 0 is reset in place (counter_sources() hands out its addresses).
  // Its serialization memo is a pure function of the unchanged line rate
  // and survives, unless a tenant share re-anchored it.
  if (lane0_.share != 1.0) {
    lane0_.share = 1.0;
    lane0_.base_rate = line_rate_;
    lane0_.ser_memo.clear();
  }
  lane0_.wire.reset();
  lane0_.blocked = false;
  lane0_.derate_active = false;
  lane0_.derate_rate = 0.0;
  lane0_.aer = nullptr;
  lane0_.counters = {};
  more_lanes_.clear();
  tenant_ = false;
}

Picos Link::busy_total() const {
  Picos sum = lane0_.wire.busy_total();
  for (const Lane& l : more_lanes_) sum += l.wire.busy_total();
  return sum;
}

Link::CounterSources Link::counter_sources() const {
  if (tenant_) {
    throw std::logic_error("Link: tenant-mode totals have no single address");
  }
  const FuncCounters& c = lane0_.counters;
  return {&c.tlps,     &c.wire_bytes,      &c.payload_bytes,
          &c.replays,  &c.replay_timeouts, &c.retrains,
          &c.dropped,  &c.poisoned};
}

bool Link::replay_attempts(Lane& lane, fault::AerLog* aer, unsigned n,
                           Picos gap, Picos ser, unsigned wire_bytes,
                           const proto::Tlp& tlp, fault::ErrorType type,
                           unsigned& consecutive) {
  FuncCounters& c = lane.counters;
  for (unsigned i = 0; i < n; ++i) {
    if (consecutive >= dll_.replay_num) {
      // REPLAY_NUM rollover: the DLL gives up on replaying and retrains
      // the link instead; training flushes whatever was corrupting the
      // lane, so the remaining injected attempts are moot.
      ++c.retrains;
      lane.wire.occupy(dll_.retrain_time);
      if (aer) {
        aer->record(fault::ErrorType::ReplayNumRollover, sim_.now(),
                    tlp.addr, tlp.tag, consecutive);
      }
      return false;
    }
    ++consecutive;
    ++c.replays;
    if (type == fault::ErrorType::ReplayTimeout) ++c.replay_timeouts;
    c.wire_bytes += wire_bytes;
    lane.wire.occupy(ser + gap);
    if (trace_) {
      trace_->record({sim_.now(), 0, tlp.addr, tlp.tag, wire_bytes,
                      obs::EventKind::LinkReplay, trace_comp_,
                      static_cast<std::uint8_t>(tlp.type)});
    }
    if (aer) aer->record(type, sim_.now(), tlp.addr, tlp.tag, i);
  }
  return true;
}

void Link::configure_tenants(const std::vector<unsigned>& weights) {
  if (weights.empty() || weights.size() > 64) {
    throw std::invalid_argument("Link: tenant count must be in 1..64");
  }
  if (tlps_sent() != 0 || tenant_) {
    throw std::logic_error("Link: configure_tenants after traffic");
  }
  double total = 0.0;
  for (const unsigned w : weights) {
    if (w == 0) throw std::invalid_argument("Link: zero arbitration weight");
    total += static_cast<double>(w);
  }
  tenant_ = true;
  lane0_.share = static_cast<double>(weights[0]) / total;
  lane0_.base_rate = lane0_.share * line_rate_;
  lane0_.ser_memo.clear();
  more_lanes_.reserve(weights.size() - 1);
  for (std::size_t f = 1; f < weights.size(); ++f) {
    more_lanes_.emplace_back(sim_, static_cast<double>(weights[f]) / total,
                             line_rate_);
  }
}

void Link::set_func_recovery_derate(unsigned func, unsigned lanes,
                                    unsigned gen) {
  proto::LinkConfig derated = cfg_;
  if (lanes) derated.lanes = lanes;
  if (gen) derated.gen = static_cast<proto::Generation>(gen);
  Lane& l = lane_of(func);
  l.derate_rate = derated.tlp_gbps();
  l.derate_active = true;
}

Picos Link::send(const proto::Tlp& tlp) {
  Lane& lane = tenant_ ? lane_of(tlp.func) : lane0_;
  FuncCounters& c = lane.counters;
  if (blocked_ || lane.blocked) {
    // The port (DPC) or this function is contained, or the port is
    // resetting: the TLP is discarded before the injector is consulted,
    // so ordinals and RNG draws are not consumed while the lane is down —
    // the fault stream resumes exactly where it left off after a hot
    // reset.
    ++c.blocked_drops;
    if (on_drop_) on_drop_(tlp);
    return sim_.now() + propagation_;
  }
  fault::LinkTxDecision decision;
  if (injector_) {
    obs::ProfScope prof(obs::CostCenter::FaultPredicates);
    decision = injector_->on_link_tx(tlp, upstream_, sim_.now());
  }

  if (decision.linkdown) {
    // Surprise link-down: the port drops to detect mid-transfer. The
    // triggering TLP is lost, a fatal SurpriseLinkDown AER record fires,
    // and the hook freezes the port pair; from here on the blocked-
    // discard path above handles traffic until a recovery policy (if
    // any) hot-resets the link back up. It is a physical-layer event:
    // it cannot be scoped to a function, so the record always lands in
    // the shared log.
    ++c.tlps;
    ++c.dropped;
    if (aer_) {
      aer_->record(fault::ErrorType::SurpriseLinkDown, sim_.now(), tlp.addr,
                   tlp.tag, cfg_.lanes);
    }
    if (on_linkdown_) on_linkdown_();
    if (on_drop_) on_drop_(tlp);
    return sim_.now() + propagation_;
  }

  const unsigned wire_bytes = wire_bytes_of(tlp);
  ++c.tlps;
  c.wire_bytes += wire_bytes;
  c.payload_bytes += tlp.payload;
  // The lane serializes at its share of the (possibly downtrained) link
  // rate — all of it on a plain link, where the share is exactly 1.0 — and
  // a VF-scoped recovery derate caps it further. At the lane's base rate
  // (the overwhelmingly common case — derating only happens in downtrain
  // windows and recovery derates) the serialization time is a pure
  // function of wire_bytes, memoized on first use with the identical
  // floating-point expression, so values match recomputation bit-for-bit.
  double rate = lane.share * effective_rate();
  if (lane.derate_active) {
    rate = std::min(rate, lane.share * lane.derate_rate);
  }
  Picos ser;
  if (rate == lane.base_rate && wire_bytes < Lane::kSerMemoMax) {
    std::vector<Picos>& memo = lane.ser_memo;
    if (wire_bytes >= memo.size()) memo.resize(wire_bytes + 1, -1);
    Picos& slot = memo[wire_bytes];
    if (slot < 0) slot = serialization_ps(wire_bytes, rate);
    ser = slot;
  } else {
    ser = serialization_ps(wire_bytes, rate);
  }

  // DLL recovery: each corrupted attempt occupies the lane, is NAKed, and
  // is replayed after the ACK/NAK round trip; a lost ACK replays after
  // REPLAY_TIMER instead. Replays happen before any later TLP is accepted
  // (the DLL retry buffer preserves order), so the wasted attempts plus
  // the timeout gaps simply extend the lane occupancy — a replay storm or
  // retrain stalls only this lane's timeslots.
  if (decision.corrupt_attempts > 0 || decision.ack_losses > 0) {
    obs::ProfScope prof(obs::CostCenter::DllReplay);
    fault::AerLog* aer = lane.aer ? lane.aer : aer_;
    unsigned consecutive = 0;
    if (replay_attempts(lane, aer, decision.corrupt_attempts,
                        dll_.ack_latency, ser, wire_bytes, tlp,
                        fault::ErrorType::BadTlp, consecutive)) {
      replay_attempts(lane, aer, decision.ack_losses, dll_.replay_timer, ser,
                      wire_bytes, tlp, fault::ErrorType::ReplayTimeout,
                      consecutive);
    }
  }

  if (trace_) {
    // Span covers the wire occupancy (start may be in the future when the
    // TLP queues behind earlier traffic); delivery adds propagation.
    const Picos start = std::max(sim_.now(), lane.wire.next_free());
    trace_->record({start, ser, tlp.addr, tlp.tag, wire_bytes,
                    obs::EventKind::LinkTx, trace_comp_,
                    static_cast<std::uint8_t>(tlp.type)});
  }

  if (decision.drop) {
    // The TLP consumed the wire but never arrives — a loss that escaped
    // the DLL. Requesters recover via completion timeout; posted writes
    // are gone for good (the bench reports them as lost goodput).
    ++c.dropped;
    if (on_drop_) on_drop_(tlp);
    return lane.wire.occupy(ser) + propagation_;
  }

  proto::Tlp copy = tlp;
  if (decision.poison) {
    copy.poisoned = true;
    ++c.poisoned;
  }
  ++unacked_;
  const Picos done = lane.wire.occupy(ser, [this, &lane, copy] {
    if (deliver_) {
      // Deliver after the propagation delay; Link::send callers rely on
      // in-order delivery, which holds because propagation is constant.
      sim_.after(propagation_, [this, &lane, copy] {
        // The far end's ACK retires the retry-buffer entry.
        if (unacked_ > 0) --unacked_;
        if (blocked_ || lane.blocked) {
          // Containment hit while this TLP was in flight: DPC discards
          // it at the port instead of delivering (deterministically —
          // the discard point is fixed by the blocking event's time).
          ++lane.counters.blocked_drops;
          if (on_drop_) on_drop_(copy);
          return;
        }
        deliver_(copy);
      });
    } else if (unacked_ > 0) {
      --unacked_;
    }
  });
  return done + propagation_;
}

}  // namespace pcieb::sim
