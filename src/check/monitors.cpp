#include "check/monitors.hpp"

#include <sstream>

namespace pcieb::check {

std::string Violation::format() const {
  std::ostringstream os;
  os << "invariant '" << monitor << "' violated @ " << to_nanos(when)
     << " ns: " << detail;
  return os.str();
}

void ViolationLog::record(const char* monitor, Picos when,
                          std::string detail) {
  ++total_;
  Violation v{monitor, when, std::move(detail)};
  if (cfg_.throw_on_violation) throw InvariantError(v);
  if (violations_.size() < cfg_.max_recorded) {
    violations_.push_back(std::move(v));
  }
}

std::string ViolationLog::report(const char* label) const {
  if (total_ == 0) return std::string(label) + ": all invariants held\n";
  std::ostringstream os;
  for (const auto& v : violations_) os << v.format() << "\n";
  if (total_ > violations_.size()) {
    os << "... and " << (total_ - violations_.size())
       << " further violations past the recording cap\n";
  }
  os << label << ": " << total_ << " violation" << (total_ == 1 ? "" : "s")
     << " (" << violations_.size() << " recorded)\n";
  return os.str();
}

MonitorSuite::MonitorSuite(sim::Simulator& sim, const sim::Link& up,
                           const sim::Link& down,
                           const fault::RecoveryManager* recovery,
                           MonitorConfig cfg)
    : sim_(sim), up_(up), down_(down), recovery_(recovery), log_(cfg) {
  sim_.add_monitor(&MonitorSuite::step_monitor, this);
}

MonitorSuite::MonitorSuite(sim::System& system, MonitorConfig cfg)
    : MonitorSuite(system.sim(), system.upstream(), system.downstream(),
                   system.recovery(), cfg) {
  add_function(system.device(), system.root_complex(),
               system.lost_write_bytes(), "");
}

MonitorSuite::MonitorSuite(sim::MultiTenantSystem& system, MonitorConfig cfg)
    : MonitorSuite(system.sim(), system.upstream(), system.downstream(),
                   /*recovery=*/nullptr, cfg) {
  for (unsigned vf = 0; vf < system.tenants(); ++vf) {
    add_function(system.device(vf), system.root_complex(vf),
                 system.lost_write_bytes(vf), "vf" + std::to_string(vf) + ": ");
  }
}

MonitorSuite::~MonitorSuite() {
  sim_.remove_monitor(&MonitorSuite::step_monitor, this);
}

void MonitorSuite::add_function(const sim::DmaDevice& device,
                                const sim::RootComplex& rc,
                                const std::uint64_t& lost_write_bytes,
                                std::string prefix) {
  const Baseline base{device.write_payload_issued(),
                      rc.write_bytes_committed(),
                      lost_write_bytes,
                      device.read_payload_requested(),
                      device.read_payload_delivered(),
                      device.failed_read_bytes()};
  functions_.push_back(
      Function{&device, &rc, &lost_write_bytes, base, std::move(prefix)});
}

void MonitorSuite::step_monitor(void* ctx, Picos now) {
  static_cast<MonitorSuite*>(ctx)->on_step(now);
}

void MonitorSuite::on_step(Picos now) {
  // Clock first: if time ran backwards, everything else is suspect too.
  if (clock_seen_ && now < last_now_) {
    log_.record("clock", now,
                "event clock moved backwards: " + std::to_string(last_now_) +
                    " ps -> " + std::to_string(now) + " ps");
  }
  clock_seen_ = true;
  last_now_ = now;
  step_checks(now);
}

void MonitorSuite::step_checks(Picos now) {
  const bool bleed_armed = functions_.size() > 1;
  for (const Function& f : functions_) {
    const auto& dev = *f.device;

    // bleed: no function ever receives another function's TLPs. The
    // device counts-and-drops them, so the counter moving at all is the
    // isolation breach.
    if (bleed_armed && dev.foreign_tlps() != 0) {
      log_.record("bleed", now,
                  f.prefix + std::to_string(dev.foreign_tlps()) +
                      " TLPs carried a foreign requester ID (cross-VF bleed)");
    }

    // credits: 0 <= available <= advertised window, at every instant.
    const std::int64_t credits = dev.posted_credits_available();
    const std::int64_t window =
        static_cast<std::int64_t>(dev.profile().posted_credit_bytes);
    if (credits < 0 || credits > window) {
      log_.record("credits", now,
                  f.prefix + "posted credits " + std::to_string(credits) +
                      " outside [0, " + std::to_string(window) + "]");
    }

    // tags: every issued tag is either retired or still in flight.
    const std::uint64_t issued = dev.read_requests_issued();
    const std::uint64_t retired = dev.read_requests_retired();
    const std::uint64_t inflight = dev.inflight_read_requests();
    if (retired > issued || issued - retired != inflight) {
      log_.record("tags", now,
                  f.prefix + "issued " + std::to_string(issued) +
                      " != retired " + std::to_string(retired) +
                      " + in-flight " + std::to_string(inflight) + " (" +
                      dev.outstanding_tags() + ")");
    }
  }

  // replay: the retry buffer tracks sent-but-unacked TLPs; it can never
  // hold more than were ever sent (an excess means retire accounting
  // drifted or wrapped). Physical-layer state, so unattributed.
  for (const sim::Link* link : {&up_, &down_}) {
    if (link->unacked() > link->tlps_sent()) {
      log_.record("replay", now,
                  "retry buffer holds " + std::to_string(link->unacked()) +
                      " TLPs but only " + std::to_string(link->tlps_sent()) +
                      " were sent");
    }
  }
}

void MonitorSuite::check_now() { step_checks(sim_.now()); }

void MonitorSuite::check_quiescent() {
  const Picos now = sim_.now();
  step_checks(now);
  for (const Function& f : functions_) quiescent_checks(f, now);

  // replay: the retry buffers must be empty once the queue drained.
  if (up_.unacked() != 0 || down_.unacked() != 0) {
    log_.record("replay", now,
                "retry buffers not empty at quiesce: up " +
                    std::to_string(up_.unacked()) + ", down " +
                    std::to_string(down_.unacked()));
  }

  if (recovery_ != nullptr) recovery_checks(now);
}

void MonitorSuite::quiescent_checks(const Function& f, Picos now) {
  const auto& dev = *f.device;
  const auto& rc = *f.rc;

  // credits: with nothing in flight, the full window must have returned.
  const std::int64_t credits = dev.posted_credits_available();
  const std::int64_t window =
      static_cast<std::int64_t>(dev.profile().posted_credit_bytes);
  if (credits != window) {
    log_.record("credits", now,
                f.prefix + "at quiesce " + std::to_string(credits) + " of " +
                    std::to_string(window) +
                    " posted credit bytes returned (leaked " +
                    std::to_string(window - credits) + ")");
  }

  // tags: nothing may still be in flight or queued anywhere.
  if (dev.inflight_read_requests() != 0 || dev.pending_read_ops() != 0 ||
      dev.pending_write_tlps() != 0 || rc.posted_writes_pending() != 0 ||
      rc.host_reads_pending() != 0 || rc.ordered_reads_pending() != 0) {
    log_.record("tags", now,
                f.prefix + "work outstanding at quiesce: read requests " +
                    std::to_string(dev.inflight_read_requests()) + " (" +
                    dev.outstanding_tags() + "), read ops " +
                    std::to_string(dev.pending_read_ops()) +
                    ", queued writes " +
                    std::to_string(dev.pending_write_tlps()) +
                    ", rc posted " +
                    std::to_string(rc.posted_writes_pending()) +
                    ", rc host reads " +
                    std::to_string(rc.host_reads_pending()) +
                    ", rc ordered reads " +
                    std::to_string(rc.ordered_reads_pending()));
  }

  // payload: byte conservation over the suite's lifetime.
  const std::uint64_t wr_issued =
      dev.write_payload_issued() - f.base.write_issued;
  const std::uint64_t wr_committed =
      rc.write_bytes_committed() - f.base.write_committed;
  const std::uint64_t wr_lost = *f.lost_write_bytes - f.base.write_lost;
  if (wr_issued != wr_committed + wr_lost) {
    log_.record("payload", now,
                f.prefix + "write bytes not conserved: issued " +
                    std::to_string(wr_issued) + " != committed " +
                    std::to_string(wr_committed) + " + lost " +
                    std::to_string(wr_lost));
  }
  const std::uint64_t rd_requested =
      dev.read_payload_requested() - f.base.read_requested;
  const std::uint64_t rd_delivered =
      dev.read_payload_delivered() - f.base.read_delivered;
  const std::uint64_t rd_failed = dev.failed_read_bytes() - f.base.read_failed;
  if (rd_requested != rd_delivered + rd_failed) {
    log_.record("payload", now,
                f.prefix + "read bytes not conserved: requested " +
                    std::to_string(rd_requested) + " != delivered " +
                    std::to_string(rd_delivered) + " + failed " +
                    std::to_string(rd_failed));
  }
}

void MonitorSuite::recovery_checks(Picos now) {
  // recovery: the escalation ladder must have converged — the device is
  // either healthy again or declared unrecoverable, within bounded
  // sim-time (the queue draining IS the bound: a ladder stuck mid-flight
  // would still hold scheduled events).
  const auto* rec = recovery_;
  if (!rec->converged()) {
    log_.record("recovery", now,
                std::string("ladder did not converge: state '") +
                    fault::to_string(rec->state()) +
                    "' at quiesce (want operational or quarantined); "
                    "digest " +
                    rec->digest());
  } else if (rec->state() == fault::RecoveryState::Operational) {
    if (up_.blocked() || down_.blocked()) {
      log_.record("recovery", now,
                  "operational verdict but port still frozen: up blocked=" +
                      std::to_string(up_.blocked()) +
                      ", down blocked=" + std::to_string(down_.blocked()));
    }
    if (up_.recovery_derated() != rec->link_degraded() ||
        down_.recovery_derated() != rec->link_degraded()) {
      log_.record("recovery", now,
                  "link derate disagrees with ladder: manager degraded=" +
                      std::to_string(rec->link_degraded()) +
                      ", up derated=" +
                      std::to_string(up_.recovery_derated()) +
                      ", down derated=" +
                      std::to_string(down_.recovery_derated()));
    }
    if (rec->link_degraded()) {
      log_.record("recovery", now,
                  "operational verdict with downtrain still active (restore "
                  "never ran); digest " +
                      rec->digest());
    }
  } else {  // Quarantined
    if (!up_.blocked() || !down_.blocked()) {
      log_.record("recovery", now,
                  "quarantined verdict but port not frozen: up blocked=" +
                      std::to_string(up_.blocked()) +
                      ", down blocked=" + std::to_string(down_.blocked()));
    }
  }
}

}  // namespace pcieb::check
