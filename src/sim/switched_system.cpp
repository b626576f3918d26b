#include "sim/switched_system.hpp"

#include <stdexcept>

namespace pcieb::sim {

SwitchedSystem::SwitchedSystem(const SystemConfig& base, unsigned device_count,
                               Picos switch_forward_latency)
    : cfg_(base) {
  if (device_count == 0) {
    throw std::invalid_argument("SwitchedSystem: need >= 1 device");
  }
  cfg_.link.validate();
  mem_ = std::make_unique<MemorySystem>(sim_, cfg_.cache, cfg_.mem,
                                        cfg_.jitter, cfg_.seed);
  iommu_ = std::make_unique<Iommu>(sim_, cfg_.iommu);
  uplink_ = std::make_unique<Link>(sim_, cfg_.link, cfg_.up_propagation);
  downlink_ = std::make_unique<Link>(sim_, cfg_.link, cfg_.down_propagation);
  rc_ = std::make_unique<RootComplex>(sim_, cfg_.link, cfg_.rc, *mem_,
                                      *iommu_, *downlink_);
  uplink_->set_deliver([this](const proto::Tlp& t) { rc_->on_upstream(t); });

  SwitchConfig sw_cfg;
  sw_cfg.forward_latency = switch_forward_latency;
  sw_cfg.port_link = cfg_.link;
  switch_ = std::make_unique<PcieSwitch>(sim_, sw_cfg, *uplink_);
  downlink_->set_deliver(
      [this](const proto::Tlp& t) { switch_->on_downstream(t); });

  devices_.reserve(device_count);
  for (unsigned i = 0; i < device_count; ++i) {
    // Posted credits are effectively unbounded here: the root complex has
    // no per-port credit return path through the switch in this model, so
    // the shared uplink itself is the write throttle.
    DeviceProfile profile = cfg_.device;
    profile.posted_credit_bytes = 1u << 30;
    auto placeholder = std::make_unique<DmaDevice>(
        sim_, profile, cfg_.link, switch_->port_ingress(switch_->add_port(
                            [this, i](const proto::Tlp& t) {
                              devices_.at(i)->on_downstream(t);
                            })));
    devices_.push_back(std::move(placeholder));
  }
}

void SwitchedSystem::warm_host(const HostBuffer& buf, std::uint64_t offset,
                               std::uint64_t len) {
  mem_->cache().warm_host_range(buf.iova(offset), len, /*dirty=*/true);
}

void SwitchedSystem::thrash_cache() { mem_->cache().thrash(); }

}  // namespace pcieb::sim
