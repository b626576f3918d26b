#include "sim/multi_system.hpp"

#include <stdexcept>

namespace pcieb::sim {

MultiDeviceSystem::MultiDeviceSystem(const SystemConfig& base,
                                     unsigned device_count)
    : cfg_(base) {
  if (device_count == 0) {
    throw std::invalid_argument("MultiDeviceSystem: need >= 1 device");
  }
  cfg_.link.validate();
  mem_ = std::make_unique<MemorySystem>(sim_, cfg_.cache, cfg_.mem,
                                        cfg_.jitter, cfg_.seed);
  iommu_ = std::make_unique<Iommu>(sim_, cfg_.iommu);
  ports_.reserve(device_count);
  for (unsigned i = 0; i < device_count; ++i) {
    Port port;
    port.up = std::make_unique<Link>(sim_, cfg_.link, cfg_.up_propagation);
    port.down = std::make_unique<Link>(sim_, cfg_.link, cfg_.down_propagation);
    port.rc = std::make_unique<RootComplex>(sim_, cfg_.link, cfg_.rc, *mem_,
                                            *iommu_, *port.down);
    port.device =
        std::make_unique<DmaDevice>(sim_, cfg_.device, cfg_.link, *port.up);
    Link* up = port.up.get();
    Link* down = port.down.get();
    RootComplex* rc = port.rc.get();
    DmaDevice* dev = port.device.get();
    up->set_deliver([rc](const proto::Tlp& t) { rc->on_upstream(t); });
    down->set_deliver([dev](const proto::Tlp& t) { dev->on_downstream(t); });
    rc->set_write_commit_hook(
        [dev](std::uint32_t bytes) { dev->grant_posted_credits(bytes); });
    ports_.push_back(std::move(port));
  }
}

void MultiDeviceSystem::warm_host(const HostBuffer& buf, std::uint64_t offset,
                                  std::uint64_t len) {
  mem_->cache().warm_host_range(buf.iova(offset), len, /*dirty=*/true);
}

void MultiDeviceSystem::thrash_cache() { mem_->cache().thrash(); }

}  // namespace pcieb::sim
