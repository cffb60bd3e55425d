#include "slicing/admission.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sixg::slicing {

SliceAdmission::SliceAdmission(const topo::Network& net, Config config)
    : net_(&net), config_(config) {
  SIXG_ASSERT(config_.reservable_share > 0.0 &&
                  config_.reservable_share <= 1.0,
              "reservable share must be in (0,1]");
}

std::optional<SliceAdmission::Admitted> SliceAdmission::admit(
    const SliceSpec& spec, topo::NodeId from, topo::NodeId to) {
  // Route once: the admitted slice keeps the compiled path for its
  // latency draws.
  const topo::CompiledPath path = net_->compile(net_->find_path(from, to));
  if (!path.valid()) return std::nullopt;

  // Latency feasibility: the deterministic floor must fit the budget.
  const Duration base_rtt = path.base_one_way() + path.base_one_way();
  if (base_rtt > spec.latency_budget) return std::nullopt;

  // Capacity feasibility on every traversed link.
  for (const topo::LinkId link : path.links()) {
    const auto idx = std::size_t(link.value());
    if (reserved_bps_.size() <= idx) reserved_bps_.resize(idx + 1, 0);
    const double limit = double(net_->link(link).capacity.bits_per_second()) *
                         config_.reservable_share;
    if (double(reserved_bps_[idx] + spec.guaranteed_rate.bits_per_second()) >
        limit)
      return std::nullopt;
  }

  for (const topo::LinkId link : path.links())
    reserved_bps_[std::size_t(link.value())] +=
        spec.guaranteed_rate.bits_per_second();

  Admitted a{spec.id, path};
  admitted_.push_back(a);
  specs_.push_back(spec);
  return a;
}

bool SliceAdmission::release(std::uint32_t slice_id) {
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    if (admitted_[i].slice_id != slice_id) continue;
    for (const topo::LinkId link : admitted_[i].path.links())
      reserved_bps_[std::size_t(link.value())] -=
          specs_[i].guaranteed_rate.bits_per_second();
    admitted_.erase(admitted_.begin() + std::ptrdiff_t(i));
    specs_.erase(specs_.begin() + std::ptrdiff_t(i));
    return true;
  }
  return false;
}

DataRate SliceAdmission::reserved_on(topo::LinkId link) const {
  const auto idx = std::size_t(link.value());
  if (idx >= reserved_bps_.size()) return DataRate::bps(0);
  return DataRate::bps(reserved_bps_[idx]);
}

double SliceAdmission::reservation_ratio(topo::LinkId link) const {
  const double limit = double(net_->link(link).capacity.bits_per_second()) *
                       config_.reservable_share;
  if (limit <= 0.0) return 0.0;
  return double(reserved_on(link).bits_per_second()) / limit;
}

}  // namespace sixg::slicing
