#include "slicing/admission.hpp"

#include <algorithm>

namespace sixg::slicing {

static_assert(SliceAdmission::kReservableShare > 0.0 &&
                  SliceAdmission::kReservableShare <= 1.0,
              "reservable share must be in (0,1]");

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
                         kReservableShare;
    if (double(reserved_bps_[idx] + spec.guaranteed_rate.bits_per_second()) >
        limit)
      return std::nullopt;
  }

  for (const topo::LinkId link : path.links())
    reserved_bps_[std::size_t(link.value())] +=
        spec.guaranteed_rate.bits_per_second();

  Admitted a{spec.id, path};
  admitted_.push_back(a);
  return a;
}

}  // namespace sixg::slicing
