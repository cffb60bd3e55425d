#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "slicing/slice.hpp"
#include "topo/network.hpp"

namespace sixg::slicing {

/// End-to-end slice admission over the topology: a slice reserves its
/// guaranteed rate on every link of its path. Admission fails when any
/// link would exceed its reservable share — the resource-isolation half of
/// "end-to-end network slicing" [39].
class SliceAdmission {
 public:
  /// Fraction of each link's capacity available for guaranteed slices
  /// (the rest is best effort).
  static constexpr double kReservableShare = 0.6;

  explicit SliceAdmission(const topo::Network& net) : net_(&net) {}

  struct Admitted {
    std::uint32_t slice_id = 0;
    /// The reserved route, compiled: traversed links for the capacity
    /// ledger plus the flattened sampler for per-slice latency draws.
    topo::CompiledPath path;
  };

  /// Try to admit `spec` between two endpoints. On success the
  /// reservation is recorded and the chosen path returned.
  [[nodiscard]] std::optional<Admitted> admit(const SliceSpec& spec,
                                              topo::NodeId from,
                                              topo::NodeId to);

  [[nodiscard]] std::size_t admitted_count() const {
    return admitted_.size();
  }

 private:
  const topo::Network* net_;
  std::vector<std::int64_t> reserved_bps_;  // by link id value
  std::vector<Admitted> admitted_;
};

}  // namespace sixg::slicing
