#pragma once

#include <optional>

#include "common/rng.hpp"
#include "radio/conditions.hpp"
#include "radio/link_model.hpp"
#include "stats/summary.hpp"
#include "topo/network.hpp"

namespace sixg::meas {

/// End-to-end RTT sampler between two topology nodes, optionally behind a
/// radio access leg. This is the primitive every campaign builds on; it
/// measures *network* latency only — no application processing — matching
/// the semantics of the paper's RIPE-Atlas-based methodology.
class PingMeasurement {
 public:
  /// Wired endpoint: RTT comes from the topology path alone.
  PingMeasurement(const topo::Network& net, topo::NodeId src,
                  topo::NodeId dst);

  /// Mobile endpoint: a radio traversal (model + conditions) is added on
  /// top of the wired path RTT for every sample.
  PingMeasurement(const topo::Network& net, topo::NodeId src,
                  topo::NodeId dst, const radio::RadioLinkModel& radio,
                  radio::CellConditions conditions);

  [[nodiscard]] bool reachable() const { return path_.valid(); }
  [[nodiscard]] const topo::Path& path() const { return path_; }
  [[nodiscard]] const topo::CompiledPath& compiled_path() const {
    return compiled_;
  }

  /// One RTT sample in milliseconds.
  [[nodiscard]] double sample_ms(Rng& rng) const;

  /// Collect `count` samples into a summary.
  struct Result {
    stats::Summary summary_ms;
  };
  [[nodiscard]] Result run(std::uint32_t count, Rng& rng) const;

 private:
  topo::Path path_;
  topo::CompiledPath compiled_;  ///< wired-path sampler (compiled once)
  const radio::RadioLinkModel* radio_ = nullptr;  // optional, not owned
  radio::CellConditions conditions_;
};

}  // namespace sixg::meas
