#pragma once

#include <vector>

#include "common/table.hpp"
#include "geo/grid.hpp"
#include "geo/population.hpp"
#include "measurement/ping.hpp"
#include "mobility/drive_plan.hpp"
#include "netsim/parallel.hpp"
#include "radio/conditions.hpp"
#include "radio/link_model.hpp"
#include "stats/summary.hpp"
#include "topo/network.hpp"

namespace sixg::meas {

/// Per-cell outcome of a grid campaign.
struct CellResult {
  bool traversed = false;          ///< entered by at least one mobile node
  std::uint64_t sample_count = 0;  ///< RTT samples taken in this cell
  stats::Summary rtt_ms;           ///< summary over those samples
};

/// Aggregated campaign outcome with the paper's rendering rules.
class GridReport {
 public:
  /// The paper's reporting threshold: samples a cell needs to report.
  static constexpr std::uint32_t kMinSamples = 10;

  GridReport(const geo::SectorGrid& grid, std::vector<CellResult> cells);

  [[nodiscard]] const CellResult& at(geo::CellIndex c) const;
  [[nodiscard]] const geo::SectorGrid& grid() const { return *grid_; }

  /// A cell "reports" when it was traversed and collected at least
  /// kMinSamples samples; otherwise Fig. 2/3 show 0.0.
  [[nodiscard]] bool reports(geo::CellIndex c) const;

  [[nodiscard]] int traversed_count() const;
  [[nodiscard]] int suppressed_count() const;  ///< traversed but < min

  /// Summary across all reporting cells' per-cell means.
  [[nodiscard]] stats::Summary mean_of_cell_means() const;

  /// Extremes over reporting cells; returns label + value pairs.
  struct Extreme {
    std::string label;
    double value = 0.0;
  };
  [[nodiscard]] Extreme min_mean() const;
  [[nodiscard]] Extreme max_mean() const;
  [[nodiscard]] Extreme min_stddev() const;
  [[nodiscard]] Extreme max_stddev() const;

  /// Fig. 2 rendering: mean RTL per cell (rows A.., columns 1..).
  [[nodiscard]] TextTable mean_table() const;
  /// Fig. 3 rendering: per-cell standard deviation.
  [[nodiscard]] TextTable stddev_table() const;
  /// Fig. 1 companion: measurement count per cell.
  [[nodiscard]] TextTable count_table() const;

 private:
  [[nodiscard]] TextTable value_table(double (GridReport::*value)(
      geo::CellIndex) const) const;
  [[nodiscard]] double mean_value(geo::CellIndex c) const;
  [[nodiscard]] double stddev_value(geo::CellIndex c) const;

  const geo::SectorGrid* grid_;
  std::vector<CellResult> cells_;
};

/// The paper's measurement campaign (Section IV-B): several mobile nodes
/// drive through the sector; while a node dwells in a cell it pings the
/// reference probe at a fixed cadence over the 5G access + carrier +
/// public-Internet path.
class GridCampaign {
 public:
  /// Concurrent measurement drives, one DrivePlan each.
  static constexpr std::uint32_t kMobileNodes = 6;

  struct Config {
    std::uint64_t seed = 0x9a24;
  };

  GridCampaign(const geo::SectorGrid& grid, const geo::PopulationRaster& pop,
               const radio::RadioEnvironmentMap& rem,
               const topo::Network& net, topo::NodeId mobile_ue,
               topo::NodeId reference, radio::AccessProfile profile,
               Config config);

  /// Run the whole campaign. Replications are distributed over `runner`'s
  /// worker threads cell-by-cell; results are identical to a serial run
  /// because every cell derives its own RNG stream.
  [[nodiscard]] GridReport run(const netsim::ParallelRunner& runner) const;

  /// The drive plans (per node) the run() call will use; exposed for the
  /// Fig. 1 bench and for tests.
  [[nodiscard]] std::vector<mobility::DrivePlan> plans() const;

 private:
  const geo::SectorGrid* grid_;
  const geo::PopulationRaster* pop_;
  const radio::RadioEnvironmentMap* rem_;
  const topo::Network* net_;
  topo::NodeId mobile_ue_;
  topo::NodeId reference_;
  radio::RadioLinkModel radio_model_;
  Config config_;
};

}  // namespace sixg::meas
