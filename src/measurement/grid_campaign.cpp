#include "measurement/grid_campaign.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sixg::meas {
namespace {

/// Ping cadence while a node dwells in a cell.
constexpr Duration kMeasurementInterval = Duration::seconds(13);

}  // namespace

// ---------------------------------------------------------------------------
// GridReport
// ---------------------------------------------------------------------------

GridReport::GridReport(const geo::SectorGrid& grid,
                       std::vector<CellResult> cells)
    : grid_(&grid), cells_(std::move(cells)) {
  SIXG_ASSERT(cells_.size() == std::size_t(grid.cell_count()),
              "one result per cell required");
}

const CellResult& GridReport::at(geo::CellIndex c) const {
  SIXG_ASSERT(grid_->contains(c), "cell outside grid");
  return cells_[std::size_t(grid_->flat(c))];
}

bool GridReport::reports(geo::CellIndex c) const {
  const CellResult& r = at(c);
  return r.traversed && r.sample_count >= kMinSamples;
}

int GridReport::traversed_count() const {
  return int(std::count_if(cells_.begin(), cells_.end(),
                           [](const CellResult& r) { return r.traversed; }));
}

int GridReport::suppressed_count() const {
  return int(std::count_if(cells_.begin(), cells_.end(),
                           [](const CellResult& r) {
                             return r.traversed && r.sample_count < kMinSamples;
                           }));
}

stats::Summary GridReport::mean_of_cell_means() const {
  stats::Summary s;
  for (const geo::CellIndex c : grid_->all_cells())
    if (reports(c)) s.add(at(c).rtt_ms.mean());
  return s;
}

GridReport::Extreme GridReport::min_mean() const {
  Extreme best{"", 1e300};
  for (const geo::CellIndex c : grid_->all_cells())
    if (reports(c) && at(c).rtt_ms.mean() < best.value)
      best = Extreme{grid_->label(c), at(c).rtt_ms.mean()};
  return best;
}

GridReport::Extreme GridReport::max_mean() const {
  Extreme best{"", -1e300};
  for (const geo::CellIndex c : grid_->all_cells())
    if (reports(c) && at(c).rtt_ms.mean() > best.value)
      best = Extreme{grid_->label(c), at(c).rtt_ms.mean()};
  return best;
}

GridReport::Extreme GridReport::min_stddev() const {
  Extreme best{"", 1e300};
  for (const geo::CellIndex c : grid_->all_cells())
    if (reports(c) && at(c).rtt_ms.stddev() < best.value)
      best = Extreme{grid_->label(c), at(c).rtt_ms.stddev()};
  return best;
}

GridReport::Extreme GridReport::max_stddev() const {
  Extreme best{"", -1e300};
  for (const geo::CellIndex c : grid_->all_cells())
    if (reports(c) && at(c).rtt_ms.stddev() > best.value)
      best = Extreme{grid_->label(c), at(c).rtt_ms.stddev()};
  return best;
}

double GridReport::mean_value(geo::CellIndex c) const {
  return reports(c) ? at(c).rtt_ms.mean() : 0.0;
}

double GridReport::stddev_value(geo::CellIndex c) const {
  return reports(c) ? at(c).rtt_ms.stddev() : 0.0;
}

TextTable GridReport::value_table(
    double (GridReport::*value)(geo::CellIndex) const) const {
  std::vector<std::string> header{"row"};
  for (int col = 0; col < grid_->cols(); ++col)
    header.push_back(std::to_string(col + 1));
  TextTable t{header};
  for (int row = 0; row < grid_->rows(); ++row) {
    std::vector<std::string> cells;
    cells.push_back(std::string(1, char('A' + row)));
    for (int col = 0; col < grid_->cols(); ++col) {
      const geo::CellIndex c{row, col};
      if (!at(c).traversed) {
        cells.push_back("-");  // never driven: no entry at all in Fig. 1
      } else {
        cells.push_back(TextTable::num((this->*value)(c), 1));
      }
    }
    t.add_row(std::move(cells));
  }
  return t;
}

TextTable GridReport::mean_table() const {
  return value_table(&GridReport::mean_value);
}

TextTable GridReport::stddev_table() const {
  return value_table(&GridReport::stddev_value);
}

TextTable GridReport::count_table() const {
  std::vector<std::string> header{"row"};
  for (int col = 0; col < grid_->cols(); ++col)
    header.push_back(std::to_string(col + 1));
  TextTable t{header};
  for (int row = 0; row < grid_->rows(); ++row) {
    std::vector<std::string> cells;
    cells.push_back(std::string(1, char('A' + row)));
    for (int col = 0; col < grid_->cols(); ++col) {
      const geo::CellIndex c{row, col};
      cells.push_back(at(c).traversed
                          ? TextTable::integer(std::int64_t(at(c).sample_count))
                          : std::string("-"));
    }
    t.add_row(std::move(cells));
  }
  return t;
}

// ---------------------------------------------------------------------------
// GridCampaign
// ---------------------------------------------------------------------------

GridCampaign::GridCampaign(const geo::SectorGrid& grid,
                           const geo::PopulationRaster& pop,
                           const radio::RadioEnvironmentMap& rem,
                           const topo::Network& net, topo::NodeId mobile_ue,
                           topo::NodeId reference,
                           radio::AccessProfile profile, Config config)
    : grid_(&grid),
      pop_(&pop),
      rem_(&rem),
      net_(&net),
      mobile_ue_(mobile_ue),
      reference_(reference),
      radio_model_(std::move(profile)),
      config_(config) {}

std::vector<mobility::DrivePlan> GridCampaign::plans() const {
  std::vector<mobility::DrivePlan> plans;
  plans.reserve(kMobileNodes);
  for (std::uint32_t node = 0; node < kMobileNodes; ++node) {
    plans.push_back(mobility::DrivePlan::manhattan(
        *grid_, *pop_, derive_seed(config_.seed, node)));
  }
  return plans;
}

GridReport GridCampaign::run(const netsim::ParallelRunner& runner) const {
  // Phase 1 (serial, cheap): derive per-cell sample budgets from the
  // drive plans — cadence-spaced pings during each dwell.
  const auto cell_count = std::size_t(grid_->cell_count());
  std::vector<std::uint64_t> samples(cell_count, 0);
  std::vector<bool> traversed(cell_count, false);
  for (const mobility::DrivePlan& plan : plans()) {
    for (const mobility::CellVisit& visit : plan.visits()) {
      const auto idx = std::size_t(grid_->flat(visit.cell));
      traversed[idx] = true;
      samples[idx] +=
          std::uint64_t(visit.dwell.ns() / kMeasurementInterval.ns());
    }
  }

  // Phase 2 (parallel): sample each cell's RTT distribution. Each cell
  // gets an independent RNG stream derived from (seed, cell index), so
  // serial and parallel execution produce identical reports. Per-cell
  // setup routes the UE->reference pair once and sampling runs on the
  // compiled path inside PingMeasurement.
  std::vector<CellResult> results(cell_count);
  runner.run(cell_count, [&](std::size_t idx) {
    CellResult& r = results[idx];
    r.traversed = traversed[idx];
    r.sample_count = samples[idx];
    if (!r.traversed || r.sample_count == 0) return;
    const geo::CellIndex cell = grid_->unflat(int(idx));
    Rng rng{derive_seed(config_.seed ^ 0xce11u, idx)};
    const PingMeasurement ping{*net_, mobile_ue_, reference_, radio_model_,
                               rem_->at(cell)};
    SIXG_ASSERT(ping.reachable(), "reference unreachable from mobile UE");
    for (std::uint64_t i = 0; i < r.sample_count; ++i)
      r.rtt_ms.add(ping.sample_ms(rng));
  });

  return GridReport{*grid_, std::move(results)};
}

}  // namespace sixg::meas
