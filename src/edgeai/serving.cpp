#include "edgeai/serving.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sixg::edgeai {

namespace {

/// ServingStudy's RNG streams: arrivals, uplink, downlink, reservoir.
constexpr detail::StreamSalts kServingSalts{0xa221, 0x0b11, 0xd011, 0x9e5e};

}  // namespace

double ServingStudy::Report::within(Duration budget) const {
  if (!e2e_samples_ms.empty()) {
    SIXG_ASSERT(sorted_e2e_ms_.size() == e2e_samples_ms.size(),
                "within() needs finalize() after hand-filling e2e_samples_ms");
    const auto end = std::upper_bound(sorted_e2e_ms_.begin(),
                                      sorted_e2e_ms_.end(), budget.ms());
    return double(end - sorted_e2e_ms_.begin()) /
           double(sorted_e2e_ms_.size());
  }
  // Streamed report: answer from the histogram CDF (interpolated inside
  // the containing bin — approximate at sub-bin granularity). Budgets at
  // or beyond the histogram range clamp to the range end: overflow
  // samples sit somewhere above the range end, so this is the sharpest
  // LOWER bound available, never a fabricated 100 %.
  if (e2e_hist && e2e_hist->count() > 0) {
    const double hi = e2e_hist->bin_hi(e2e_hist->bin_count() - 1);
    return e2e_hist->cdf(std::min(budget.ms(), hi));
  }
  return 0.0;
}

void ServingStudy::Report::finalize() {
  sorted_e2e_ms_ = e2e_samples_ms;
  std::sort(sorted_e2e_ms_.begin(), sorted_e2e_ms_.end());
}

ServingStudy::Report ServingStudy::run(const Config& config) {
  FleetStudy::Config fleet;
  fleet.model = config.model;
  fleet.arrivals_per_second = config.arrivals_per_second;
  fleet.requests = config.requests;
  fleet.energy = config.energy;
  fleet.seed = config.seed;
  FleetStudy::ServerSpec& server = fleet.servers.emplace_back();
  server.accelerator = config.accelerator;
  server.batching = config.batching;
  server.tier = config.uplink ? ExecutionTier::kEdge : ExecutionTier::kDevice;
  server.uplink = config.uplink;
  server.downlink = config.downlink;

  Report report;
  std::vector<double>* samples = nullptr;
  if (config.retain_samples) {
    report.e2e_samples_ms.reserve(config.requests);
    samples = &report.e2e_samples_ms;
  }
  detail::run_serial(fleet, kServingSalts, report, samples);
  // Samples are final here: take the sorted snapshot within() probes.
  report.finalize();
  return report;
}

}  // namespace sixg::edgeai
