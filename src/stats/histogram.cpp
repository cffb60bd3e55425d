#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "stats/json.hpp"

namespace sixg::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / double(bins)), counts_(bins) {
  SIXG_ASSERT(hi > lo, "histogram range must be non-empty");
  SIXG_ASSERT(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (!std::isfinite(x)) {
    // size_t(NaN) and size_t(inf) are UB; classify explicitly. +inf is
    // past every bin (overflow); NaN compares false with everything, so
    // it lands with -inf in underflow — counted, never silently lost.
    if (x > 0) {
      ++overflow_;
    } else {
      ++underflow_;
    }
    return;
  }
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = std::size_t((x - lo_) / bin_width_);
  idx = std::min(idx, counts_.size() - 1);  // guard fp edge at hi_
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  SIXG_ASSERT(other.counts_.size() == counts_.size() && other.lo_ == lo_ &&
                  other.hi_ == hi_,
              "histograms must share binning to merge");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + double(i) * bin_width_;
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + double(i + 1) * bin_width_;
}

double Histogram::cdf(double x) const {
  if (total_ == 0) return 0.0;
  if (x <= lo_) {
    return x < lo_ ? 0.0 : double(underflow_) / double(total_);
  }
  double below = double(underflow_);
  if (x >= hi_) {
    return 1.0 - double(overflow_) / double(total_) +
           (x > hi_ ? double(overflow_) / double(total_) : 0.0);
  }
  const auto idx = std::min(std::size_t((x - lo_) / bin_width_),
                            counts_.size() - 1);
  for (std::size_t i = 0; i < idx; ++i) below += double(counts_[i]);
  const double frac = (x - bin_lo(idx)) / bin_width_;
  below += frac * double(counts_[idx]);
  return below / double(total_);
}

void Histogram::to_json(std::string& out) const {
  namespace js = sixg::stats::json;
  out += "{\"lo\":";
  js::append_number(out, lo_);
  out += ",\"hi\":";
  js::append_number(out, hi_);
  out += ",\"count\":";
  js::append_u64(out, total_);
  out += ",\"underflow\":";
  js::append_u64(out, underflow_);
  out += ",\"overflow\":";
  js::append_u64(out, overflow_);
  out += ",\"bins\":[";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i != 0) out.push_back(',');
    js::append_u64(out, counts_[i]);
  }
  out += "]}";
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  SIXG_ASSERT(!sorted.empty(), "quantile of empty sample");
  SIXG_ASSERT(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * double(sorted.size() - 1);
  const auto lo = std::size_t(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - double(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace sixg::stats
