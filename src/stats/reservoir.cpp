#include "stats/reservoir.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "stats/histogram.hpp"
#include "stats/json.hpp"

namespace sixg::stats {

ReservoirQuantile::ReservoirQuantile(std::size_t cap, std::uint64_t seed)
    : cap_(cap), rng_(seed) {
  SIXG_ASSERT(cap >= 1, "reservoir needs room for at least one sample");
}

void ReservoirQuantile::add(double x) {
  ++seen_;
  if (data_.size() < cap_) {
    data_.push_back(x);
    sorted_ = false;
    return;
  }
  // Algorithm R: the new value displaces a uniformly random resident
  // with probability cap/seen; every prefix stays a uniform sample.
  const std::uint64_t j = rng_.uniform_int(seen_);
  if (j < cap_) {
    data_[j] = x;
    sorted_ = false;
  }
}

void ReservoirQuantile::merge(const ReservoirQuantile& other) {
  if (other.seen_ == 0) return;
  if (exact() && other.exact() && data_.size() + other.data_.size() <= cap_) {
    // Exact concatenation: indistinguishable from having streamed
    // other's values into this sink directly.
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    seen_ += other.seen_;
    sorted_ = false;
    return;
  }
  // Weighted fold: each of other's residents stands for an equal share
  // of the seen_ values it was sampled from. Feed residents through the
  // Algorithm R displacement step with seen_ advanced by that share.
  // Approximate past the cap (one displacement draw per resident rather
  // than per represented value) but deterministic: all randomness comes
  // from this reservoir's private generator, so a fixed merge order
  // yields a fixed result.
  const std::uint64_t represented = other.seen_;
  const std::size_t residents = other.data_.size();
  std::uint64_t fed = 0;
  for (std::size_t i = 0; i < residents; ++i) {
    const std::uint64_t target = represented * (i + 1) / residents;
    seen_ += target - fed;
    fed = target;
    if (data_.size() < cap_) {
      data_.push_back(other.data_[i]);
      sorted_ = false;
      continue;
    }
    const std::uint64_t j = rng_.uniform_int(seen_);
    if (j < cap_) {
      data_[j] = other.data_[i];
      sorted_ = false;
    }
  }
}

void ReservoirQuantile::to_json(std::string& out) const {
  namespace js = sixg::stats::json;
  out += "{\"count\":";
  js::append_u64(out, seen_);
  out += ",\"cap\":";
  js::append_u64(out, cap_);
  out += ",\"exact\":";
  out += exact() ? "true" : "false";
  out += ",\"q\":{";
  static constexpr std::pair<const char*, double> kProbes[] = {
      {"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95},
      {"p99", 0.99}, {"p999", 0.999},
  };
  bool first = true;
  for (const auto& [name, p] : kProbes) {
    if (!first) out.push_back(',');
    first = false;
    js::append_string(out, name);
    out.push_back(':');
    js::append_number(out, data_.empty()
                               ? std::numeric_limits<double>::quiet_NaN()
                               : quantile(p));
  }
  out += "}}";
}

double ReservoirQuantile::quantile(double q) const {
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
  return sorted_quantile(data_, q);
}

}  // namespace sixg::stats
