#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sixg::stats {

void Summary::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / double(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::merge(const Summary& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n_total = n_ + other.n_;
  const double na = double(n_);
  const double nb = double(other.n_);
  mean_ += delta * nb / double(n_total);
  m2_ += other.m2_ + delta * delta * na * nb / double(n_total);
  n_ = n_total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / double(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Summary::to(std::string& out) const {
  char buf[160];
  const int len = std::snprintf(
      buf, sizeof buf, "n=%llu mean=%.3f sd=%.3f min=%.3f max=%.3f",
      static_cast<unsigned long long>(n_), mean(), stddev(), min(), max());
  if (len > 0) out.append(buf, std::size_t(len));
}

std::string Summary::str() const {
  std::string out;
  to(out);
  return out;
}

}  // namespace sixg::stats
