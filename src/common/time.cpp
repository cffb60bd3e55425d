#include "common/time.hpp"

#include <cmath>
#include <cstdio>

namespace sixg {

namespace {
std::string format_with_unit(double ns) {
  char buf[64];
  const double mag = std::fabs(ns);
  if (mag < 1e3) {
    std::snprintf(buf, sizeof buf, "%.0f ns", ns);
  } else if (mag < 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f us", ns / 1e3);
  } else if (mag < 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", ns / 1e9);
  }
  return buf;
}
}  // namespace

std::string Duration::str() const { return format_with_unit(double(ticks_)); }

}  // namespace sixg
