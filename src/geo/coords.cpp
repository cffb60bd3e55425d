#include "geo/coords.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace sixg::geo {

namespace {
constexpr double kEarthRadiusKm = 6371.0088;
constexpr double kDegToRad = std::numbers::pi / 180.0;
constexpr double kRadToDeg = 180.0 / std::numbers::pi;
/// Signal velocity in standard single-mode fibre, km/s (n ≈ 1.468).
constexpr double kFiberVelocityKmPerSec = 204'190.0;
}  // namespace

double distance_km(const LatLon& a, const LatLon& b) {
  const double phi1 = a.lat_deg * kDegToRad;
  const double phi2 = b.lat_deg * kDegToRad;
  const double dphi = (b.lat_deg - a.lat_deg) * kDegToRad;
  const double dlambda = (b.lon_deg - a.lon_deg) * kDegToRad;
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dl = std::sin(dlambda / 2.0);
  const double h =
      sin_dphi * sin_dphi + std::cos(phi1) * std::cos(phi2) * sin_dl * sin_dl;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

LatLon offset(const LatLon& origin, double dist_km, double bearing) {
  const double delta = dist_km / kEarthRadiusKm;
  const double theta = bearing * kDegToRad;
  const double phi1 = origin.lat_deg * kDegToRad;
  const double lambda1 = origin.lon_deg * kDegToRad;
  const double phi2 = std::asin(std::sin(phi1) * std::cos(delta) +
                                std::cos(phi1) * std::sin(delta) *
                                    std::cos(theta));
  const double lambda2 =
      lambda1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(phi1),
                           std::cos(delta) - std::sin(phi1) * std::sin(phi2));
  return LatLon{phi2 * kRadToDeg, lambda2 * kRadToDeg};
}

double fiber_delay_us(double dist_km) {
  return dist_km / kFiberVelocityKmPerSec * 1e6;
}

}  // namespace sixg::geo
