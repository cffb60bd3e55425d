#pragma once

namespace sixg::geo {

/// WGS84 geographic coordinate (degrees).
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend constexpr bool operator==(const LatLon&, const LatLon&) = default;
};

/// Great-circle distance in kilometres (haversine, mean-Earth radius).
[[nodiscard]] double distance_km(const LatLon& a, const LatLon& b);

/// Destination point `dist_km` from `origin` along `bearing` (degrees).
[[nodiscard]] LatLon offset(const LatLon& origin, double dist_km,
                            double bearing_deg);

/// One-way propagation delay over `dist_km` of fibre, at 2/3 the speed of
/// light (≈ 5.0 us/km). The constant every latency budget in the paper's
/// analysis rests on.
[[nodiscard]] double fiber_delay_us(double dist_km);

}  // namespace sixg::geo
