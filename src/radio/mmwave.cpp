#include "radio/mmwave.hpp"

#include "stats/distributions.hpp"

namespace sixg::radio {
namespace {

constexpr Duration kSlot = Duration::micros(125);  ///< numerology-3 slot
constexpr Duration kTrackingLo = Duration::from_millis_f(0.8);
constexpr Duration kTrackingHi = Duration::from_millis_f(3.2);
/// Lognormal body of the realignment penalty.
constexpr double kRealignMedianMs = 5.0;
constexpr double kRealignSigma = 0.45;
constexpr Duration kHarqRtt = Duration::micros(500);
/// Beam-state shares; the remainder is realigning.
constexpr double kPAligned = 0.05;
constexpr double kPTracking = 0.17;
constexpr double kBler = 0.10;

}  // namespace

Duration MmWavePhyModel::sample_one_way(Rng& rng) const {
  // Slot alignment + one transmission.
  Duration d = kSlot * rng.uniform() + kSlot;

  // Beam state decides the dominating term.
  const double roll = rng.uniform();
  if (roll < kPAligned) {
    // Serving beam is current: nothing to add.
  } else if (roll < kPAligned + kPTracking) {
    d += Duration::from_millis_f(
        rng.uniform(kTrackingLo.ms(), kTrackingHi.ms()));
  } else {
    d += Duration::from_millis_f(
        stats::Lognormal::from_median(kRealignMedianMs, kRealignSigma)
            .sample(rng));
  }

  // HARQ at mmWave speed.
  int retx = 0;
  while (retx < 4 && rng.chance(kBler)) ++retx;
  d += kHarqRtt * retx;
  return d;
}

}  // namespace sixg::radio
